"""Residual-list lock for the checks that build one map over all their draws.

The golden reports record only each check's largest residual.  Here every
residual of those checks must equal, by its bytes, the residual of a
reference loop that draws and evaluates one map at one point per iteration,
with the single-draw polynomial maps written term by term.
"""

import numpy as np
import pytest

from twistorkit import variations as va
from twistorkit.checkers import pluriconformality_residual, real_isotropy_residual
from twistorkit.jets import SmoothMap, _horner, dz, dz_power
from twistorkit.pairings import bilinear_dot
from twistorkit.suites import CHECK_INDEX, SuiteConfig, _sum_maps, check_rng


def _random_holomorphic_poly(rng, degree=3):
    co = rng.normal(size=(2, degree + 1)) + 1j * rng.normal(size=(2, degree + 1))

    return SmoothMap.from_complex(1, 2, lambda z: [_horner(row, z) for row in co])


def _random_real_poly(rng, dims, degree=3):
    co = rng.normal(size=(dims, degree + 1, degree + 1))

    def ev(x, y):
        out = []
        for comp in co:
            acc = 0.0 * x
            for i in range(degree + 1):
                for j in range(degree + 1):
                    if i + j <= degree:
                        acc = acc + comp[i, j] * x ** i * y ** j
            out.append(acc)
        return out

    return SmoothMap.from_real(2, dims, ev)


def _full_vs_diagonal(config, rng):
    tol = 1e-9 if config.tol is None else config.tol
    residuals = []
    for i in range(100):
        phi = _random_holomorphic_poly(rng) if i % 2 == 0 else _random_real_poly(rng, 4)
        z0 = rng.uniform(-0.9, 0.9, 2)
        full = real_isotropy_residual(phi, z0, 4, mode="full")
        diag = real_isotropy_residual(phi, z0, 4, mode="diagonal")
        residuals.append(0.0 if (full <= tol) == (diag <= tol) else 1.0)
    return residuals


def _jacobi_identity(config, rng):
    residuals = []
    for _ in range(50):
        phi0 = _random_real_poly(rng, 2)
        v = _random_real_poly(rng, 2)
        p = rng.uniform(-1, 1, 2)
        _, tau1 = va.tension_first_order(va.MapFamily.affine(phi0, v), p)
        residuals.append(np.max(np.abs(tau1 + va.jacobi_operator_flat(v, p))))
    return residuals


def _tension_linearity(config, rng):
    residuals = []
    for _ in range(config.points):
        phi0 = _random_real_poly(rng, 2)
        v1 = _random_real_poly(rng, 2)
        v2 = _random_real_poly(rng, 2)
        p = rng.uniform(-1, 1, 2)
        t1 = va.tension_first_order(va.MapFamily.affine(phi0, v1), p)[1]
        t2 = va.tension_first_order(va.MapFamily.affine(phi0, v2), p)[1]
        t12 = va.tension_first_order(va.MapFamily.affine(phi0, _sum_maps(v1, v2)), p)[1]
        residuals.append(np.max(np.abs(t12 - t1 - t2)))
    return residuals


def _dz_vs_finite_differences(config, rng):
    residuals = []
    for _ in range(config.points):
        phi = _random_real_poly(rng, 4, degree=4)
        z0 = rng.uniform(-0.5, 0.5, 2)
        v = dz_power(phi, 1, z0)
        h = 1e-4

        def fd(step):
            ddx = (phi(z0 + [step, 0]) - phi(z0 - [step, 0])) / (2 * step)
            ddy = (phi(z0 + [0, step]) - phi(z0 - [0, step])) / (2 * step)
            return dz(np.stack([ddx, ddy], axis=-1))

        rich = (4 * fd(h / 2) - fd(h)) / 3
        residuals.append(np.max(np.abs(v - rich)) / max(1.0, np.max(np.abs(v))))
    return residuals


def _holomorphic_pluriconformal(config, rng):
    residuals = []
    for _ in range(config.points):
        phi = _random_holomorphic_poly(rng)
        z0 = rng.uniform(-0.9, 0.9, 2)
        v = dz_power(phi, 1, z0)
        residuals.append(abs(bilinear_dot(v, v)))
        residuals.append(pluriconformality_residual(phi, z0))
    return residuals


REFERENCES = {
    "isotropy-reduction:full-vs-diagonal": _full_vs_diagonal,
    "jacobi-first-order:jacobi-identity": _jacobi_identity,
    "jacobi-first-order:tension-linearity": _tension_linearity,
    "jets-core:dz-vs-finite-differences": _dz_vs_finite_differences,
    "jets-core:holomorphic-pluriconformal": _holomorphic_pluriconformal,
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_batched_check_residuals_match_per_draw_loop_bitwise(key, seed):
    suite, name = key.split(":")
    config = SuiteConfig(suite=suite, seed=seed, points=10)
    got = CHECK_INDEX[key](config).residuals
    want = [float(r) for r in REFERENCES[key](config, check_rng(config, name))]
    assert len(got) == len(want)
    assert np.array(got).tobytes() == np.array(want).tobytes()

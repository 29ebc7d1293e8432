"""First-order residuals along one-parameter families."""

import numpy as np
import pytest

from twistorkit.factory import closed_form_r6
from twistorkit.jets import JetError, SmoothMap
from twistorkit.suites import _real_coefficients, _real_poly
from twistorkit.variations import (
    _jets_at_t0,
    affine_family,
    complex_family,
    first_order_residual,
    jacobi_operator_flat,
    tension_first_order,
)

RNG = np.random.default_rng(606)


def random_poly(dims=2, degree=3, rng=RNG):
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


def test_jacobi_operator_values():
    harm = SmoothMap.from_real(2, 2, lambda x, y: [x * x * x - 3 * x * y * y, 0 * x])
    assert np.allclose(jacobi_operator_flat(harm, [0.4, 0.7]), [0.0, 0.0])
    vx2 = SmoothMap.from_real(2, 2, lambda x, y: [x * x, 0 * x])
    assert np.allclose(jacobi_operator_flat(vx2, [0.1, 0.1]), [-2.0, 0.0])


def test_affine_family_base_slice():
    phi0 = random_poly()
    v = random_poly()
    fam = affine_family(phi0, v)
    p = RNG.uniform(-1, 1, 2)
    jets = _jets_at_t0(fam, p, 2)
    base = phi0.jets(p, 3)
    for jf, jb in zip(jets, base):
        for pos, alpha in enumerate(jb.table.indices):
            assert abs(jf.coefficient((0,) + alpha) - jb.coef[pos]) < 1e-14


def test_jacobi_relation_is_exact():
    for _ in range(50):
        phi0, v = random_poly(), random_poly()
        fam = affine_family(phi0, v)
        p = RNG.uniform(-1, 1, 2)
        tau0, tau1 = tension_first_order(fam, p)
        assert np.max(np.abs(tau1 + jacobi_operator_flat(v, p))) <= 1e-12


def test_tension_example_values():
    phi0 = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    v = SmoothMap.from_real(2, 2, lambda x, y: [x * x, 0 * x])
    fam = affine_family(phi0, v)
    tau0, tau1 = tension_first_order(fam, [0.3, 0.5])
    assert np.allclose(tau0, [0.0, 0.0])
    assert np.allclose(tau1, [2.0, 0.0])


def test_t_slot_linear_in_variation():
    phi0 = random_poly()
    v1, v2 = random_poly(), random_poly()

    def vsum_eval(point, order):
        return [a + b for a, b in zip(v1.jets(point, order), v2.jets(point, order))]

    vsum = SmoothMap(2, 2, vsum_eval)
    p = RNG.uniform(-1, 1, 2)
    t1 = tension_first_order(affine_family(phi0, v1), p)[1]
    t2 = tension_first_order(affine_family(phi0, v2), p)[1]
    t12 = tension_first_order(affine_family(phi0, vsum), p)[1]
    assert np.max(np.abs(t12 - t1 - t2)) <= 1e-12


def test_holomorphic_family_all_kinds_vanish():
    fam = complex_family(1, 1, lambda t, z: [z * z + t * z * z * z])
    p = RNG.uniform(-1, 1, 2)
    assert max(first_order_residual(fam, p, 1)) <= 1e-13
    assert max(first_order_residual(fam, p, 3)) <= 1e-13


def test_conformal_first_order_cross_term():
    fam = complex_family(1, 1, lambda t, z: [z + t * z.conj()])
    base, t1 = first_order_residual(fam, [0.7, -0.1], 1)
    assert base <= 1e-15
    assert abs(t1 - 1.0) <= 1e-14  # cross term 2t<dz z, dz zbar> = t


def test_morphism_with_holomorphic_variation_is_jacobi():
    phi0 = closed_form_r6()
    # v = a holomorphic field on C^3 read as a map to C: harmonic, so Jacobi
    v = SmoothMap.from_complex(3, 1, lambda q1, q2, q3: [q1 * q2 + q3 * q3])
    fam = affine_family(phi0, v)
    rng = np.random.default_rng(44)
    count = 0
    while count < 10:
        q = rng.uniform(-1, 1, 6)
        qc = q[0::2] + 1j * q[1::2]
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        count += 1
        tau0, tau1 = tension_first_order(fam, q)
        assert np.linalg.norm(tau0) <= 1e-9
        assert np.linalg.norm(tau1) <= 1e-8


def _bits(a):
    return np.asarray(a).tobytes()


def test_batched_tension_and_jacobi_rows_match_points_bitwise():
    rng = np.random.default_rng(607)
    n = 30
    c0, cv = (np.array([_real_coefficients(rng, 2) for _ in range(n)]) for _ in range(2))
    P = rng.uniform(-1, 1, (n, 2))
    v = _real_poly(cv)
    fam = affine_family(_real_poly(c0), v)
    assert _bits(_jets_at_t0(fam, P, 0)[0].base) == _bits(np.column_stack([np.zeros(n), P]))
    tau0, tau1 = tension_first_order(fam, P)
    jac = jacobi_operator_flat(v, P)
    assert tau0.shape == tau1.shape == jac.shape == (n, 2)
    holo = complex_family(1, 1, lambda t, z: [z * z + t * z.conj() * z * z])
    h0, h1 = tension_first_order(holo, P)
    for r in range(n):
        one = affine_family(_real_poly(c0[r]), _real_poly(cv[r]))
        want0, want1 = tension_first_order(one, P[r])
        assert _bits(tau0[r]) == _bits(want0) and _bits(tau1[r]) == _bits(want1)
        assert _bits(jac[r]) == _bits(jacobi_operator_flat(_real_poly(cv[r]), P[r]))
        want0, want1 = tension_first_order(holo, P[r])
        assert _bits(h0[r]) == _bits(want0) and _bits(h1[r]) == _bits(want1)


def test_nan_first_order_residuals_are_nan():
    nan = float("nan")
    fam = complex_family(1, 1, lambda t, z: [z * nan + t * z])
    for R in (1, 3):
        assert np.isnan(first_order_residual(fam, [0.3, 0.2], R)).all()


def test_a_family_is_a_map_at_every_t():
    phi0, v = random_poly(), random_poly()
    fam = affine_family(phi0, v)
    assert (fam.domain_dim, fam.codomain_dim) == (3, 2)
    for t in (0.0, 0.6, -1.3):
        x = RNG.uniform(-1, 1, 2)
        p = np.concatenate([[t], x])
        assert np.allclose(fam(p), phi0(x) + t * v(x), rtol=0, atol=1e-13)
        J = fam.jacobian(p)
        assert np.allclose(J[:, 0], v(x), rtol=0, atol=1e-13)
        assert np.allclose(J[:, 1:], phi0.jacobian(x) + t * v.jacobian(x), rtol=0, atol=1e-13)
    holo = complex_family(1, 1, lambda t, z: [z * z + t * z.conj() * z])
    for t in (0.4, -0.9):
        at_t = SmoothMap.from_complex(1, 1, lambda z, t=t: [z * z + t * z.conj() * z])
        x = RNG.uniform(-1, 1, 2)
        p = np.concatenate([[t], x])
        assert np.allclose(holo(p), at_t(x), rtol=0, atol=1e-13)
        assert np.allclose(holo.jacobian(p)[:, 1:], at_t.jacobian(x), rtol=0, atol=1e-13)


def test_family_dimension_errors():
    with pytest.raises(JetError, match="dimensions differ"):
        affine_family(random_poly(), SmoothMap.from_real(2, 3, lambda x, y: [x, y, x * y]))
    with pytest.raises(JetError, match="dimensions differ"):
        affine_family(random_poly(), SmoothMap.from_complex(2, 1, lambda z, w: [z * w]))
    solid = complex_family(2, 1, lambda t, z, w: [z * w + t * z])
    with pytest.raises(JetError, match="surface"):
        first_order_residual(solid, [0.1, 0.2, 0.3, 0.4], 1)

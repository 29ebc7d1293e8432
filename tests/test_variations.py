"""First-order residuals along one-parameter families."""

import numpy as np

from twistorkit.factory import closed_form_r6
from twistorkit.jets import JetSpace, SmoothMap
from twistorkit.structures import canonical_structure
from twistorkit.suites import _real_coefficients, _real_poly
from twistorkit.variations import (
    LiftFamily,
    MapFamily,
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
    fam = MapFamily.affine(phi0, v)
    p = RNG.uniform(-1, 1, 2)
    jets = fam.jets(p, 2)
    base = phi0.jets(p, 3)
    for jf, jb in zip(jets, base):
        for pos, alpha in enumerate(jb.table.indices):
            assert abs(jf.coefficient((0,) + alpha) - jb.coef[pos]) < 1e-14


def test_jacobi_relation_is_exact():
    for _ in range(50):
        phi0, v = random_poly(), random_poly()
        fam = MapFamily.affine(phi0, v)
        p = RNG.uniform(-1, 1, 2)
        tau0, tau1 = tension_first_order(fam, p)
        assert np.max(np.abs(tau1 + jacobi_operator_flat(v, p))) <= 1e-12


def test_tension_example_values():
    phi0 = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    v = SmoothMap.from_real(2, 2, lambda x, y: [x * x, 0 * x])
    fam = MapFamily.affine(phi0, v)
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
    t1 = tension_first_order(MapFamily.affine(phi0, v1), p)[1]
    t2 = tension_first_order(MapFamily.affine(phi0, v2), p)[1]
    t12 = tension_first_order(MapFamily.affine(phi0, vsum), p)[1]
    assert np.max(np.abs(t12 - t1 - t2)) <= 1e-12


def test_holomorphic_family_all_kinds_vanish():
    fam = MapFamily.from_complex(1, 1, lambda t, z: [z * z + t * z * z * z])
    p = RNG.uniform(-1, 1, 2)
    assert max(first_order_residual(fam, p, "conformal")) <= 1e-13
    assert max(first_order_residual(fam, p, "isotropy", R=3)) <= 1e-13


def test_conformal_first_order_cross_term():
    fam = MapFamily.from_complex(1, 1, lambda t, z: [z + t * z.conj()])
    base, t1 = first_order_residual(fam, [0.7, -0.1], "conformal")
    assert base <= 1e-15
    assert abs(t1 - 1.0) <= 1e-14  # cross term 2t<dz z, dz zbar> = t


def test_morphism_with_holomorphic_variation_is_jacobi():
    phi0 = closed_form_r6()
    # v = a holomorphic field on C^3 read as a map to C: harmonic, so Jacobi
    v = SmoothMap.from_complex(3, 1, lambda q1, q2, q3: [q1 * q2 + q3 * q3])
    fam = MapFamily.affine(phi0, v)
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


def test_lift_family_psi_holomorphy():
    J0 = canonical_structure(2).matrix

    def const_struct(x0, space_order):
        sp = JetSpace(np.concatenate([[0.0], x0]), space_order + 1)
        return [[sp.const(J0[a, b]) for b in range(4)] for a in range(4)]

    fam = MapFamily.from_complex(1, 2, lambda t, z: [z, z * z + t * z])
    lift_fam = LiftFamily(fam, const_struct)
    p = RNG.uniform(-1, 1, 2)
    base, t1 = first_order_residual(lift_fam, p, "psi_holomorphy")
    assert base <= 1e-14 and t1 <= 1e-14
    # breaking holomorphy at first order shows up only in the t-slot
    fam_bad = MapFamily.from_complex(1, 2, lambda t, z: [z, z * z + t * z.conj()])
    base, t1 = first_order_residual(LiftFamily(fam_bad, const_struct), p,
                                    "psi_holomorphy")
    assert base <= 1e-14 and t1 > 0.5


def _bits(a):
    return np.asarray(a).tobytes()


def test_batched_tension_and_jacobi_rows_match_points_bitwise():
    rng = np.random.default_rng(607)
    n = 30
    c0, cv = (np.array([_real_coefficients(rng, 2) for _ in range(n)]) for _ in range(2))
    P = rng.uniform(-1, 1, (n, 2))
    v = _real_poly(cv)
    fam = MapFamily.affine(_real_poly(c0), v)
    assert _bits(fam.jets(P, 1)[0].base) == _bits(np.column_stack([np.zeros(n), P]))
    tau0, tau1 = tension_first_order(fam, P)
    jac = jacobi_operator_flat(v, P)
    assert tau0.shape == tau1.shape == jac.shape == (n, 2)
    holo = MapFamily.from_complex(1, 1, lambda t, z: [z * z + t * z.conj() * z * z])
    h0, h1 = tension_first_order(holo, P)
    for r in range(n):
        one = MapFamily.affine(_real_poly(c0[r]), _real_poly(cv[r]))
        want0, want1 = tension_first_order(one, P[r])
        assert _bits(tau0[r]) == _bits(want0) and _bits(tau1[r]) == _bits(want1)
        assert _bits(jac[r]) == _bits(jacobi_operator_flat(_real_poly(cv[r]), P[r]))
        want0, want1 = tension_first_order(holo, P[r])
        assert _bits(h0[r]) == _bits(want0) and _bits(h1[r]) == _bits(want1)


def test_nan_first_order_residuals_are_nan():
    nan = float("nan")
    fam = MapFamily.from_complex(1, 1, lambda t, z: [z * nan + t * z])
    for kind in ("conformal", "isotropy"):
        assert np.isnan(first_order_residual(fam, [0.3, 0.2], kind)).all()
    J0 = canonical_structure(2).matrix

    def const_struct(x0, space_order):
        sp = JetSpace(np.concatenate([[0.0], x0]), space_order + 1)
        return [[sp.const(J0[a, b]) for b in range(4)] for a in range(4)]

    fam_nan = MapFamily.from_complex(1, 2, lambda t, z: [z, z * z + t * z * nan])
    base, t1 = first_order_residual(LiftFamily(fam_nan, const_struct), [0.3, 0.2],
                                    "psi_holomorphy")
    assert np.isnan(base) and np.isnan(t1)

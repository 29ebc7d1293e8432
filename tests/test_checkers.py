"""Residual checkers for map properties, with their independent oracles."""

import numpy as np
import pytest

import twistorkit
from twistorkit.checkers import (
    CheckReport,
    conformality_residual,
    harmonic_morphism_residual,
    harmonicity_residual,
    holomorphy_residual,
    hwc_residual,
    one_one_geodesic_residual,
    pluriconformality_residual,
    pullback_harmonic_oracle,
    real_isotropy_residual,
    real_isotropy_residuals,
    umbilic_residual,
    weak_conformality,
)
from twistorkit.connections import LieValuedForm, curvature_02_residual, flatness_residual
from twistorkit.factory import (
    CP3Data,
    EuclideanTwistorData,
    closed_form_r6,
    cp3_affine_jacobian,
    cp3_constraints_residual,
    cp3_example1_data,
    cp3_linear_system_residual,
    cp3_local_diffeo_check,
    cp3_morphism_data,
    cp3_point,
    euclid_r6_data,
    verify_chart_holomorphy,
    verify_horizontality,
)
from twistorkit.jets import (
    JetError,
    JetSpace,
    SmoothMap,
    dz,
    dz_power,
    dz_vectors,
    gradient,
    real_to_complex_point,
    stack,
)
from twistorkit.pairings import (
    DimensionError,
    _modulus,
    _norms,
    _worst_modulus,
    bilinear_dot,
    hermitian_dot,
    is_isotropic_span,
)
from twistorkit.lifts import (
    LiftError,
    j_vertical_residual,
    strictly_compatible_lift_r4,
    t10_stability_residual,
)
from twistorkit.structures import (
    IsotropicSubspace,
    StructureError,
    canonical_structure,
    mu_matrix,
    so_action,
)
from twistorkit.suites import (
    _holomorphic_coefficients,
    _holomorphic_poly,
    _lift_test_maps,
    _mc_setup,
    _real_coefficients,
    _real_poly,
    _skew,
)
from twistorkit.variations import affine_family, complex_family, first_order_residual

RNG = np.random.default_rng(2718)

Z_CUBED = SmoothMap.from_complex(1, 1, lambda z: [z * z * z])
STRETCH = SmoothMap.from_real(2, 2, lambda x, y: [x, 2 * y])
NONHOLO = SmoothMap.from_complex(1, 2, lambda z: [z * z + z.conj(), z * z + z.conj()])

# Oracles that only these tests use.
REGULAR_SV_RATIO = 1e-6


def hwc_residual_svd_oracle(phi, x0):
    """Independent horizontal-space check of horizontal weak conformality.

    Builds the horizontal space explicitly as the span of the right singular
    vectors with nonzero singular value and tests that dphi maps it
    conformally onto the target; a cross-check for the Gram form of
    :func:`hwc_residual`.
    """
    D = phi.jacobian(x0)
    n2 = phi.codomain_dim
    u, s, vt = np.linalg.svd(D)
    if s[0] < 1e-14:
        return 0.0, 0.0
    horiz = vt[: np.sum(s > REGULAR_SV_RATIO * s[0])]
    img = np.array([D @ h for h in horiz])
    G = img @ img.T
    lam = float(np.trace(G)) / G.shape[0]
    res = float(np.linalg.norm(G - lam * np.eye(G.shape[0])))
    if img.shape[0] < n2:  # not surjective: cannot map onto the target
        res = float(np.max([res, s[0] ** 2]))
    return lam, res


def is_regular_point(phi, x0, ratio=REGULAR_SV_RATIO):
    """Whether the differential has full rank up to the singular-value ratio."""
    D = phi.jacobian(x0)
    s = np.linalg.svd(D, compute_uv=False)
    return bool(s[0] > 0 and s[min(D.shape) - 1] > ratio * s[0])


def admissible_points(count, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        q = rng.uniform(-1, 1, 6)
        qc = real_to_complex_point(q)
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) > 0.2:
            pts.append(q)
    return pts


# ---------------------------------------------------------------------------
# conformality

def test_conformality_examples():
    assert conformality_residual(Z_CUBED, [0.7, -0.4]) <= 1e-14
    # dz(x, 2y) = (1, -2i)/2: pairing (1 - 4)/4
    assert abs(conformality_residual(STRETCH, [0.1, 0.2]) - 0.75) < 1e-14
    # the non-holomorphic doubled map fails at r = s = 1 with value 4z
    assert abs(conformality_residual(NONHOLO, [1.0, 0.0]) - 4.0) < 1e-13


def test_weak_conformality_examples():
    iso = SmoothMap.from_real(2, 2, lambda x, y: [y, -1 * x])
    lam, res = weak_conformality(iso, [0.3, 0.4])
    assert abs(lam - 1.0) < 1e-14 and res < 1e-14
    const = SmoothMap.from_real(2, 2, lambda x, y: [0 * x + 1.0, 0 * x])
    lam, res = weak_conformality(const, [0.3, 0.4])
    assert lam == 0.0 and res == 0.0
    # pluriconformal but not conformal: (z1, z1 z2) at (1, 1)
    pc = SmoothMap.from_complex(2, 2, lambda z1, z2: [z1, z1 * z2])
    pt = np.array([1.0, 0.0, 1.0, 0.0])
    _, res = weak_conformality(pc, pt)
    assert res > 0.5
    assert pluriconformality_residual(pc, pt) <= 1e-14


def test_pluriconformality_examples():
    anti = SmoothMap.from_complex(1, 1, lambda z: [z.conj()])
    assert pluriconformality_residual(anti, [0.5, 0.5]) <= 1e-15
    proj = SmoothMap.from_real(4, 2, lambda a, b, c, d: [a, 0 * a])
    assert abs(pluriconformality_residual(proj, np.zeros(4)) - 0.25) < 1e-15


def test_conformality_implies_pluriconformality_on_surfaces():
    maps = [Z_CUBED, SmoothMap.from_complex(1, 2, lambda z: [z, z * z])]
    for phi in maps:
        for _ in range(20):
            z0 = RNG.uniform(-1, 1, 2)
            if conformality_residual(phi, z0) <= 1e-10:
                assert pluriconformality_residual(phi, z0) <= 1e-10


def test_harmonicity_examples():
    z5 = SmoothMap.from_complex(1, 1, lambda z: [z ** 5])
    assert harmonicity_residual(z5, [0.3, 0.1]) <= 1e-12
    r2 = SmoothMap.from_real(2, 2, lambda x, y: [x * x + y * y, 0 * x])
    assert abs(harmonicity_residual(r2, [0.0, 0.0]) - 4.0) < 1e-14
    phi = closed_form_r6()
    for p in admissible_points(50):
        assert harmonicity_residual(phi, p) <= 1e-9


def test_real_isotropy_examples():
    for _ in range(10):
        co = RNG.normal(size=(2, 4)) + 1j * RNG.normal(size=(2, 4))

        def fn(z, co=co):
            return [co[i, 0] + co[i, 1] * z + co[i, 2] * z * z + co[i, 3] * z ** 3
                    for i in range(2)]

        holo = SmoothMap.from_complex(1, 2, fn)
        assert real_isotropy_residual(holo, RNG.uniform(-1, 1, 2), 4) <= 1e-10
    assert real_isotropy_residual(STRETCH, [0.1, 0.1], 1) > 0.5
    # the doubled-map label from the source is wrong at r = s = 1: value 4|z|
    val = real_isotropy_residual(NONHOLO, [1.0, 0.0], 1)
    assert abs(val - 4.0) < 1e-13


def test_isotropy_full_vs_diagonal_agree():
    tol = 1e-9
    for i in range(100):
        if i % 2 == 0:
            co = RNG.normal(size=(2, 4)) + 1j * RNG.normal(size=(2, 4))

            def fn(z, co=co):
                return [co[k, 0] + co[k, 1] * z + co[k, 2] * z * z + co[k, 3] * z ** 3
                        for k in range(2)]

            phi = SmoothMap.from_complex(1, 2, fn)
        else:
            co = RNG.normal(size=(4, 4, 4))

            def ev(x, y, co=co):
                out = []
                for comp in co:
                    acc = 0.0 * x
                    for a in range(4):
                        for b in range(4):
                            if a + b <= 3:
                                acc = acc + comp[a, b] * x ** a * y ** b
                    out.append(acc)
                return out

            phi = SmoothMap.from_real(2, 4, ev)
        z0 = RNG.uniform(-0.9, 0.9, 2)
        full = real_isotropy_residual(phi, z0, 4)
        diag = real_isotropy_residuals(phi, z0, 4)[1]
        assert (full <= tol) == (diag <= tol)
        assert diag <= full + 1e-15


def test_umbilic_examples():
    # the doubled map is proportional in the C-identified sense
    assert umbilic_residual(NONHOLO, [0.6, -0.2]) <= 1e-13
    graph = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])
    assert umbilic_residual(graph, [0.0, 0.0]) > 0.3
    lin = SmoothMap.from_complex(1, 2, lambda z: [z, 2 * z])
    assert umbilic_residual(lin, [0.4, 0.1]) == 0.0
    const = SmoothMap.from_complex(1, 2, lambda z: [0 * z, 0 * z])
    assert umbilic_residual(const, [0.0, 0.0]) == 0.0  # degenerate convention


def test_umbilic_residual_is_nan_at_a_non_finite_point_and_in_its_row_only():
    graph = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])
    P = np.array([[0.1, 0.2], [np.nan, 0.1], [0.3, -0.2]])
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf, -np.inf):
            assert np.isnan(umbilic_residual(graph, [bad, 0.1]))
        got = umbilic_residual(graph, P)
    assert np.isnan(got[1])
    for r in (0, 2):
        assert got[r].tobytes() == np.float64(umbilic_residual(graph, P[r])).tobytes()


def test_hwc_examples():
    proj = SmoothMap.from_real(4, 2, lambda a, b, c, d: [a, b])
    lam, res = hwc_residual(proj, np.zeros(4))
    assert abs(lam - 1.0) < 1e-14 and res < 1e-14
    phi = closed_form_r6()
    for p in admissible_points(30, seed=1):
        lam, res = hwc_residual(phi, p)
        assert res <= 1e-9 and lam > 0
    rank1 = SmoothMap.from_real(4, 2, lambda a, b, c, d: [a, a])
    _, res = hwc_residual(rank1, np.zeros(4))
    assert abs(res - np.sqrt(2.0)) < 1e-14


def test_hwc_gram_matches_svd_oracle():
    for _ in range(100):
        m2, n2 = 4, 2
        A = RNG.normal(size=(n2, m2))

        def ev(a, b, c, d, A=A):
            xs = [a, b, c, d]
            return [sum(A[i, j] * xs[j] for j in range(4)) for i in range(2)]

        phi = SmoothMap.from_real(4, 2, ev)
        _, res_gram = hwc_residual(phi, np.zeros(4))
        _, res_svd = hwc_residual_svd_oracle(phi, np.zeros(4))
        # both vanish together; both positive together
        assert (res_gram <= 1e-9) == (res_svd <= 1e-9)


def test_harmonic_morphism_residual_examples():
    sq = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    h, w = harmonic_morphism_residual(sq, [0.4, 0.3])
    assert h <= 1e-13 and w <= 1e-13
    mix = SmoothMap.from_real(4, 2, lambda a, b, c, d: [a * a - b * b, a])
    h, w = harmonic_morphism_residual(mix, np.array([0.5, 0.2, 0.0, 0.0]))
    assert h <= 1e-13 and w > 0.1


def _counted(phi):
    """``phi`` with a log of the order of each call of its ``jets``."""
    orders, jets = [], phi.jets

    def counted(point, order):
        orders.append(order)
        return jets(point, order)

    phi.jets = counted
    return phi, orders


@pytest.mark.parametrize("count", [None, 5])
def test_harmonic_morphism_residual_reads_both_residuals_from_one_order_2_call(count):
    phi, orders = _counted(closed_form_r6())
    points = np.array(admissible_points(count or 1, seed=4))
    harmonic_morphism_residual(phi, points if count else points[0])
    assert orders == [2]


def test_harmonic_morphism_residual_is_its_two_residuals_bitwise():
    rng = np.random.default_rng(19)
    cases = [(closed_form_r6(), np.array(admissible_points(BATCH, seed=5))),
             (_real_poly(_real_coefficients(rng, 4)), rng.uniform(-0.9, 0.9, (BATCH, 2)))]
    for phi, P in cases:
        for x in (P, P[0]):
            got = harmonic_morphism_residual(phi, x)
            want = (harmonicity_residual(phi, x), hwc_residual(phi, x)[1])
            assert [_bits(g) for g in got] == [_bits(w) for w in want]


def test_pullback_oracle_examples():
    holo = SmoothMap.from_complex(1, 1, lambda z: [z * z + 3 * z])
    assert pullback_harmonic_oracle(holo, [0, 0, 1.0], [0.3, 0.2]) <= 1e-12
    phi = closed_form_r6()
    for p in admissible_points(20, seed=2):
        assert pullback_harmonic_oracle(phi, [0, 0, 0, 1.0], p) <= 1e-8
    notm = SmoothMap.from_real(2, 2, lambda x, y: [x * x, 0 * x])
    assert abs(pullback_harmonic_oracle(notm, [0, 1.0], [0.1, 0.1]) - 2.0) < 1e-13
    for constant in ([2.5], []):  # Re(g(phi)) is constant
        assert pullback_harmonic_oracle(notm, constant, [0.1, 0.1]) == 0.0


def _oracle_passes(phi, pts, tol=1e-8):
    basis = [[0, 1], [0, 1j], [0, 0, 1], [0, 0, 1j], [0, 0, 0, 1], [0, 0, 0, 1j]]
    worst = max(pullback_harmonic_oracle(phi, g, p) for p in pts for g in basis)
    return worst <= tol


def test_fuglede_ishihara_corpus_agreement():
    """Pullback oracle over a harmonic-polynomial basis agrees in pass/fail
    with the harmonic + horizontally-conformal pair on a 10-map corpus."""
    morphisms = [
        SmoothMap.from_complex(1, 1, lambda z: [z * z]),
        SmoothMap.from_complex(2, 1, lambda z1, z2: [z1 * z2]),
        SmoothMap.from_complex(2, 1, lambda z1, z2: [z1 * z1 - z2 * z2]),
        SmoothMap.from_real(4, 2, lambda a, b, c, d: [a, b]),
        closed_form_r6(),
    ]
    non_morphisms = [
        SmoothMap.from_real(2, 2, lambda x, y: [x * x, 0 * x]),
        SmoothMap.from_complex(1, 1, lambda z: [z + z.conj() * z.conj()]),
        SmoothMap.from_real(4, 2, lambda a, b, c, d: [a * a - b * b, a]),
        STRETCH,
        SmoothMap.from_real(2, 2, lambda x, y: [x * x - y * y, x]),
    ]
    rng = np.random.default_rng(10)
    for phi, expect in [(m, True) for m in morphisms] + [(m, False) for m in non_morphisms]:
        if phi.domain_dim == 6:
            pts = admissible_points(20, seed=3)
        else:
            pts = [rng.uniform(-1, 1, phi.domain_dim) for _ in range(20)]
        pair_ok = all(max(harmonic_morphism_residual(phi, p)) <= 1e-8 for p in pts)
        oracle_ok = _oracle_passes(phi, pts)
        assert pair_ok == oracle_ok == expect


def test_one_one_geodesic_examples():
    holo2 = SmoothMap.from_complex(2, 1, lambda z1, z2: [z1 * z1 + z2 * z2 * z2])
    assert one_one_geodesic_residual(holo2, np.zeros(4)) <= 1e-14
    absq = SmoothMap.from_complex(1, 1, lambda z: [z * z.conj()])
    assert abs(one_one_geodesic_residual(absq, [0.2, 0.3]) - 1.0) < 1e-14
    mixed = SmoothMap.from_complex(2, 1, lambda z1, z2: [z1 * z2.conj()])
    assert one_one_geodesic_residual(mixed, np.zeros(4)) > 0.5


def test_holomorphy_residual_examples():
    J2 = canonical_structure(1)
    ident = SmoothMap.from_real(2, 2, lambda x, y: [x, y])
    assert holomorphy_residual(ident, J2, J2, [0.1, 0.4]) <= 1e-15
    anti = SmoothMap.from_complex(1, 1, lambda z: [z.conj()])
    assert holomorphy_residual(anti, J2, J2, [0.1, 0.4]) > 1.0
    # the corrected constant structure of the plane-folding example
    fold = SmoothMap.from_complex(1, 2, lambda z: [(z + z.conj()) * 0.5,
                                                   (z - z.conj()) * 0.5])
    Jt = np.zeros((4, 4))
    Jt[3, 0], Jt[0, 3] = 1, -1   # J e1 = e4
    Jt[2, 1], Jt[1, 2] = 1, -1   # J e2 = e3
    assert holomorphy_residual(fold, J2, Jt, [0.3, 0.6]) <= 1e-15


def test_residuals_invariant_under_target_rotation():
    phi = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])
    rng = np.random.default_rng(6)
    z0 = [0.3, 0.7]
    base = holomorphy_residual(phi, canonical_structure(1),
                               canonical_structure(2), z0)
    for _ in range(20):
        Q, R = np.linalg.qr(rng.normal(size=(4, 4)))
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]

        def rotated(point, order, Q=Q):
            jets = phi.jets(point, order)
            return [sum(Q[i, j] * jets[j] for j in range(4)) for i in range(4)]

        phi_rot = SmoothMap(2, 4, rotated)
        JQ = so_action(Q, canonical_structure(2))
        rot = holomorphy_residual(phi_rot, canonical_structure(1), JQ, z0)
        assert abs(rot - base) < 1e-12
        assert abs(conformality_residual(phi_rot, z0)
                   - conformality_residual(phi, z0)) < 1e-12


def test_regular_point_threshold():
    proj = SmoothMap.from_real(4, 2, lambda a, b, c, d: [a, b])
    assert is_regular_point(proj, np.zeros(4))
    branch = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    assert not is_regular_point(branch, [0.0, 0.0])
    assert is_regular_point(branch, [0.5, 0.0])


def test_surface_only_guards():
    phi4 = SmoothMap.from_real(4, 2, lambda a, b, c, d: [a, b])
    with pytest.raises(JetError):
        conformality_residual(phi4, np.zeros(4))
    with pytest.raises(JetError):
        real_isotropy_residual(phi4, np.zeros(4), 2)


def test_nan_pairings_give_nan_residuals():
    nan_map = SmoothMap.from_real(2, 2, lambda x, y: [x * float("nan"), y])
    for pts in ([0.1, 0.2], np.array([[0.1, 0.2], [0.3, 0.4]])):
        assert np.all(np.isnan(real_isotropy_residual(nan_map, pts, 2)))
        assert np.all(np.isnan(pluriconformality_residual(nan_map, pts)))


def test_fibre_curves_of_morphism_are_minimal():
    """Trace coordinate curves inside a fibre of the produced morphism and
    check that the normal accelerations sum to (numerically) zero."""
    phi = closed_form_r6()
    q0 = admissible_points(1, seed=8)[0]

    def value(q):
        return np.array([j.value.real for j in phi.jets(q, 0)])

    c0 = value(q0)

    def project_to_fibre(q):
        # Gauss-Newton steps moving along the horizontal space only
        for _ in range(40):
            r = value(q) - c0
            if np.linalg.norm(r) < 1e-13:
                return q
            D = phi.jacobian(q)
            q = q - np.linalg.pinv(D) @ r
        raise AssertionError("fibre projection did not converge")

    D0 = phi.jacobian(q0)
    _, s, vt = np.linalg.svd(D0)
    vert = vt[2:]  # 4-dim kernel: fibre tangent directions
    horiz = vt[:2]
    h = 1e-3
    total = np.zeros(6)
    for E in vert:
        qp = project_to_fibre(q0 + h * E)
        qm = project_to_fibre(q0 - h * E)
        accel = (qp + qm - 2 * q0) / h ** 2
        total += horiz.T @ (horiz @ accel)
    assert np.linalg.norm(total) <= 1e-5


# ---------------------------------------------------------------------------
# report verdicts

def test_non_finite_residual_fails():
    for bad in (float("nan"), float("inf")):
        for residuals in ([0.0, bad], [bad, 0.0], [1e-20, bad, 1e-20]):
            rep = CheckReport("c", list(range(len(residuals))), residuals, 1e-6)
            assert not rep.passed
            assert not np.isfinite(rep.max_residual)
            assert "non-finite" in rep.summary()
    # an infinite tolerance does not let an infinite residual through
    assert not CheckReport("c", [0], [float("inf")], float("inf")).passed


def test_empty_residuals_fail():
    rep = CheckReport("c", [], [], 1.0)
    assert not rep.passed
    assert rep.summary().startswith("FAIL") and "no residuals" in rep.summary()


# ---------------------------------------------------------------------------
# point arrays: row r of a batched result is, by its bytes, the result at the
# point of row r alone

BATCH = 40


def _bits(a):
    return np.asarray(a).tobytes()


def _poly_draws(seed):
    """Stacked coefficients of BATCH random holomorphic maps C -> C^2 and
    BATCH random real maps R^2 -> R^4 of degree 3, and BATCH points."""
    rng = np.random.default_rng(seed)
    holo = np.array([_holomorphic_coefficients(rng) for _ in range(BATCH)])
    real = np.array([_real_coefficients(rng, 4) for _ in range(BATCH)])
    return holo, real, rng.uniform(-0.9, 0.9, (BATCH, 2))


def test_modulus_is_python_abs_where_np_abs_is_not():
    rng = np.random.default_rng(5)
    z = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    want = np.array([abs(complex(w)) for w in z])
    assert _bits(_modulus(z)) == _bits(want)
    assert type(_modulus(complex(z[0]))) is np.float64
    assert np.count_nonzero(np.abs(z) != want) > 0


def test_norms_of_a_stack_are_the_norms_of_its_blocks_bitwise():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(BATCH, 4, 4, 2)) + 1j * rng.normal(size=(BATCH, 4, 4, 2))
    stacks = [(z[..., 0], 2), (z[..., 0].real, 2), (z[..., 1].imag, 2), (z[:, :, 0, 0], 1),
              (z[:, 0, :, 0].real, 1), (rng.normal(size=(BATCH, 16)), 1),
              (z.reshape(BATCH, -1), 1), (z, 3)]
    for x, ndim in stacks:
        assert _bits(_norms(x, ndim)) == _bits([np.linalg.norm(block) for block in x])
        assert type(_norms(x[0], ndim)) is float
        assert _norms(x[:0], ndim).shape == (0,)
    # the norm of an axis= reduction sums in another order
    blocks = z[..., 0].real.copy()
    assert _bits(np.linalg.norm(blocks, axis=(1, 2))) != _bits(_norms(blocks, 2))


@pytest.mark.parametrize("d", [1, 4, 9, 17])
def test_batched_pairings_match_rows_bitwise(d):
    rng = np.random.default_rng(d)
    U = rng.normal(size=(BATCH, d)) + 1j * rng.normal(size=(BATCH, d))
    V = rng.normal(size=(BATCH, d)) + 1j * rng.normal(size=(BATCH, d))
    for pair in (bilinear_dot, hermitian_dot):
        rows = pair(U, V)
        assert rows.shape == (BATCH,)
        for r in range(BATCH):
            one = pair(U[r], V[r])
            assert type(one) is complex and _bits(rows[r]) == _bits(one)
    with pytest.raises(DimensionError):
        bilinear_dot(U, V[:, :-1])


def test_batched_random_polynomial_maps_match_one_draw_bitwise():
    holo, real, P = _poly_draws(11)
    for build, co in ((_holomorphic_poly, holo), (_real_poly, real)):
        batch = build(co).jets(P, 3)
        for r in range(BATCH):
            for got, want in zip(batch, build(co[r]).jets(P[r], 3)):
                assert _bits(got.coef[r]) == _bits(want.coef)


def _python_abs_max(pairings):
    return max([0.0] + [abs(p) for p in pairings])


@pytest.mark.parametrize("mode", ["full", "diagonal"])
def test_batched_real_isotropy_residual_rows_match_points_bitwise(mode):
    which = ("full", "diagonal").index(mode)
    holo, real, P = _poly_draws(12)
    pairs = [(r, s) for r in range(4) for s in range(r, 4) if mode == "full" or r == s]
    np_abs_differs = 0
    for build, co in ((_holomorphic_poly, holo), (_real_poly, real)):
        rows = real_isotropy_residuals(build(co), P, 4)[which]
        assert rows.shape == (BATCH,)
        for r in range(BATCH):
            phi = build(co[r])
            one = real_isotropy_residuals(phi, P[r], 4)[which]
            assert type(one) is float and _bits(rows[r]) == _bits(one)
            vecs = dz_vectors(phi, P[r], 4)
            dots = [bilinear_dot(vecs[i], vecs[j]) for i, j in pairs]
            assert _bits(one) == _bits(_python_abs_max(dots))
            np_abs_differs += float(np.max(np.abs(dots))) != one
    assert np_abs_differs > 0  # np.abs would move some of these residuals


def test_batched_pluriconformality_residual_rows_match_points_bitwise():
    holo, real, P = _poly_draws(13)
    rng = np.random.default_rng(14)
    pc = SmoothMap.from_complex(2, 2, lambda z1, z2: [z1 + z2.conj() * z1, z1 * z2])
    cases = [(_holomorphic_poly(holo), lambda r: _holomorphic_poly(holo[r]), P),
             (_real_poly(real), lambda r: _real_poly(real[r]), P),
             (pc, lambda r: pc, rng.uniform(-1, 1, (BATCH, 4)))]
    np_abs_differs = 0
    for batch_map, map_of_row, points in cases:
        rows = pluriconformality_residual(batch_map, points)
        assert rows.shape == (BATCH,)
        for r in range(BATCH):
            one = pluriconformality_residual(map_of_row(r), points[r])
            assert type(one) is float and _bits(rows[r]) == _bits(one)
            grad = gradient(map_of_row(r).jets(points[r], 1))
            m = len(points[r]) // 2
            dots = [bilinear_dot(dz(grad, i), dz(grad, j)) for i in range(m) for j in range(i, m)]
            assert _bits(one) == _bits(_python_abs_max(dots))
            np_abs_differs += float(np.max(np.abs(dots))) != one
    assert np_abs_differs > 0


def test_nan_geodesic_and_span_residuals_are_nan():
    # a running max(worst, x) keeps worst past a NaN x; these must not pass
    nan = float("nan")
    phi = SmoothMap.from_real(2, 2, lambda x, y: [x * x * nan, y])
    assert np.isnan(one_one_geodesic_residual(phi, [0.3, 0.2]))
    ok, res = is_isotropic_span([[1.0, 1j], [nan, 0.0]])
    assert not ok and np.isnan(res)
    assert np.isnan(_worst_modulus([0.0, nan, 1.0]))
    assert _worst_modulus([0.5, 2.0, 1.0]) == 2.0 and _worst_modulus([]) == 0.0


# ---------------------------------------------------------------------------
# the batch contract: at one point a checker returns a float; at an (N, d)
# array of points, an empty one included, one residual per row, each by its
# bytes the residual at that row's point

def _rotated_structures(P):
    """A structure on R^4 that turns with the point: its matrix at one
    point, an (N, 4, 4) array at an (N, 2) array of points."""
    c, s = np.cos(P[..., 0]), np.sin(P[..., 0])
    Q = np.zeros(P.shape[:-1] + (4, 4))
    Q[..., [0, 1, 0, 1], [0, 1, 2, 3]] = np.stack([c, c, s, s], axis=-1)
    Q[..., [2, 3, 2, 3], [2, 3, 0, 1]] = np.stack([c, c, -s, -s], axis=-1)
    return Q @ canonical_structure(2).matrix @ Q.swapaxes(-1, -2)


def _structure_list(P):
    """The matrices of :func:`_rotated_structures` as a list, one per row,
    at an array of points with rows; an empty list has no matrix shape."""
    J = _rotated_structures(P)
    return list(J) if J.ndim == 3 and len(J) else J


def _curvature_fields(space):
    """Two 2 x 2 coefficient fields over R^4 whose (0,2) curvature varies
    from point to point."""
    x = space.vars()
    zb1, zb2 = x[0] - 1j * x[1], x[2] - 1j * x[3]
    z = space.const(0.0)
    return [[[x[0] * x[1], zb2], [z, x[2]]], [[x[3], z], [zb1 * x[0], z]]]


def _antisymmetric_fields(space):
    """G_1 = zbar_2 E12 and G_2 = zbar_1 E12: a vanishing (0,2) curvature."""
    x = space.vars()
    z = space.const(0.0)
    return [[[z, x[2] - 1j * x[3]], [z, z]], [[z, x[0] - 1j * x[1]], [z, z]]]


# example 1 with gamma = xi^3 instead of xi^2: its constraints do not vanish
BROKEN_CP3 = CP3Data(nz=2, nxi=1, alpha=lambda zs: zs[2] + zs[0], beta=lambda zs: zs[2] + zs[1],
                     gamma=lambda zs: zs[2] ** 3, delta=lambda zs: zs[2] * zs[2] + zs[1],
                     w=lambda zs: 2 * zs[2])
CP3_DATA = (cp3_example1_data(), cp3_morphism_data(),
            cp3_morphism_data(P=(0.2, 1, 0.3), Q=(0.1, 1, -0.2), R=(0, 1, 0.5)))


def _contract_table():
    """name -> (domain dimension, function of the points giving a list of
    residuals): each public checker that takes an array of points, on maps
    where it vanishes and maps where it does not."""
    rng = np.random.default_rng(31)
    cf = closed_form_r6()
    bad = SmoothMap.from_complex(3, 1, lambda q1, q2, q3: [q1 * q1.conj() * q3 + q2 * q2])
    good = euclid_r6_data((0.2, 1.0, 0.0, -0.4))
    xi_mu = EuclideanTwistorData(1, 2, good.h, SmoothMap.from_complex(
        3, 3, lambda z, x1, x2: [z * x1, 0 * z, x2.conj()]))
    conj_h = EuclideanTwistorData(1, 2, SmoothMap.from_complex(
        3, 3, lambda z, x1, x2: [z.conj() * x1, x1, x2 * x2.conj()]), good.mu)
    holo = _holomorphic_poly(_holomorphic_coefficients(rng))
    real = _real_poly(_real_coefficients(rng, 4))
    const = SmoothMap.from_real(2, 4, lambda x, y: [0 * x + 1.0, 0 * x, 0 * y, 0 * y])
    surface = (holo, real, NONHOLO)
    pc = SmoothMap.from_complex(2, 2, lambda z1, z2: [z1 + z2.conj() * z1, z1 * z2])
    holo2 = SmoothMap.from_complex(2, 2, lambda z1, z2: [z1 * z2, z1 + z2 * z2])
    families = (complex_family(1, 1, lambda t, z: [z * z + t * z * z * z]),
                complex_family(1, 1, lambda t, z: [z + t * z.conj()]),
                affine_family(real, _real_poly(_real_coefficients(rng, 4))))
    _, chart = _lift_test_maps()
    forms = (_mc_setup(rng)[0], LieValuedForm.constant([_skew(rng), _skew(rng)]))
    J1, J2 = canonical_structure(1), canonical_structure(2)

    def lifts(P):
        return [strictly_compatible_lift_r4(phi, P) for phi in (holo, chart)]

    return {
        "harmonicity_residual": (6, lambda P: [harmonicity_residual(m, P) for m in (cf, bad)]),
        "hwc_residual": (6, lambda P: [r for m in (cf, bad) for r in hwc_residual(m, P)]),
        "harmonic_morphism_residual": (6, lambda P: list(harmonic_morphism_residual(bad, P))),
        "pullback_harmonic_oracle": (6, lambda P: [pullback_harmonic_oracle(m, g, P)
                                                   for m in (cf, bad)
                                                   for g in ([0.0, 1.0], [0.5, 0.0, 0.0, 1.0])]),
        "verify_horizontality": (6, lambda P: [verify_horizontality(d, P) for d in (good, xi_mu)]),
        "verify_chart_holomorphy": (6, lambda P: [verify_chart_holomorphy(d, P)
                                                  for d in (good, conj_h)]),
        "one_one_geodesic_residual": (6, lambda P: [one_one_geodesic_residual(m, P)
                                                    for m in (cf, bad)]),
        "real_isotropy_residual": (2, lambda P: [real_isotropy_residual(m, P, 3)
                                                 for m in surface]),
        "real_isotropy_residuals": (2, lambda P: [r for m in surface
                                                  for r in real_isotropy_residuals(m, P, 3)]),
        "pluriconformality_residual": (4, lambda P: [pluriconformality_residual(m, P)
                                                     for m in (pc, holo2)]),
        "conformality_residual": (2, lambda P: [conformality_residual(m, P) for m in surface]),
        "weak_conformality": (2, lambda P: [r for m in surface + (const,)
                                            for r in weak_conformality(m, P)]),
        "umbilic_residual": (2, lambda P: [umbilic_residual(m, P) for m in surface + (const,)]),
        "holomorphy_residual": (2, lambda P: [
            holomorphy_residual(holo, J1, J2, P),
            holomorphy_residual(real, J1.matrix, J2.matrix, P),
            holomorphy_residual(holo, J1, _rotated_structures(P), P),
            holomorphy_residual(real, J1, _structure_list(P), P)]),
        "first_order_residual": (2, lambda P: [r for fam in families for R in (1, 3)
                                               for r in first_order_residual(fam, P, R)]),
        "j_vertical_residual": (2, lambda P: [j_vertical_residual(L, P, a)
                                              for L in lifts(P) for a in (1, 2)]),
        "t10_stability_residual": (2, lambda P: [t10_stability_residual(L, P, d)
                                                 for L in lifts(P) for d in ("z", "zbar")]),
        "flatness_residual": (2, lambda P: [flatness_residual(form, P) for form in forms]),
        "curvature_02_residual": (4, lambda P: [curvature_02_residual(g, 2, P) for g in
                                                (_curvature_fields, _antisymmetric_fields)]),
        "cp3_constraints_residual": (6, lambda P: [cp3_constraints_residual(d, P) for d in
                                                   (CP3_DATA[0], BROKEN_CP3)]),
        "cp3_linear_system_residual": (6, lambda P: [cp3_linear_system_residual(d, P)
                                                     for d in CP3_DATA]),
        "cp3_local_diffeo_check": (6, lambda P: [cp3_local_diffeo_check(d, P) for d in CP3_DATA]),
    }


CONTRACT = _contract_table()

# public checkers that take one point only, and why
ONE_POINT_ONLY = {
    "implicit_equation_residual": "a product of complex arrays differs from the product "
                                  "of complex scalars in the last bit",
    "mj_residual": "a residual of a matrix against a structure, not of a map at a point",
}


def _contract_points(dim, n, seed):
    if dim == 6:
        return np.array(admissible_points(n, seed=seed))
    return np.random.default_rng(seed).uniform(-0.9, 0.9, (n, dim))


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_checker_rows_match_points_bitwise(name, n):
    dim, residuals = CONTRACT[name]
    P = _contract_points(dim, n, seed=n)
    rows = residuals(P)
    ones = [residuals(p) for p in P]
    nonzero = 0
    for k, got in enumerate(rows):
        want = [one[k] for one in ones]
        # a float, not np.float64: perfbench's morphism blob formats repr()
        assert all(type(w) is float for w in want)
        assert got.shape == (n,) and _bits(got) == _bits(want)
        nonzero += np.count_nonzero(got)
    assert nonzero > 0


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_checkers_give_no_residuals_for_an_empty_batch(name):
    dim, residuals = CONTRACT[name]
    for got in residuals(np.empty((0, dim))):
        assert got.shape == (0,)


@pytest.mark.parametrize("n", [0, 1, 3, 7])
@pytest.mark.parametrize("fn", [cp3_point, cp3_affine_jacobian])
def test_cp3_point_and_jacobian_rows_match_points_bitwise(fn, n):
    P = _contract_points(6, n, seed=n) if n else np.empty((0, 6))
    for data in CP3_DATA:
        rows = fn(data, P)
        ones = [fn(data, p) for p in P]
        shape = (4,) if fn is cp3_point else (6, 6)
        assert rows.shape == (n,) + shape
        assert all(one.shape == shape for one in ones)
        assert _bits(rows) == _bits(np.array(ones).reshape(rows.shape))


def test_every_public_checker_is_in_the_contract_table_or_one_point_only():
    public = {name for name in dir(twistorkit)
              if name.endswith(("_residual", "_residuals")) or name.startswith("verify_")
              or name in ("weak_conformality", "pullback_harmonic_oracle")}
    assert public <= set(CONTRACT) | set(ONE_POINT_ONLY)
    assert not set(CONTRACT) & set(ONE_POINT_ONLY)


def test_holomorphy_residual_reads_the_size_of_a_structure_from_its_last_axis():
    # two 4 x 4 matrices for a map to R^2: the first axis is the row count
    with pytest.raises(JetError, match="structure dimensions"):
        holomorphy_residual(Z_CUBED, canonical_structure(1), np.zeros((2, 4, 4)),
                            np.zeros((2, 2)))


def test_data_checkers_reject_an_empty_list_of_points():
    # an empty list is no (0, 6) batch; it used to pass with nothing checked
    for verify in (verify_horizontality, verify_chart_holomorphy):
        with pytest.raises(JetError, match="point dimension 0"):
            verify(euclid_r6_data(), [])


# ---------------------------------------------------------------------------
# argument validation: each bad call raises its named error


def _chart_lift():
    return strictly_compatible_lift_r4(_lift_test_maps()[1], [0.1, 0.2])


def _order_2_vars():
    return JetSpace([0.1, 0.2], 2).vars()


BAD_ARGUMENTS = {
    "umbilic_residual": (lambda: umbilic_residual(closed_form_r6(), np.zeros(6)),
                         JetError, "umbilic_residual needs a 2-dimensional domain"),
    "pullback_harmonic_oracle": (lambda: pullback_harmonic_oracle(NONHOLO, [0, 1.0], [0.1, 0.2]),
                                 JetError, "pullback oracle needs codomain C"),
    "Jet.truncated": (lambda: _order_2_vars()[0].truncated(3),
                      JetError, "cannot raise jet order 2 -> 3"),
    "Jet.partial": (lambda: JetSpace([0.1, 0.2], 0).vars()[0].partial(0),
                    JetError, "cannot differentiate an order-0 jet"),
    "JetSpace": (lambda: JetSpace(np.zeros((2, 2, 2)), 1),
                 JetError, "a batch of base points is an [(]N, nvars[)] array"),
    "stack": (lambda: stack([]), JetError, "no jets to stack"),
    "dz_power": (lambda: dz_power(Z_CUBED, 0, [0.1, 0.2]), JetError, "dz_power needs r >= 1"),
    "Jet.__matmul__": (lambda: stack(_order_2_vars()) @ [[1.0, 0.0], [0.0, 1.0]],
                       TypeError, "unsupported operand type[(]s[)] for @: 'Jet' and 'list'"),
    "strictly_compatible_lift_r4": (lambda: strictly_compatible_lift_r4(Z_CUBED, [0.1, 0.2]),
                                    LiftError, "built for maps R\\^2 -> R\\^4"),
    "j_vertical_residual": (lambda: j_vertical_residual(_chart_lift(), [0.1, 0.2], 3),
                            LiftError, "a must be 1 or 2"),
    "t10_stability_residual": (lambda: t10_stability_residual(_chart_lift(), [0.1, 0.2], "w"),
                               LiftError, "direction must be 'z' or 'zbar'"),
    "IsotropicSubspace": (lambda: IsotropicSubspace(np.eye(3)),
                          StructureError, "basis must be k x 2k"),
    "canonical_structure": (lambda: canonical_structure(0), StructureError, "k must be >= 1"),
    "mu_matrix": (lambda: mu_matrix([1.0, 2.0], 3),
                  StructureError, "mu must have length k[(]k-1[)]/2 = 3"),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise_the_named_error(name):
    call, error, message = BAD_ARGUMENTS[name]
    with pytest.raises(error, match=message):
        call()

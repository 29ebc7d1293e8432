"""Strictly compatible lifts and the vertical/stability residuals."""

import itertools
import re
import warnings

import numpy as np
import pytest

from twistorkit.checkers import (
    harmonicity_residual,
    holomorphy_residual,
    real_isotropy_residual,
)
from twistorkit.jets import Jet, JetSpace, SmoothMap, dz, gradient, stack, values
from twistorkit.lifts import (
    LiftError,
    TwistorLift,
    _project_out,
    _umbilic,
    _unit,
    j_vertical_residual,
    strictly_compatible_lift_r4,
    t10_stability_residual,
    vertical_part,
)
from twistorkit.structures import (
    StructureError,
    canonical_structure,
    is_positive,
    mj_residual,
    structure_from_mu,
)

from jet_objects import const_objects, objects

RNG = np.random.default_rng(515)

HOLO = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])


def chart_disk_map():
    """Projection of the holomorphic chart disk (w, mu)(t) = ((t, t^2), t):
    real isotropic and horizontally nontrivial but not harmonic."""

    def fn(t):
        w1, w2, mu = t, t * t, t
        den = 1 + mu * mu.conj()
        return [(w1 + mu * w2.conj()) / den, (w2 - mu * w1.conj()) / den]

    return SmoothMap.from_complex(1, 2, fn)


def test_lift_of_holomorphic_graph():
    for _ in range(20):
        p = RNG.uniform(-0.9, 0.9, 2)
        L = strictly_compatible_lift_r4(HOLO, p)
        assert L.sign == +1 and not L.both_signs_valid
        J = L.structure(p)
        assert np.allclose(J.matrix, canonical_structure(2).matrix, atol=1e-12)
        assert holomorphy_residual(HOLO, canonical_structure(1), J, p) <= 1e-10
        # the (1,0)-space contains both derivative vectors
        from twistorkit.jets import dz_power
        from twistorkit.structures import to_isotropic

        F = to_isotropic(J).basis
        for r in (1, 2):
            v = dz_power(HOLO, r, p)
            stacked = np.vstack([F, v])
            assert np.linalg.matrix_rank(stacked, tol=1e-8) == 2


def test_lift_vertical_conditions_on_holomorphic_graph():
    for _ in range(10):
        p = RNG.uniform(-0.9, 0.9, 2)
        L = strictly_compatible_lift_r4(HOLO, p)
        assert j_vertical_residual(L, p, 2) <= 1e-9   # harmonic side
        assert j_vertical_residual(L, p, 1) <= 1e-9   # isotropic side
        assert t10_stability_residual(L, p, "z") <= 1e-9
        assert t10_stability_residual(L, p, "zbar") <= 1e-9


def test_lift_of_chart_disk_matches_chart_structure():
    phi = chart_disk_map()
    for _ in range(10):
        p = RNG.uniform(-0.9, 0.9, 2)
        t = complex(p[0], p[1])
        assert real_isotropy_residual(phi, t, 4) <= 1e-12
        assert harmonicity_residual(phi, p) > 0.1
        L = strictly_compatible_lift_r4(phi, p)
        assert not L.both_signs_valid
        J = L.structure(p)
        Jmu = structure_from_mu([t], 2)
        assert np.max(np.abs(J.matrix - Jmu.matrix)) < 1e-10
        # isotropy side holds, harmonic side fails
        assert j_vertical_residual(L, p, 1) <= 1e-9
        assert t10_stability_residual(L, p, "z") <= 1e-9
        assert j_vertical_residual(L, p, 2) > 0.05
        assert t10_stability_residual(L, p, "zbar") > 0.05


def test_projection_theorems_desk_scale():
    """Lifts passing the vertical conditions project to maps with the
    matching property, across the corpus."""
    corpus = [HOLO, chart_disk_map()]
    tol = 1e-9
    for phi in corpus:
        for _ in range(10):
            p = RNG.uniform(-0.9, 0.9, 2)
            L = strictly_compatible_lift_r4(phi, p)
            holo_res = holomorphy_residual(phi, canonical_structure(1), L.structure(p), p)
            if j_vertical_residual(L, p, 2) <= tol and holo_res <= tol:
                assert harmonicity_residual(phi, p) <= 10 * tol
            if (j_vertical_residual(L, p, 1) <= tol
                    and t10_stability_residual(L, p, "z") <= tol):
                t = complex(p[0], p[1])
                assert real_isotropy_residual(phi, t, 4) <= 10 * tol


def test_vertical_part_lands_in_vertical_space():
    phi = chart_disk_map()
    for _ in range(10):
        p = RNG.uniform(-0.9, 0.9, 2)
        L = strictly_compatible_lift_r4(phi, p)
        X = RNG.normal(size=2)
        vp = vertical_part(L, p, X)
        assert mj_residual(vp, L.structure(p)) <= 1e-8
    # the disk's structure genuinely varies: some direction has a nonzero
    # vertical part (the holomorphic graph's lift is constant, so it is the
    # wrong carrier for this property)
    p = np.array([0.4, 0.3])
    L = strictly_compatible_lift_r4(phi, p)
    assert max(np.linalg.norm(vertical_part(L, p, X))
               for X in ([1.0, 0.0], [0.0, 1.0])) > 1e-3
    J0 = canonical_structure(2).matrix
    Lc = TwistorLift(phi, JetSpace([0.1, 0.2], 1).const(J0))
    assert np.max(np.abs(vertical_part(Lc, [0.1, 0.2], [1.0, 0.0]))) == 0.0


def test_vertical_part_of_rotated_field_is_commutator():
    # J(x, y) = R(x) J0 R(x)^T for a rotation in the (e1, e3)-plane
    J0 = canonical_structure(2).matrix
    A = np.zeros((4, 4))
    A[0, 2], A[2, 0] = -1.0, 1.0

    def field(space):
        x = space.var(0)
        e = (1j * x).exp()
        c, s = e.real, e.imag
        z = space.const(0.0)
        one = space.const(1.0)
        R = [[c, z, -s, z], [z, one, z, z], [s, z, c, z], [z, z, z, one]]
        RT = [[R[j][i] for j in range(4)] for i in range(4)]
        J0j = [[space.const(J0[i][j]) for j in range(4)] for i in range(4)]

        def mm(X, Y):
            return [[sum((X[i][k] * Y[k][j] for k in range(4)), space.const(0.0))
                     for j in range(4)] for i in range(4)]

        return mm(mm(R, J0j), RT)

    phi = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])
    p = np.array([0.4, -0.2])
    L = TwistorLift(phi, stack(field(JetSpace(p, 1))))
    vp = vertical_part(L, p, [1.0, 0.0])
    J = L.structure(p).matrix
    assert np.max(np.abs(vp - (A @ J - J @ A))) <= 1e-12
    assert mj_residual(vp, L.structure(p)) <= 1e-10
    # the twisted field fails both vertical conditions and stability
    assert j_vertical_residual(L, p, 1) > 0.1
    assert j_vertical_residual(L, p, 2) > 0.1
    assert t10_stability_residual(L, p, "z") > 0.01


def test_umbilic_branch_and_corrected_constant_structure():
    fold = SmoothMap.from_complex(
        1, 2, lambda z: [(z + z.conj()) * 0.5, (z - z.conj()) * 0.5])
    L = strictly_compatible_lift_r4(fold, np.array([0.1, 0.2]))
    assert L.both_signs_valid and L.sign == +1
    J = L.structure([0.1, 0.2]).matrix
    expected = np.zeros((4, 4))
    expected[3, 0], expected[0, 3] = 1, -1
    expected[2, 1], expected[1, 2] = 1, -1
    assert np.allclose(J, expected)
    assert holomorphy_residual(fold, canonical_structure(1), J, [0.1, 0.2]) <= 1e-12
    assert j_vertical_residual(L, [0.1, 0.2], 1) <= 1e-10


def test_umbilic_branch_both_signs_hold_isotropy_condition():
    # exp-diagonal map: second derivative proportional to the first
    emap = SmoothMap.from_complex(1, 2, lambda z: [z.exp(), z.exp()])
    p = np.array([0.2, 0.3])
    L = strictly_compatible_lift_r4(emap, p)
    assert L.both_signs_valid
    assert j_vertical_residual(L, p, 1) <= 1e-9


def test_umbilic_structure_jets_have_the_requested_order():
    fold = SmoothMap.from_complex(
        1, 2, lambda z: [(z + z.conj()) * 0.5, (z - z.conj()) * 0.5])
    p = np.array([0.1, 0.2])
    L = strictly_compatible_lift_r4(fold, p)
    assert L.both_signs_valid
    for order in (1, 0):
        assert {jet.order for jet in np.ravel(L.structure_jets(p, order))} == {order}


def _completed_frame_structure(phi, p):
    """The order-1 umbilic structure at a point completed from a chosen
    normal frame, the reference for A + *A: f3 and then f4 are the first
    coordinate directions with the largest component normal to the frame so
    far, and f4 is negated where det [f1 f2 f3 f4] < 0."""
    jets = phi.jets(p, 3)
    frame = [_unit(jets.partial(v).real).truncated(1) for v in (0, 1)]
    for _ in range(2):
        normal = [_project_out(e, frame) for e in JetSpace(p, 1).const(np.eye(4))]
        frame.append(_unit(max(normal, key=lambda c: (c @ c).value.real)))
    f1, f2, f3, f4 = frame
    if np.linalg.det(values(frame).real) < 0:
        f4 = -f4
    return stack(f2[:, None] * f1 - f1[:, None] * f2 + f4[:, None] * f3 - f3[:, None] * f4)


def _umbilic_test_maps(rng):
    """Conformal linear maps s Q[:, :2] with Q orthogonal of det +1 and -1,
    maps (g, a g) with g a cubic whose linear coefficient is 1, and the
    round sphere, which is umbilic everywhere, each with a point."""
    for k in range(40):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if (np.linalg.det(Q) > 0) != (k % 2 == 0):
            Q[:, 3] = -Q[:, 3]
        lin = rng.uniform(0.5, 2) * Q[:, :2]
        yield SmoothMap.from_real(2, 4, lambda x, y, lin=lin: [
            x * float(lin[i, 0]) + y * float(lin[i, 1]) for i in range(4)]), rng.uniform(-1, 1, 2)
    for _ in range(20):
        c = 0.3 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        a = complex(rng.normal(), rng.normal())

        def g(z, c=c):
            return complex(c[0]) + z * (1 + z * (complex(c[2]) + z * complex(c[3])))

        yield SmoothMap.from_complex(1, 2, lambda z, g=g, a=a: [g(z), g(z) * a]), \
            rng.uniform(-0.5, 0.5, 2)

    def sphere(x, y):
        den = 1 + x * x + y * y
        return [2 * x / den, 2 * y / den, (x * x + y * y - 1) / den, 0 * x]

    for _ in range(20):
        yield SmoothMap.from_real(2, 4, sphere), rng.uniform(-2, 2, 2)


def test_umbilic_structure_is_the_completion_of_a_chosen_normal_frame():
    for phi, p in _umbilic_test_maps(np.random.default_rng(29)):
        L = strictly_compatible_lift_r4(phi, p)
        assert L.both_signs_valid and L.sign == +1 and is_positive(L.structure(p))
        got, want = L.structure_jets(p, 1), _completed_frame_structure(phi, p)
        assert np.abs(values(got) - values(want)).max() <= 1e-14
        assert np.abs(gradient(got) - gradient(want)).max() <= 1e-14


def test_branch_point_and_isotropy_guards():
    const = SmoothMap.from_complex(1, 2, lambda z: [0 * z, 0 * z])
    with pytest.raises(LiftError):
        strictly_compatible_lift_r4(const, [0.0, 0.0])
    stretch = SmoothMap.from_complex(1, 2, lambda z: [z + 2 * z.conj(), 0 * z])
    with pytest.raises(LiftError):
        strictly_compatible_lift_r4(stretch, [0.1, 0.1])
    # conformal harmonic but with non-isotropic second derivative content
    def mini(z):
        G1 = z - z * z * z / 3
        G2 = 1j * (z + z * z * z / 3)
        G3 = z * z
        re = lambda w: (w + w.conj()) * 0.5
        return [re(G1) + 1j * re(G2), re(G3) + 0j * z]

    minimal = SmoothMap.from_complex(1, 2, mini)
    with pytest.raises(LiftError):
        strictly_compatible_lift_r4(minimal, [0.8, 0.5])


def sphere_fibre(count=64):
    """Fibonacci sample of the positive-structure fibre of R^4 (a 2-sphere
    in the quaternionic basis)."""
    J1 = canonical_structure(2).matrix
    J2 = np.zeros((4, 4))
    J2[2, 0], J2[0, 2] = 1, -1    # e1 -> e3
    J2[1, 3], J2[3, 1] = 1, -1    # e4 -> e2
    J3 = J1 @ J2
    golden = (1 + 5 ** 0.5) / 2
    out = []
    for i in range(count):
        zc = 1 - 2 * (i + 0.5) / count
        r = np.sqrt(1 - zc * zc)
        th = 2 * np.pi * i / golden
        a = np.array([r * np.cos(th), r * np.sin(th), zc])
        out.append(a[0] * J1 + a[1] * J2 + a[2] * J3)
    return out


def test_fibre_parametrization_is_valid():
    for J in sphere_fibre(16):
        assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12
        assert np.max(np.abs(J.T @ J - np.eye(4))) < 1e-12
        from twistorkit.structures import HermitianStructure

        assert is_positive(HermitianStructure(J))


def test_lift_structure_unique_on_fibre():
    """Brute-force sweep of the positive fibre: the constructed structure is
    the only one rendering the map holomorphic (up to the reported sign)."""
    phi = chart_disk_map()
    p = np.array([0.35, -0.55])
    L = strictly_compatible_lift_r4(phi, p)
    Jlift = L.structure(p).matrix
    best_other = np.inf
    for J in sphere_fibre(64):
        res = holomorphy_residual(phi, canonical_structure(1), J, p)
        dist = np.max(np.abs(J - Jlift))
        if dist > 0.5:
            best_other = min(best_other, res)
    assert holomorphy_residual(phi, canonical_structure(1), Jlift, p) <= 1e-10
    assert best_other > 1e-2


# ---------------------------------------------------------------------------
# lifts at an (N, 2) array of points

def _bits(x):
    return np.asarray(x).tobytes()


def _assert_batch_matches_points(phi, P, X):
    """Every read-off of the lift built at the rows of P equals, bit for bit,
    that of the lift built at each row alone."""
    L = strictly_compatible_lift_r4(phi, P)
    residuals = [lambda L, p: j_vertical_residual(L, p, 1),
                 lambda L, p: j_vertical_residual(L, p, 2),
                 lambda L, p: t10_stability_residual(L, p, "z"),
                 lambda L, p: t10_stability_residual(L, p, "zbar")]
    batched = [res(L, P) for res in residuals]
    vp = vertical_part(L, P, X)
    structures = L.structure(P).matrix
    assert structures.shape == vp.shape == (len(P), 4, 4)
    for r, p in enumerate(P):
        Lp = strictly_compatible_lift_r4(phi, p)
        assert L.sign[r] == Lp.sign and L.both_signs_valid[r] == Lp.both_signs_valid
        assert _bits(structures[r]) == _bits(Lp.structure(p).matrix)
        assert _bits(vp[r]) == _bits(vertical_part(Lp, p, X[r]))
        for res, column in zip(residuals, batched):
            assert _bits(column[r]) == _bits(res(Lp, p))
    return L


def test_batched_lift_residuals_match_points_bitwise():
    rng = np.random.default_rng(7)
    for phi in (HOLO, chart_disk_map()):
        P = rng.uniform(-0.9, 0.9, (12, 2))
        X = rng.normal(size=(12, 2))
        X[3, 0] = 0.0                             # a zero component contributes nothing
        _assert_batch_matches_points(phi, P, X)


def test_batch_mixing_umbilic_and_generic_points_matches_points_bitwise():
    # dz^2 of (z, z^3 / 3) vanishes at z = 0 only: the umbilic branch there
    phi = SmoothMap.from_complex(1, 2, lambda z: [z, z * z * z * (1 / 3)])
    P = np.array([[0.3, 0.2], [0.0, 0.0], [-0.5, 0.4], [0.0, 0.0], [0.1, -0.7]])
    L = _assert_batch_matches_points(phi, P, np.ones((5, 2)))
    assert list(L.both_signs_valid) == [False, True, False, True, False]
    # the round sphere (inverse stereographic projection into R^3 x 0) is
    # umbilic everywhere, and rows complete its normal frame from different
    # coordinate directions
    def sphere(x, y):
        den = 1 + x * x + y * y
        return [2 * x / den, 2 * y / den, (x * x + y * y - 1) / den, 0 * x]

    P = np.array([[0.2, 0.3], [-1.5, 0.2], [0.1, -2.0], [0.05, 0.02], [-0.3, -0.9]])
    L = _assert_batch_matches_points(SmoothMap.from_real(2, 4, sphere), P, np.ones((5, 2)))
    assert L.both_signs_valid.all()


def _counting(phi, calls):
    """phi with an evaluator that records the shape and order of each call."""
    def evaluator(point, order):
        calls.append((np.shape(point), order))
        return phi.evaluator(point, order)

    return SmoothMap(phi.domain_dim, phi.codomain_dim, evaluator)


# dz^2 of (z, z^3 / 3) vanishes at z = 0 only: the umbilic branch there
CUBIC = SmoothMap.from_complex(1, 2, lambda z: [z, z * z * z * (1 / 3)])
FOLD = SmoothMap.from_complex(1, 2, lambda z: [(z + z.conj()) * 0.5, (z - z.conj()) * 0.5])


@pytest.mark.parametrize("phi, P", [
    (chart_disk_map(), np.array([[0.3, 0.2], [-0.1, 0.5], [0.2, -0.4]])),
    (FOLD, np.array([0.1, 0.2])),
    (CUBIC, np.array([[0.3, 0.2], [0.0, 0.0], [-0.5, 0.4]])),
], ids=["generic-batch", "umbilic-point", "mixed-batch"])
def test_a_lift_and_its_residuals_at_its_points_evaluate_the_map_once(phi, P):
    calls = []
    L = strictly_compatible_lift_r4(_counting(phi, calls), P)
    _ = L.sign, L.structure(P), L.structure_jets(P, 1), vertical_part(L, P, [1.0, 0.5])
    for direction in ("z", "zbar"):
        t10_stability_residual(L, P, direction)
    for a in (1, 2):
        j_vertical_residual(L, P, a)
    assert calls == [(P.shape, 3)]


# dz^2 of (z, conj(z)^3 / 3) also vanishes at z = 0 only; at (0.3, 0.2) its
# strict lift is not the umbilic A + *A, as it is for the holomorphic CUBIC
CUBIC_BAR = SmoothMap.from_complex(1, 2, lambda z: [z, z.conj() * z.conj() * z.conj() * (1 / 3)])


@pytest.mark.parametrize("built, read", [
    # read at (0.3, 0.2), a lift built at 0 would keep the umbilic branch
    # (its a = 1 vertical residual would read 5.67 against 2.3e-15 for a
    # lift built there), and one built at (0.3, 0.2) would take, read at 0,
    # the square root of a jet with a zero constant term
    ([0.0, 0.0], [0.3, 0.2]),
    ([0.3, 0.2], [0.0, 0.0]),
    ([[0.3, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.2]]),
    ([[0.3, 0.2], [0.0, 0.0]], [0.3, 0.2]),
], ids=["umbilic-built", "generic-built", "batch-reordered", "batch-one-row"])
def test_a_lift_read_away_from_its_points_raises_lift_error(built, read):
    L = strictly_compatible_lift_r4(CUBIC_BAR, np.array(built))
    shapes = (re.escape(f"points of shape {np.shape(built)} ") + ".*"
              + re.escape(f"points of shape {np.shape(read)}") + "$")
    for read_at in (lambda p: L.structure(p), lambda p: L.structure_jets(p, 1),
                    lambda p: vertical_part(L, p, [1.0, 0.0]),
                    lambda p: j_vertical_residual(L, p, 1),
                    lambda p: t10_stability_residual(L, p, "z")):
        with pytest.raises(LiftError, match=shapes):
            read_at(np.array(read))


def test_a_lift_is_read_at_its_points_in_either_coordinates_up_to_order_one():
    P = np.array([[0.3, 0.2], [0.0, 0.0]])
    L = strictly_compatible_lift_r4(CUBIC, P)
    assert L.structure_jets((P[:, 0] + 1j * P[:, 1])[:, None], 1) is L.structure_jets(P, 1)
    assert L.structure_jets(P, 0).order == 0
    with pytest.raises(LiftError, match="got order 2 at points of shape"):
        L.structure_jets(P, 2)


@pytest.mark.parametrize("point, message", [
    ([np.nan, 0.1], "the base point is not finite"),
    ([0.1, np.inf], "the base point is not finite"),
    ([-np.inf, np.nan], "the base point is not finite"),
    ([[0.1, 0.2], [np.nan, 0.1]], "row 1: the base point is not finite"),
    ([[np.inf, 0.2], [0.0, 0.0]], "row 0: the base point is not finite"),
    # a row that fails alone before the first non-finite one comes first
    ([[0.1, 0.2], [0.0, 0.0], [np.nan, 0.1]],
     "row 1: branch point: dphi vanishes at the base point"),
], ids=["nan", "inf", "-inf-nan", "batch-nan", "batch-inf-first", "branch-row-first"])
def test_a_non_finite_base_point_raises_lift_error_naming_it(point, message):
    branch = SmoothMap.from_complex(1, 2, lambda z: [z * z, z * z * z])
    finite = []
    phi = SmoothMap(2, 4, lambda p, k: finite.append(np.isfinite(p).all())
                    or branch.evaluator(p, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LiftError) as info:
            strictly_compatible_lift_r4(phi, np.array(point))
    assert str(info.value) == message
    assert all(finite)  # the map is evaluated at no non-finite point


def test_stacked_unit_and_project_out_match_one_vector_calls_bitwise():
    for P in (np.array([0.3, 0.2]), np.random.default_rng(30).uniform(-0.8, 0.8, (10, 2))):
        jets = chart_disk_map().jets(P, 3)
        h = dz(dz(jets, 0), 0)
        tangent, normal = [jets.partial(0).real, jets.partial(1).real], [h.real, -h.imag]
        units = [_unit(v) for v in tangent]
        projected = [_project_out(v, units) for v in normal]
        for rows, want in ((_unit(stack(tangent)), units),
                           (_project_out(stack(normal), _unit(stack(tangent))), projected),
                           (_unit(stack(projected)), [_unit(v) for v in projected])):
            assert rows.shape == (2, 4)
            for r in range(2):
                assert rows[r].table is want[r].table
                assert _bits(rows[r].coef) == _bits(want[r].coef)


def test_batched_lift_names_the_failing_row():
    branch = SmoothMap.from_complex(1, 2, lambda z: [z * z, z * z * z])
    with pytest.raises(LiftError, match="row 1: branch point"):
        strictly_compatible_lift_r4(branch, np.array([[0.3, 0.1], [0.0, 0.0]]))
    stretch = SmoothMap.from_complex(1, 2, lambda z: [z + 2 * z.conj() * z * z, 0 * z])
    with pytest.raises(LiftError, match="row 2: map is not weakly conformal"):
        strictly_compatible_lift_r4(stretch, np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.1]]))
    L = strictly_compatible_lift_r4(HOLO, np.zeros((3, 2)) + 0.1)
    with pytest.raises(LiftError, match="built at 3 points"):
        L.structure_jets(np.zeros((2, 2)), 1)
    L = strictly_compatible_lift_r4(HOLO, np.array([0.1, 0.1]))
    with pytest.raises(LiftError, match="built at 1 points"):
        L.structure_jets(np.zeros((3, 2)) + 0.1, 1)


def test_nan_structure_derivative_gives_nan_t10_residual():
    J0 = canonical_structure(2).matrix

    def field(space):
        d = space.var(0)
        d.coef = d.coef * np.where(np.arange(d.coef.shape[-1]) == 0, 0.0, np.nan)
        # values unchanged, derivatives NaN
        return [[c + d for c in row] for row in const_objects(space, J0)]

    lift = TwistorLift(HOLO, stack(field(JetSpace([0.3, 0.2], 1))))
    for direction in ("z", "zbar"):
        assert np.isnan(t10_stability_residual(lift, [0.3, 0.2], direction))


# A conformal gradient at the base point, and the isotropic pair dz, dz^2.
CONFORMAL_GRAD = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex)


def test_nan_gradient_fails_the_weak_conformality_precondition():
    grad = CONFORMAL_GRAD.copy()
    grad[2, 1] = np.nan
    d1, d2 = np.array([1, 1j, 0, 0]), np.array([0, 0, 1, 1j])
    assert _umbilic(CONFORMAL_GRAD, d1, d2) is np.False_
    with pytest.raises(LiftError, match="not weakly conformal"):
        _umbilic(grad, d1, d2)


def test_nan_pairing_fails_the_isotropy_precondition():
    # d2 . d2 overflows to inf - inf = NaN while d1 . d2 stays 0: a running
    # max from the first pairing would keep 0 and pass
    y = 2e154
    d1, d2 = np.array([y, 1j * y, 0, 0]), np.array([0, 0, y, 1j * y])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.sum(d2 * d2)) and np.sum(d1 * d2) == 0
        with pytest.raises(LiftError, match="isotropic plane"):
            _umbilic(CONFORMAL_GRAD, d1, d2)


# Rows of _umbilic's inputs: (gradient, dz, dz^2) at a point.
D1, D2 = np.array([1, 1j, 0, 0]), np.array([0, 0, 1, 1j])
STRETCHED_GRAD = np.array([[2, 0], [0, 1], [0, 0], [0, 0]], dtype=complex)
UMBILIC_ROWS = {
    "generic": (CONFORMAL_GRAD, D1, D2),
    "umbilic": (CONFORMAL_GRAD, D1, 2 * D1),
    "branch": (0 * CONFORMAL_GRAD, D1, D2),
    "stretched": (STRETCHED_GRAD, D1, D2),
    "anisotropic": (CONFORMAL_GRAD, D1, np.array([0, 0, 1, 0])),
    # fails conformality and isotropy: a row's checks keep their order
    "stretched-anisotropic": (STRETCHED_GRAD, D1, np.array([0, 0, 1, 0])),
    # not finite, whether the SVD of the row alone would raise (NaN) or
    # give NaN (inf), and whether the isotropy pairings pass (inf) or not
    "nan": (CONFORMAL_GRAD, D1, np.array([0, 0, np.nan, 1j])),
    "inf": (CONFORMAL_GRAD, D1, np.array([np.inf, 0, 0, 0])),
    "inf-anisotropic": (CONFORMAL_GRAD, D1, np.array([0, 0, np.inf, 1j])),
    "-inf-dz": (CONFORMAL_GRAD, np.array([1, -np.inf, 0, 0]), D2),
    # fails the branch or conformality check first
    "branch-nan": (0 * CONFORMAL_GRAD, D1, np.array([0, 0, np.nan, 1j])),
    "stretched-inf": (STRETCHED_GRAD, D1, np.array([np.inf, 0, 0, 0])),
}
NON_FINITE = "dz and dz^2 are not finite at the base point"


def _umbilic_of(names):
    return _umbilic(*[np.array([UMBILIC_ROWS[n][i] for n in names]) for i in range(3)])


def _one_point_message(name):
    with pytest.raises(LiftError) as info:
        _umbilic(*UMBILIC_ROWS[name])
    assert not str(info.value).startswith("row")
    return str(info.value)


def test_batched_umbilic_names_the_first_failing_row_with_the_one_point_message():
    assert list(_umbilic_of(["generic", "umbilic", "generic"])) == [False, True, False]
    empty = strictly_compatible_lift_r4(HOLO, np.empty((0, 2)))
    assert empty.both_signs_valid.shape == empty.sign.shape == (0,)
    for bad in ("branch", "stretched", "anisotropic", "stretched-anisotropic"):
        message = _one_point_message(bad)
        for r in (0, 1, 3):
            names = ["generic", "umbilic", "generic"]
            names.insert(r, bad)
            # a later row that fails another check, or is not finite
            for later in ("branch", "anisotropic", "nan"):
                with pytest.raises(LiftError) as info:
                    _umbilic_of(names + [later])
                assert str(info.value) == f"row {r}: {message}"
    assert _one_point_message("stretched-anisotropic") == _one_point_message("stretched")


def test_a_non_finite_dz_or_dz2_row_raises_lift_error_naming_it():
    with np.errstate(invalid="ignore"):  # inf * 0 in the isotropy pairings
        for name in ("nan", "inf", "inf-anisotropic", "-inf-dz"):
            assert _one_point_message(name) == NON_FINITE
            for names in ([name], ["generic", name, "branch"], ["umbilic", "generic", name]):
                with pytest.raises(LiftError) as info:
                    _umbilic_of(names)
                assert str(info.value) == f"row {names.index(name)}: {NON_FINITE}"
        # the branch and conformality checks come first
        assert _one_point_message("branch-nan") == _one_point_message("branch")
        assert _one_point_message("stretched-inf") == _one_point_message("stretched")


def _umbilic_alone(name):
    """What _umbilic does at the row's point alone: its flag, or the
    message of the LiftError it raises."""
    try:
        return bool(_umbilic(*UMBILIC_ROWS[name]))
    except LiftError as exc:
        return str(exc)


def test_batched_umbilic_with_non_finite_rows_does_what_its_rows_do_alone():
    names = list(UMBILIC_ROWS)
    with np.errstate(invalid="ignore"):  # inf * 0 in the isotropy pairings
        alone = {name: _umbilic_alone(name) for name in names}
        for batch in itertools.product(names, repeat=3):
            first = next((r for r, name in enumerate(batch)
                          if alone[name] not in (True, False)), None)
            if first is None:
                assert list(_umbilic_of(batch)) == [alone[name] for name in batch]
                continue
            with pytest.raises(LiftError) as info:
                _umbilic_of(batch)
            assert str(info.value) == f"row {first}: {alone[batch[first]]}", batch


def _constant_objects(space, J):
    """The object array of constant jets of the matrix J at every point of
    a space, batched or not."""
    return objects(space.const(np.broadcast_to(J, space.base.shape[:-1] + J.shape)))


def _nan_row_lift(nan_x, P):
    """A lift at the points P whose structure is J0 + s x0 on every entry,
    with derivative s 0.5 at each point except NaN where x0 == nan_x; its
    values stay J0."""
    J0 = canonical_structure(2).matrix
    space = JetSpace(P, 1)
    d = space.var(0)
    slope = np.where(space.base[..., 0] == nan_x, np.nan, 0.5)[..., None]
    d.coef = d.coef * np.where(np.arange(d.coef.shape[-1]) == 0, 0.0, slope)
    return TwistorLift(HOLO, stack([[c + d for c in row] for row in _constant_objects(space, J0)]))


def test_a_nan_row_gives_nan_in_that_row_only():
    P = np.array([[0.3, 0.2], [0.1, -0.4], [-0.5, 0.6]])
    residuals = [lambda L, p: j_vertical_residual(L, p, 1),
                 lambda L, p: j_vertical_residual(L, p, 2),
                 lambda L, p: t10_stability_residual(L, p, "z"),
                 lambda L, p: t10_stability_residual(L, p, "zbar")]
    for res in residuals:
        got = res(_nan_row_lift(0.1, P), P)
        want = [res(_nan_row_lift(0.1, p), p) for p in P]
        assert np.isnan(got[1]) and np.isnan(want[1])
        assert type(want[0]) is float and want[0] > 0
        assert _bits(got[[0, 2]]) == _bits([want[0], want[2]])


def test_t10_residual_is_nan_in_a_row_whose_structure_is_not_finite():
    P = np.array([[0.3, 0.2], [0.1, -0.4], [-0.5, 0.6]])
    L = strictly_compatible_lift_r4(HOLO, P)
    for bad in (np.nan, np.inf):
        M = L.structure_jets(P, 1)
        M = Jet(M.table, M.base, M.coef.copy())
        M.coef[1, ..., 0] = bad
        for direction in ("z", "zbar"):
            with np.errstate(invalid="ignore"):
                got = t10_stability_residual(TwistorLift(HOLO, M), P, direction)
            assert np.isnan(got[1])
            for r in (0, 2):
                one = strictly_compatible_lift_r4(HOLO, P[r])
                assert _bits(got[r]) == _bits(t10_stability_residual(one, P[r], direction))


def test_batched_structures_are_validated_as_one_stack():
    J0 = canonical_structure(2).matrix

    def lift(P):
        space = JetSpace(P, 1)
        # the matrix of row 1 is 2 J0: J @ J = -4 I
        scale = space.const(np.where(space.base[..., 0] == 0.1, 2.0, 1.0))
        return TwistorLift(HOLO, stack([[c * scale for c in row]
                                        for row in _constant_objects(space, J0)]))

    P = np.array([[0.3, 0.2], [0.1, -0.4], [-0.5, 0.6]])
    with pytest.raises(StructureError, match=r"^matrix \[1\]: J @ J != -I"):
        lift(P).structure(P)
    structures = lift(P[[0, 2]]).structure(P[[0, 2]])
    assert _bits(structures.matrix) == _bits(np.stack([J0, J0]))
    with pytest.raises(StructureError, match=r"^J @ J != -I"):
        lift(P[1]).structure(P[1])

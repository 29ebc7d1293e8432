"""Morphism factory: data validation, Newton inversion, projective data."""

import warnings

import numpy as np
import pytest

from twistorkit.checkers import harmonic_morphism_residual
from twistorkit.factory import (
    CP3Data,
    EuclideanTwistorData,
    NewtonDivergenceError,
    NewtonRecord,
    SingularJacobianError,
    _check_conditioning,
    cp3_affine_jacobian,
    cp3_constraints_residual,
    cp3_example1_data,
    cp3_linear_system_residual,
    cp3_local_diffeo_check,
    cp3_morphism_data,
    cp3_point,
    euclid_r6_data,
    evaluate_morphism,
    implicit_equation_residual,
    invert_h,
    jacobian_min_sv,
    morphism_as_map,
    verify_chart_holomorphy,
    verify_horizontality,
)
from twistorkit.jets import (
    JetError,
    SmoothMap,
    gradient,
    invert_jet_map,
    real_to_complex_point,
    stack,
    values,
)

RNG = np.random.default_rng(31415)


def forward_samples(data, count, rng, guard=True):
    out = []
    while len(out) < count:
        zxi = rng.uniform(-0.8, 0.8, 6)
        q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
        qc = real_to_complex_point(q)
        if guard and abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        out.append((zxi, q, qc))
    return out


# ---------------------------------------------------------------------------
# Euclidean data

def test_horizontality():
    data = euclid_r6_data()
    pts = [RNG.uniform(-0.9, 0.9, 6) for _ in range(100)]
    assert np.max(verify_horizontality(data, pts)) == 0.0
    # broken data: mu depends on xi
    bad_mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [x1, 0 * z, 0 * z])
    bad = EuclideanTwistorData(n=1, p=2, h=data.h, mu=bad_mu)
    assert abs(verify_horizontality(bad, np.zeros(6)) - 0.5) < 1e-15


def test_chart_holomorphy():
    data = euclid_r6_data()
    pts = [RNG.uniform(-0.9, 0.9, 6) for _ in range(50)]
    assert np.max(verify_chart_holomorphy(data, pts)) <= 1e-10
    conj_h = SmoothMap.from_complex(
        3, 3, lambda z, x1, x2: [z.conj(), x1, x2])
    zero_mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [0 * z, 0 * z, 0 * z])
    bad = EuclideanTwistorData(n=1, p=2, h=conj_h, mu=zero_mu)
    assert abs(verify_chart_holomorphy(bad, np.zeros(6)) - 1.0) < 1e-14


def test_jacobian_min_sv():
    ident = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [z, x1, x2])
    assert abs(jacobian_min_sv(ident, np.zeros(6)) - 1.0) < 1e-14
    sq = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    assert jacobian_min_sv(sq, np.zeros(2)) <= 1e-14
    data = euclid_r6_data()
    assert jacobian_min_sv(data.h, np.zeros(6)) > 0.1


def test_jacobian_min_sv_is_nan_where_the_jacobian_is_not_finite():
    h = euclid_r6_data().h
    P = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 6))
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 in the jets
        for bad in (np.nan, np.inf, -np.inf):
            got = jacobian_min_sv(h, np.full(6, bad))
            assert type(got) is float and np.isnan(got)
            Q = P.copy()
            Q[2, 3] = bad
            batch = jacobian_min_sv(h, Q)
            assert np.isnan(batch[2])
            rows = [jacobian_min_sv(h, q) for q in Q[[0, 1, 3]]]
            assert batch[[0, 1, 3]].tobytes() == np.array(rows).tobytes()


def test_invert_h_roundtrip_and_convergence_log():
    data = euclid_r6_data()
    for zxi, q, _ in forward_samples(data, 10, np.random.default_rng(1)):
        rec = NewtonRecord()
        y = invert_h(data, q, zxi + 0.05, record=rec)
        val = np.array([j.value.real for j in data.h.jets(y, 0)])
        assert np.linalg.norm(val - q) <= 1e-12
        drops = [rec.residuals[i + 1] / max(rec.residuals[i], 1e-300)
                 for i in range(len(rec.residuals) - 2)]
        assert rec.converged
        assert all(d < 0.5 for d in drops)  # at least geometric, in fact quadratic


def test_invert_h_evaluates_h_once_per_iteration():
    data = euclid_r6_data()
    calls = []
    evaluator = data.h.evaluator

    def counted(point, order):
        calls.append(order)
        return evaluator(point, order)

    data.h = SmoothMap(6, 6, counted)
    zxi = np.array([0.2, -0.1, 0.3, 0.1, -0.2, 0.25])
    q = data.h(zxi)
    calls.clear()
    rec = NewtonRecord()
    invert_h(data, q, zxi + 0.05, record=rec)
    assert rec.converged and len(calls) == len(rec.residuals)


def test_invert_h_error_modes():
    ident = SmoothMap.from_complex(1, 1, lambda z: [z])
    sq_h = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    zero_mu0 = SmoothMap.from_complex(1, 0, lambda z: [])
    data_sq = EuclideanTwistorData(n=1, p=0, h=sq_h, mu=zero_mu0)
    with pytest.raises(SingularJacobianError, match=r"^Jacobian is singular or ill-conditioned "
                       r"at iterate \(singular values 0\.00e\+00 to 0\.00e\+00\)$"):
        invert_h(data_sq, np.array([0.5, 0.5]), np.zeros(2))
    bounded = SmoothMap.from_complex(1, 1, lambda z: [(1 + z * z).reciprocal()])
    data_far = EuclideanTwistorData(n=1, p=0, h=bounded, mu=zero_mu0)
    with pytest.raises((NewtonDivergenceError, SingularJacobianError)):
        invert_h(data_far, np.array([50.0, 0.0]), np.array([3.0, 0.0]))


def test_identity_data_morphism_is_projection():
    h = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [z, x1, x2])
    mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [0 * z, 0 * z, 0 * z])
    data = EuclideanTwistorData(n=1, p=2, h=h, mu=mu)
    q = RNG.uniform(-1, 1, 6)
    z = evaluate_morphism(data, q, seed_point=q)
    assert abs(z[0] - real_to_complex_point(q)[0]) <= 1e-12


def test_closed_form_reproduction_and_implicit_equation():
    data = euclid_r6_data()
    rng = np.random.default_rng(7)
    for zxi, q, qc in forward_samples(data, 50, rng):
        seed = zxi + rng.uniform(-0.05, 0.05, 6)
        z = evaluate_morphism(data, q, seed_point=seed)[0]
        zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
        assert abs(z - zcf) <= 1e-10
        assert implicit_equation_residual(z, qc) <= 1e-12
        # round trip against the sampled fibre coordinates
        assert abs(z - real_to_complex_point(zxi)[0]) <= 1e-10


def test_fibre_invariance():
    data = euclid_r6_data()
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.uniform(-0.6, 0.6, 2)
        vals = []
        for _ in range(10):
            zxi = np.concatenate([z, rng.uniform(-0.6, 0.6, 4)])
            q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
            qc = real_to_complex_point(q)
            if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
                continue
            vals.append(evaluate_morphism(data, q, seed_point=zxi + 0.01)[0])
        assert max(abs(v - vals[0]) for v in vals) <= 1e-10


def analytic_seed(q):
    """Chart-inverse seed for the f(z) = z data: exact up to rounding, so
    Newton only has to polish (it still solves h(y) = q on its own)."""
    qc = real_to_complex_point(q)
    z = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
    x1 = qc[0] - z * np.conj(qc[1])
    x2 = qc[1] + z * np.conj(qc[0])
    out = np.empty(6)
    out[0::2] = [z.real, x1.real, x2.real]
    out[1::2] = [z.imag, x1.imag, x2.imag]
    return out


def test_morphism_as_map_is_harmonic_morphism():
    data = euclid_r6_data()
    mm = morphism_as_map(data, seed_fn=analytic_seed)
    rng = np.random.default_rng(9)
    count = 0
    while count < 20:
        q = rng.uniform(-0.7, 0.7, 6)
        qc = real_to_complex_point(q)
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        count += 1
        harm, hwc = harmonic_morphism_residual(mm, q)
        assert harm <= 1e-6 and hwc <= 1e-6
        # agrees with the closed form
        zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
        val = mm(q)
        assert abs(complex(val[0], val[1]) - zcf) <= 1e-10


def _admissible_targets(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = rng.uniform(-0.7, 0.7, 6)
        qc = real_to_complex_point(q)
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) > 0.2:
            out.append(q)
    return out


def _count_solves(monkeypatch, fail_once_at=None):
    """The targets of every Newton solve the factory runs; the first solve
    at the point ``fail_once_at`` raises instead."""
    import twistorkit.factory as fa

    solves, solve = [], fa.invert_h
    pending = [fail_once_at] if fail_once_at is not None else []

    def counted(data, target_q, seed_point, record=None):
        solves.append(np.array(target_q))
        if pending and np.array_equal(target_q, pending[0]):
            pending.clear()
            raise NewtonDivergenceError("forced failure")
        return solve(data, target_q, seed_point, record)

    monkeypatch.setattr(fa, "invert_h", counted)
    return solves


def test_morphism_certifies_a_point_with_one_newton_solve(monkeypatch):
    data = euclid_r6_data()
    q = _admissible_targets(1, seed=4)[0]
    fresh = [harmonic_morphism_residual(morphism_as_map(data, analytic_seed), q),
             morphism_as_map(data, analytic_seed)(q)]
    solves = _count_solves(monkeypatch)
    phi = morphism_as_map(data, seed_fn=analytic_seed)
    residuals = harmonic_morphism_residual(phi, q)
    value = phi(q)
    assert len(solves) == 1
    # the kept preimage gives the results of a map that solves afresh
    assert np.array(residuals).tobytes() == np.array(fresh[0]).tobytes()
    assert value.tobytes() == fresh[1].tobytes()


def _analytic_seeds(point):
    """:func:`analytic_seed` of each row of an (N, 6) array, or of one point."""
    return np.apply_along_axis(analytic_seed, -1, point)


@pytest.mark.parametrize("count", [None, 4])
def test_morphism_residual_evaluates_h_once_at_order_2_after_the_newton_solve(count):
    data = euclid_r6_data()
    q = np.array(_admissible_targets(count or 1, seed=6))
    q = q if count else q[0]
    rec = NewtonRecord()
    y = invert_h(data, q, _analytic_seeds(q), record=rec)
    iterations = max(map(len, rec.residuals)) if count else len(rec.residuals)
    calls = []
    evaluator = data.h.evaluator
    data.h.evaluator = lambda point, order: (calls.append((point.tobytes(), order))
                                             or evaluator(point, order))
    phi = morphism_as_map(data, seed_fn=_analytic_seeds)
    harmonic_morphism_residual(phi, q)
    phi(q)
    # the solve's order-1 iterations, then the order-2 jets at the preimage
    # that both residuals read; the map's value is the kept preimage's
    assert [order for _, order in calls] == [1] * iterations + [2]
    assert calls[-1] == (y.tobytes(), 2)


def test_morphism_keeps_the_preimage_of_the_last_point_only(monkeypatch):
    data = euclid_r6_data()
    qa, qb = _admissible_targets(2, seed=5)
    solves = _count_solves(monkeypatch, fail_once_at=qb)
    phi = morphism_as_map(data, seed_fn=analytic_seed)
    phi.jets(qa, 2)
    phi.jacobian(qa)
    assert len(solves) == 1
    with pytest.raises(NewtonDivergenceError, match="forced failure"):
        phi(qb)
    assert len(solves) == 2
    value_b = phi(qb)  # the raising solve left nothing behind: solve again
    phi.jets(qb, 1)
    assert len(solves) == 3
    value_a = phi(qa)  # only the last point is kept
    assert len(solves) == 4
    assert [t.tobytes() for t in solves] == [x.tobytes() for x in (qa, qb, qb, qa)]
    for q, value in ((qa, value_a), (qb, value_b)):
        assert value.tobytes() == morphism_as_map(data, analytic_seed)(q).tobytes()


@pytest.mark.parametrize("f", [(0.0, 1.0), (0.0, 1.0, 0.5)])
def test_morphism_order_zero_is_the_series_inverse_value_bitwise(f):
    """The order-0 jets are y[:2n] + 0.0, bitwise the value of the order-1
    series inverse plus the preimage, G[:2n] + y[:2n], that they replace."""
    data = euclid_r6_data(f)
    phi = morphism_as_map(data, seed_fn=analytic_seed)
    for q in [np.zeros(6), *_admissible_targets(10, seed=6)]:
        y = invert_h(data, q, analytic_seed(q))
        want = invert_jet_map(data.h.jets(y, 1))[:2] + y[:2]
        got = phi.jets(q, 0)
        assert [j.order for j in got] == [0, 0]
        assert values(got).tobytes() == values(want).tobytes()


def test_nontrivial_f_still_valid_data():
    data = euclid_r6_data(f_coeffs=(0.0, 1.0, 0.5))  # f(z) = z + z^2/2... etc
    pts = [RNG.uniform(-0.5, 0.5, 6) for _ in range(20)]
    assert np.max(verify_horizontality(data, pts)) == 0.0
    assert np.max(verify_chart_holomorphy(data, pts)) <= 1e-10
    rng = np.random.default_rng(12)
    for zxi, q, _ in forward_samples(data, 10, rng, guard=False):
        z = evaluate_morphism(data, q, seed_point=zxi + 0.01)
        assert abs(z[0] - real_to_complex_point(zxi)[0]) <= 1e-10


# ---------------------------------------------------------------------------
# projective data

def dyadic(rng, n=6):
    return rng.integers(-16, 17, n) / 16.0


def test_cp3_constraints_exact_zero():
    rng = np.random.default_rng(2)
    d1, dm = cp3_example1_data(), cp3_morphism_data()
    for _ in range(50):
        assert cp3_constraints_residual(d1, dyadic(rng)) == 0.0
        assert cp3_constraints_residual(dm, dyadic(rng)) == 0.0


def test_cp3_constraints_detect_broken_data():
    broken = CP3Data(
        nz=2, nxi=1,
        alpha=lambda zs: zs[2] + zs[0],
        beta=lambda zs: zs[2] + zs[1],
        gamma=lambda zs: zs[2] ** 3,
        delta=lambda zs: zs[2] * zs[2] + zs[1],
        w=lambda zs: 2 * zs[2],
    )
    assert cp3_constraints_residual(broken, np.full(6, 0.5)) > 0.1


def test_cp3_point_formulas():
    d1 = cp3_example1_data()
    assert np.allclose(cp3_point(d1, np.zeros(6)), [0, 0, 1, 0])
    dm = cp3_morphism_data()
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-0.9, 0.9, 2)
        pt = np.concatenate([z, np.zeros(4)])
        x = cp3_point(dm, pt)
        w = complex(z[0], z[1])  # P(z) = z
        assert np.allclose(x, [0, 0, 1, w])
    zeros = CP3Data(nz=1, nxi=2, alpha=lambda zs: 0 * zs[0], beta=lambda zs: 0 * zs[0],
                    gamma=lambda zs: 0 * zs[0], delta=lambda zs: 0 * zs[0],
                    w=lambda zs: 0 * zs[0])
    assert np.allclose(cp3_point(zeros, np.zeros(6)), [0, 0, 1, 0])


def test_cp3_linear_system_consistency():
    rng = np.random.default_rng(4)
    for data in (cp3_example1_data(), cp3_morphism_data()):
        for _ in range(30):
            assert cp3_linear_system_residual(data, rng.uniform(-1, 1, 6)) <= 1e-12


def test_cp3_local_diffeo():
    assert cp3_local_diffeo_check(cp3_example1_data(), np.zeros(6)) > 1e-3
    assert cp3_local_diffeo_check(cp3_morphism_data(), np.zeros(6)) > 0.5
    degenerate = cp3_morphism_data(P=(0.0, 0.0))  # p = 0 breaks the assumption
    assert cp3_local_diffeo_check(degenerate, np.zeros(6)) <= 1e-12


def test_cp3_jacobian_pattern():
    for p, q, r in [(1.0, 1.0, 1.0), (2.0, 3.0, 5.0)]:
        data = cp3_morphism_data(P=(0, p), Q=(0, q), R=(0, r))
        D = cp3_affine_jacobian(data, np.zeros(6))
        expected = np.zeros((6, 6))
        expected[0, 2] = -q
        expected[1, 3] = q
        expected[2, 5] = r
        expected[3, 4] = r
        expected[4, 0] = p
        expected[5, 1] = p
        assert np.max(np.abs(D - expected)) <= 1e-12
        assert abs(np.linalg.det(D)) > 1e-9
        # permutation pattern: one entry per row and column
        nz = np.abs(D) > 1e-12
        assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)


def test_cp3_chart_error_names_the_row_where_x3_vanishes():
    # alpha = z, gamma = 1, w = 2 and beta = delta = 0: x3 = 2 - 2 z, 0 at z = 1
    data = CP3Data(nz=1, nxi=2, alpha=lambda zs: zs[0], beta=lambda zs: 0 * zs[0],
                   gamma=lambda zs: 0 * zs[0] + 1, delta=lambda zs: 0 * zs[0],
                   w=lambda zs: 0 * zs[0] + 2)
    P = np.zeros((3, 6))
    P[1:, 0] = 1.0
    assert cp3_point(data, P)[1, 2] == 0
    with pytest.raises(JetError, match=r"^row 1: affine chart invalid: x3 vanishes"):
        cp3_affine_jacobian(data, P)
    with pytest.raises(JetError, match=r"^affine chart invalid: x3 vanishes"):
        cp3_local_diffeo_check(data, P[1])
    assert cp3_local_diffeo_check(data, P[:1]).shape == (1,)


def _affine_chart(data, pt):
    """The real coordinates of (x1/x3, x2/x3, x4/x3) from cp3_point."""
    x1, x2, x3, x4 = cp3_point(data, pt)
    return np.array([c for w in (x1 / x3, x2 / x3, x4 / x3) for c in (w.real, w.imag)])


@pytest.mark.parametrize("data", [
    cp3_example1_data(),
    cp3_morphism_data(P=(0.2, 1, 0.3), Q=(0.1, 1, -0.2), R=(0, 1, 0.5)),
], ids=["example1", "morphism"])
def test_cp3_affine_jacobian_matches_central_differences(data):
    # away from the origin, where b and d do not vanish, so every term of x3
    # has a first derivative
    rng, h = np.random.default_rng(5), 1e-6
    for _ in range(5):
        pt = rng.uniform(-1, 1, 6)
        fd = np.column_stack([(_affine_chart(data, pt + h * e) - _affine_chart(data, pt - h * e))
                              / (2 * h) for e in np.eye(6)])
        D = cp3_affine_jacobian(data, pt)
        assert np.max(np.abs(D - fd)) <= 1e-8 * np.max(np.abs(D))


# ---------------------------------------------------------------------------
# batched Newton inversion

def _newton_batch(data, seed, count, spread=0.2):
    """``count`` forward-sampled targets with Newton starts at distances up to
    ``spread``, so that rows need different iteration counts."""
    rng = np.random.default_rng(seed)
    targets, starts = [], []
    for zxi, q, _ in forward_samples(data, count, rng, guard=False):
        targets.append(q)
        starts.append(zxi + rng.uniform(-spread, spread, 6))
    return np.array(targets), np.array(starts)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_invert_h_rows_match_one_point_solves_bitwise(seed):
    data = euclid_r6_data((0.0, 1.0, 0.5))
    targets, starts = _newton_batch(data, seed, 40)
    rec = NewtonRecord()
    rows = invert_h(data, targets, starts, record=rec)
    one_recs = [NewtonRecord() for _ in targets]
    ones = np.array([invert_h(data, q, s, record=r)
                     for q, s, r in zip(targets, starts, one_recs)])
    assert rows.shape == targets.shape
    assert rows.tobytes() == ones.tobytes()
    assert rec.residuals == [r.residuals for r in one_recs]
    assert len({len(r.residuals) for r in one_recs}) > 1  # rows stop at different iterations
    z = evaluate_morphism(data, targets, seed_point=starts)
    assert z.shape == (len(targets), 1)
    assert z.tobytes() == np.array([evaluate_morphism(data, q, seed_point=s)
                                    for q, s in zip(targets, starts)]).tobytes()


def test_batched_invert_h_evaluates_h_once_per_iteration():
    data = euclid_r6_data()
    targets, starts = _newton_batch(data, 4, 25)
    calls = []
    evaluator = data.h.evaluator

    def counted(point, order):
        calls.append(point.shape)
        return evaluator(point, order)

    data.h = SmoothMap(6, 6, counted)
    rec = NewtonRecord()
    invert_h(data, targets, starts, record=rec)
    lengths = [len(r) for r in rec.residuals]
    assert rec.converged and len(calls) == max(lengths)
    # each call holds the rows still moving
    assert [shape[0] for shape in calls] == [sum(n > i for n in lengths)
                                            for i in range(max(lengths))]


def test_batched_invert_h_names_the_singular_row():
    sq_h = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    zero_mu0 = SmoothMap.from_complex(1, 0, lambda z: [])
    data_sq = EuclideanTwistorData(n=1, p=0, h=sq_h, mu=zero_mu0)
    targets = np.array([[0.25, 0.0], [0.5, 0.5], [0.0, 0.36]])
    starts = np.array([[0.4, 0.1], [0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(SingularJacobianError, match=r"^row 1: Jacobian is singular or "
                       r"ill-conditioned at iterate \(singular values 0\.00e\+00 to 0\.00e\+00\)"):
        invert_h(data_sq, targets, starts)
    bounded = SmoothMap.from_complex(1, 1, lambda z: [(1 + z * z).reciprocal()])
    data_far = EuclideanTwistorData(n=1, p=0, h=bounded, mu=zero_mu0)
    targets = np.array([[0.5, 0.0], [50.0, 0.0]])
    starts = np.array([[1.0, 0.0], [3.0, 0.0]])
    with pytest.raises((NewtonDivergenceError, SingularJacobianError), match="^row 1: "):
        invert_h(data_far, targets, starts)


def test_newton_divergence_names_the_row_of_a_batch(monkeypatch):
    import twistorkit.factory as fa

    data = euclid_r6_data()
    targets, starts = _newton_batch(data, 7, 2, spread=0.05)
    monkeypatch.setattr(fa, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonDivergenceError, match="^no convergence after 1 iterations"):
        invert_h(data, targets[0], starts[0])
    # row 0 starts at its preimage and leaves after its polishing step; row 1
    # cannot reach the target and take one more step within two iterations
    exact = forward_samples(data, 1, np.random.default_rng(8), guard=False)[0]
    targets[0], starts[0] = exact[1], exact[0]
    monkeypatch.setattr(fa, "NEWTON_MAX_ITER", 2)
    rec = NewtonRecord()
    with pytest.raises(NewtonDivergenceError,
                       match=r"^row 1: no convergence after 2 iterations \(last residual"):
        invert_h(data, targets, starts, record=rec)
    assert [len(r) for r in rec.residuals] == [2, 2] and rec.residuals[0][-1] <= 1e-12


def test_newton_record_of_one_point_is_flat_and_of_a_batch_per_row():
    data = euclid_r6_data()
    targets, starts = _newton_batch(data, 5, 3)
    rec = NewtonRecord()
    invert_h(data, targets[0], starts[0], record=rec)
    assert rec.converged and all(isinstance(r, float) for r in rec.residuals)
    batch = NewtonRecord()
    invert_h(data, targets, starts, record=batch)
    assert batch.converged and len(batch.residuals) == 3
    assert batch.residuals[0] == rec.residuals
    assert not NewtonRecord([[1e-13], [1e-3]]).converged


def test_invert_h_broadcasts_and_takes_an_empty_batch():
    data = euclid_r6_data()
    targets, starts = _newton_batch(data, 6, 4, spread=0.05)
    grid = invert_h(data, targets.reshape(2, 2, 6), starts.reshape(2, 2, 6))
    assert grid.tobytes() == invert_h(data, targets, starts).tobytes()
    near = starts[0] + np.array([[0.0], [0.01], [-0.01], [0.02]])
    shared = invert_h(data, targets[0], near)  # one target for every row
    assert shared.tobytes() == np.array([invert_h(data, targets[0], s)
                                         for s in near]).tobytes()
    calls = []
    data.h = SmoothMap(6, 6, lambda point, order: calls.append(point))
    assert invert_h(data, np.zeros((0, 6)), np.zeros(6)).shape == (0, 6)
    assert calls == []


def test_nan_data_gives_nan_validation_residuals():
    nan = float("nan")
    data = euclid_r6_data()
    nan_mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [z, 0 * z, x2 * nan])
    assert np.isnan(verify_horizontality(EuclideanTwistorData(1, 2, data.h, nan_mu),
                                         np.zeros(6)))
    nan_h = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [z, x1, x2 + x1.conj() * nan])
    zero_mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [0 * z, 0 * z, 0 * z])
    assert np.isnan(verify_chart_holomorphy(EuclideanTwistorData(1, 2, nan_h, zero_mu),
                                            np.zeros(6)))
    cp3 = cp3_example1_data()
    cp3.delta = lambda zs: zs[2] * zs[2] * nan + zs[1]
    assert np.isnan(cp3_constraints_residual(cp3, np.full(6, 0.25)))


def _with_singular_values(rng, sv):
    """U diag(sv) V^T, or a stack of them for an (N, K) ``sv``, with U and V
    seeded random orthogonal."""
    K = sv.shape[-1]
    u, _ = np.linalg.qr(rng.normal(size=sv.shape[:-1] + (K, K)))
    v, _ = np.linalg.qr(rng.normal(size=sv.shape[:-1] + (K, K)))
    return (u * sv[..., None, :]) @ np.swapaxes(v, -1, -2)


@pytest.fixture
def svd_calls(monkeypatch):
    """The stacks that reach ``np.linalg.svd``, one per call."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.copy()) or svd(a, **kw))
    return calls


def test_conditioning_bound_clears_no_matrix_the_svd_rule_fails(svd_calls):
    # each matrix alone, as one point: where the |det|/Frobenius bound
    # clears it the SVD is never called, and the rule must hold anyway
    rng = np.random.default_rng(32)
    mats = [D for K in (2, 4, 6) for D in _with_singular_values(
        rng, 10.0 ** rng.uniform(-13, 0, (4000, K)) * 10.0 ** rng.uniform(-6, 6, (4000, 1)))]
    # and 2 x 2 matrices near the rule's threshold, where the bound is tightest
    near = np.stack([np.ones(1000), 10.0 ** rng.uniform(-10.5, -9, 1000)], axis=-1)
    mats += list(_with_singular_values(rng, near * 10.0 ** rng.uniform(-3, 3, (1000, 1))))
    edge = [np.ones((4, 4)), np.zeros((6, 6)), 1e80 * _with_singular_values(rng, np.ones(6)),
            1e80 * _with_singular_values(rng, np.ones(2)), np.full((3, 3), 1e80)]
    cleared, failing = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in det or the bound stays silent
        for D in mats + edge:
            sv = np.linalg.svd(D, compute_uv=False)
            failing.append(bool(sv[-1] < 1e-10 * max(1.0, sv[0])))
            svd_calls.clear()
            try:
                _check_conditioning(D, [0], True)
                raised = False
            except SingularJacobianError:
                raised = True
            cleared.append(not svd_calls)
            assert raised == failing[-1]  # the SVD's decision, for every matrix
    assert not any(c and f for c, f in zip(cleared, failing))
    assert 0 < sum(failing) and 0 < sum(cleared) < len(cleared)
    # exact-singular, zero and overflowing matrices go to the SVD
    assert cleared[-5:] == [False, False, False, True, False]
    assert failing[-5:] == [True, True, False, False, True]


def test_conditioning_guard_sends_only_uncleared_rows_to_the_svd(svd_calls):
    rng = np.random.default_rng(33)
    good = [_with_singular_values(rng, rng.uniform(0.5, 2.0, 6)) for _ in range(3)]
    sv = np.ones(6)
    sv[-1] = 0.5e-10
    bad = _with_singular_values(rng, sv)
    sv[-1] = 2e-10
    fine = _with_singular_values(rng, sv)
    message = (r"Jacobian is singular or ill-conditioned at iterate "
               r"\(singular values 5\.00e-11 to 1\.00e\+00\)$")
    # every row clears: no SVD call, not even of an empty stack
    _check_conditioning(np.array(good), [3, 5, 8], False)
    _check_conditioning(good[0], [0], True)
    assert svd_calls == []
    # the ill-conditioned row alone goes to the SVD, and its message names it
    with pytest.raises(SingularJacobianError, match=f"^row 5: {message}"):
        _check_conditioning(np.array([good[0], bad, good[1], good[2]]), [3, 5, 8, 9], False)
    assert len(svd_calls) == 1 and svd_calls[0].tobytes() == bad[None].tobytes()
    with pytest.raises(SingularJacobianError, match=f"^{message}"):
        _check_conditioning(bad, [0], True)
    # the first failing row in live order raises, after an uncleared row that passes
    svd_calls.clear()
    with pytest.raises(SingularJacobianError, match="^row 8: "):
        _check_conditioning(np.array([good[0], fine, bad, bad]), [3, 5, 8, 9], False)
    assert len(svd_calls) == 1 and len(svd_calls[0]) == 3
    # a row at 2e-10 does not clear the bound, and passes the rule
    svd_calls.clear()
    _check_conditioning(np.array([good[0], fine]), [0, 1], False)
    assert len(svd_calls) == 1 and svd_calls[0].tobytes() == fine[None].tobytes()


def test_newton_on_euclid_data_makes_no_svd_call(svd_calls):
    data = euclid_r6_data()
    targets, starts = _newton_batch(data, 4, 30)
    rows = invert_h(data, targets, starts)
    invert_h(data, targets[0], starts[0])
    assert svd_calls == [] and np.isfinite(rows).all()


def test_invert_h_rejects_non_finite_input_naming_the_row():
    data = euclid_r6_data()
    targets, starts = _newton_batch(data, 9, 3)
    for bad in (np.nan, np.inf, -np.inf):
        t, s = targets.copy(), starts.copy()
        t[1, 2], s[2, 0] = bad, bad
        with pytest.raises(JetError, match="^row 1: the target is not finite$"):
            invert_h(data, t, starts)
        with pytest.raises(JetError, match="^the target is not finite$"):
            evaluate_morphism(data, t[1], starts[1])
        with pytest.raises(JetError, match="^row 2: the seed is not finite$"):
            invert_h(data, targets, s)
        with pytest.raises(JetError, match="^the seed is not finite$"):
            invert_h(data, targets[2], s[2])
    # h's jets are not finite where Re z > 5: row 1 starts there
    evaluator = data.h.evaluator
    starts[1, 0] = 9.0
    for bad in (np.nan, np.inf):
        def poisoned(point, order, bad=bad):
            out = stack(evaluator(point, order))
            out.coef[point[..., 0] > 5] = bad
            return out

        data.h = SmoothMap(6, 6, poisoned)
        message = "Jacobian is not finite at iterate$"
        with pytest.raises(SingularJacobianError, match=f"^row 1: {message}"):
            invert_h(data, targets, starts)
        with pytest.raises(SingularJacobianError, match=f"^{message}"):
            invert_h(data, targets[1], starts[1])


@np.errstate(invalid="ignore")  # inf * 0 in the jets of an infinite point
def test_cp3_point_rejects_non_finite_coordinates_naming_the_row():
    data = cp3_example1_data()
    for bad in (np.nan, np.inf, -np.inf):
        P = np.full((3, 6), 0.25)
        P[2, 4] = bad
        with pytest.raises(JetError, match="^row 2: homogeneous coordinates not finite$"):
            cp3_point(data, P)
        with pytest.raises(JetError, match="^homogeneous coordinates not finite$"):
            cp3_local_diffeo_check(data, P[2])
        assert cp3_point(data, P[:2]).tobytes() == cp3_point(data, np.full((2, 6), 0.25)).tobytes()


def _one_point_newton_log(data, target, y):
    """Newton iterates of one point written with the 1-D np.linalg.norm;
    returns the preimage and the residual of each iterate."""
    log, polished = [], False
    while True:
        jets = data.h.jets(y, 1)
        val = values(jets).real
        log.append(float(np.linalg.norm(val - target)))
        if log[-1] <= 1e-12 and polished:
            return y, log
        polished = log[-1] <= 1e-12
        y = y - np.linalg.solve(gradient(jets).real, val - target)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_newton_residual_log_is_the_one_dimensional_norm_bitwise(seed):
    data = euclid_r6_data((0.0, 1.0, 0.5))
    targets, starts = _newton_batch(data, 10 + seed, 30)
    want = [_one_point_newton_log(data, q, s) for q, s in zip(targets, starts)]
    rec = NewtonRecord()
    rows = invert_h(data, targets, starts, record=rec)
    assert rec.residuals == [log for _, log in want]
    assert rows.tobytes() == np.array([y for y, _ in want]).tobytes()

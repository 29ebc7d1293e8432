"""Flat connection forms: flatness, product integration, curvature."""

import math
import re
import warnings

import numpy as np
import pytest

from twistorkit import connections
from twistorkit.connections import (
    BlowupError,
    GroupPath,
    LieValuedForm,
    PathError,
    _expm_pm,
    _jet_expm,
    curvature_02_residual,
    expm,
    flatness_residual,
    integrate_path,
    maurer_cartan_form,
    maurer_cartan_value,
    path_independence_defect,
)
from twistorkit.jets import JetSpace, gradient, stack, values

RNG = np.random.default_rng(808)


def random_skew(k, rng=RNG):
    A = rng.normal(size=(k, k))
    return A - A.T


def test_expm_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for scale in (0.1, 1.0, 10.0):
        for _ in range(5):
            A = scale * RNG.normal(size=(5, 5))
            ref = scipy_linalg.expm(A)
            err = np.linalg.norm(expm(A) - ref) / max(1.0, np.linalg.norm(ref))
            assert err <= 1e-12


def test_expm_stack_matches_per_matrix():
    # scales from 0.01 to 40: the stack mixes scaling counts s = 0 and s >= 3
    scales = np.array([0.01, 0.1, 1.0, 5.0, 40.0])[:, None, None]
    real = scales * RNG.normal(size=(5, 4, 4))
    cplx = real + 1j * scales * RNG.normal(size=(5, 4, 4))
    for stack in (real, cplx, np.stack([real, 2.0 * real])):
        E = expm(stack)
        assert E.shape == stack.shape and E.dtype == stack.dtype
        per_matrix = np.array([expm(X) for X in stack.reshape(-1, 4, 4)])
        assert np.array_equal(E.reshape(-1, 4, 4), per_matrix)
    norms = np.abs(real).sum(-2).max(-1)
    assert norms.min() <= 0.5 and norms.max() > 4.0  # s = 0 and s >= 3 both present


def test_expm_stack_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    stack = np.array([s * RNG.normal(size=(5, 5)) for s in (0.05, 1.0, 10.0, 30.0)])
    stack = stack + 0.5j * np.array([s * RNG.normal(size=(5, 5)) for s in (0.05, 1.0, 10.0, 30.0)])
    for X, E in zip(stack, expm(stack)):
        ref = scipy_linalg.expm(X)
        assert np.linalg.norm(E - ref) / max(1.0, np.linalg.norm(ref)) <= 1e-12
    assert np.array_equal(expm(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))
    # a matrix of the stacks of test_scaled_taylor_rows_are_one_matrix_results_bitwise
    rng = np.random.default_rng(13)
    X = 0.3 * rng.normal(size=(64, 4, 4))
    for Y in (X, X + 0.3j * rng.normal(size=(64, 4, 4))):
        assert np.linalg.norm(expm(Y[5]) - scipy_linalg.expm(Y[5])) <= 1e-14


def _stack_with_scaling_counts(rng, k, skew, cplx):
    """Seven k x k matrices, one per scaling count s = 0..6 of expm."""
    X = rng.normal(size=(7, k, k))
    if cplx:
        X = X + 1j * rng.normal(size=(7, k, k))
    if skew:
        X = X - np.swapaxes(X, -1, -2).conj()
    norms = np.abs(X).sum(-2).max(-1)
    target = np.array([0.4, 0.9, 1.8, 3.6, 7.2, 14.4, 28.8])  # 1-norms
    return X * (target / norms)[:, None, None]


@pytest.mark.parametrize("shape", [(2, 3), (3,), (), (5, 4, 3)])
def test_expm_of_a_shape_that_is_not_a_stack_of_square_matrices_names_it(shape):
    message = re.escape("expm needs a square matrix or a stack of square (..., n, n) "
                        f"matrices, got shape {shape}")
    for f in (expm, _expm_pm):
        with pytest.raises(ValueError, match=f"^{message}$"):
            f(np.zeros(shape))


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("skew", [False, True])
def test_expm_pair_is_bitwise_expm_of_both_signs(skew, cplx):
    X = _stack_with_scaling_counts(RNG, 4, skew, cplx)
    norms = np.abs(X).sum(-2).max(-1)
    assert np.array_equal(np.ceil(np.log2(np.fmax(norms / 0.5, 1.0))), np.arange(7))
    X = np.concatenate([X, np.zeros((1, 4, 4), dtype=X.dtype)])
    X[-1, 0, 0] = np.inf  # a non-finite norm
    with np.errstate(invalid="ignore"):
        E, Em = _expm_pm(X)
        ref, ref_m = expm(X), expm(-X)
    assert E.dtype == Em.dtype == X.dtype and E.shape == Em.shape == X.shape
    assert E.tobytes() == ref.tobytes() and Em.tobytes() == ref_m.tobytes()
    with np.errstate(invalid="ignore"):
        E2, Em2 = _expm_pm(X.reshape(2, 4, 4, 4))
    assert E2.shape == (2, 4, 4, 4) and Em2.tobytes() == Em.tobytes()


def test_expm_pair_of_one_matrix_empty_stack_and_nan_row():
    X = RNG.normal(size=(3, 3))
    E, Em = _expm_pm(X)
    assert E.shape == (3, 3)
    assert E.tobytes() == expm(X).tobytes() and Em.tobytes() == expm(-X).tobytes()
    E, Em = _expm_pm(np.zeros((0, 3, 3)))
    assert E.shape == Em.shape == (0, 3, 3)
    # expm(-X) carries the NaN of X with its sign bit flipped through the
    # Taylor arithmetic, the pair carries it unflipped: only the NaN bits of
    # that row may differ, and the other rows are bitwise.
    X = RNG.normal(size=(3, 3, 3))
    X[1, 0, 2] = np.nan
    with np.errstate(invalid="ignore"):
        E, Em = _expm_pm(X)
        ref, ref_m = expm(X), expm(-X)
    assert E.tobytes() == ref.tobytes()
    assert Em[[0, 2]].tobytes() == ref_m[[0, 2]].tobytes()
    assert np.isnan(Em[1]).all() and np.isnan(ref_m[1]).all()


@np.errstate(invalid="ignore")
def _term_by_term_scaled_taylor(A):
    """The even and odd parts of T_14(B) - I at the scaled matrices, each
    term c_k Y^j written out, with Y = B @ B, in the grouping
    (lower chunk) + Y^4 @ (upper chunk); an identity term c I is c added
    to the diagonal, and a matrix that is not finite scales to NaN."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    n = A.shape[-1]
    A3 = A.reshape(-1, n, n)
    norm = np.abs(A3).sum(-2).max(-1)
    s = np.ceil(np.log2(np.fmax(norm / 0.5, 1.0)))
    s = np.where(np.isfinite(s), s, 0).astype(int)
    B = np.where(np.isfinite(norm)[:, None, None], A3 / (2.0 ** s)[:, None, None], np.nan)
    c = [1.0 / math.factorial(k) for k in range(15)]
    Y = B @ B
    Y2 = Y @ Y
    Y3 = Y2 @ Y
    Y4 = Y2 @ Y2

    def plus(c0, S):
        S[:, range(n), range(n)] += c0
        return S

    Ev = Y4 @ plus(c[8], c[10] * Y + c[12] * Y2 + c[14] * Y3) + (c[2] * Y + c[4] * Y2 + c[6] * Y3)
    Od = Y4 @ plus(c[9], c[11] * Y + c[13] * Y2) + plus(c[1], c[3] * Y + c[5] * Y2 + c[7] * Y3)
    return Ev, B @ Od, s, A.shape


def _signed_and_non_finite_stacks(cplx):
    """Stacks at scaling counts 0..6, with -0.0 entries, with a NaN and an
    inf entry, a zero matrix, one 2-D matrix and an empty stack."""
    X = _stack_with_scaling_counts(RNG, 4, False, cplx)  # s = 0..6
    M = random_skew(4) + (1j * random_skew(4) if cplx else 0)
    # x M with x < 0 has -0.0 on the zero diagonal (and everywhere for -0.0)
    signed = np.array([-0.3, -0.0, -5.0])[:, None, None] * M
    assert np.signbit(signed.real[:, range(4), range(4)]).all()
    bad = np.array([X[0], X[3]])
    bad[0, 1, 2], bad[1, 0, 0] = np.nan, np.inf
    return [X, signed, np.zeros((1, 4, 4), dtype=X.dtype), bad, X[2], np.zeros((0, 3, 3))]


@pytest.mark.parametrize("cplx", [False, True])
def test_scaled_taylor_forms_each_term_once_bitwise(cplx):
    for A in _signed_and_non_finite_stacks(cplx):
        got, want = connections._scaled_taylor(A), _term_by_term_scaled_taylor(A)
        assert got[3] == want[3] == A.shape
        for g, w in zip(got[:3], want[:3]):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_taylor_parts_of_minus_a_are_the_even_part_and_the_odd_part_negated(cplx):
    # bit for bit, but for the sign of an exact zero of Od: a skew-Hermitian
    # stack has some, and -(+0.0) is -0.0 where the sum for -B gives +0.0
    X = np.concatenate([_stack_with_scaling_counts(RNG, 4, skew, cplx) for skew in (False, True)])
    Ev, Od, s, _ = connections._scaled_taylor(X)
    Ev_m, Od_m, s_m, _ = connections._scaled_taylor(-X)
    assert np.array_equal(s, s_m)
    assert Ev_m.tobytes() == Ev.tobytes() and np.array_equal(Od_m, -Od)


def _stack_with_exact_norms(rng, k, cplx):
    """Seven k x k matrices of 1-norm exactly 0.5 * 2^s, s = 0..6: integer
    entries, times 1j at random when complex, so each |entry| is an integer;
    the diagonal of the largest column set to bring its sum to a power of two
    p; then each matrix scaled by the power of two 0.5 * 2^s / p."""
    M = rng.integers(-3, 4, size=(7, k, k)).astype(complex if cplx else float)
    if cplx:
        M = M * np.where(rng.random((7, k, k)) < 0.5, 1.0, 1j)
    for X in M:
        col = np.abs(X).sum(0)
        j = int(np.argmax(col))
        p = 2.0 ** np.ceil(np.log2(col[j] + 1.0))
        X[j, j] = p - (col[j] - abs(X[j, j]))
    X = M * (0.5 * 2.0 ** np.arange(7) / np.abs(M).sum(-2).max(-1))[:, None, None]
    assert np.array_equal(np.abs(X).sum(-2).max(-1), 0.5 * 2.0 ** np.arange(7))
    return X


def _taylor_backward_error_threshold(m, terms=120):
    """theta_m of Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2), 2011, sec. 3):
    the largest theta with sum_k |c_k| theta^(k-1) <= u = 2^-53, where
    log(e^-x T_m(x)) = sum_(k > m) c_k x^k, so that T_m(B) = exp(B + E) with
    ||E|| <= u ||B|| wherever ||B|| <= theta_m.  The series is the log of
    p = e^-x T_m(x) by the recurrence n q_n = n p_n - sum_(0<k<n) k q_k p_(n-k)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        T = [1 / mp.factorial(k) if k <= m else mp.mpf(0) for k in range(terms + 1)]
        p = [mp.fsum((-1) ** i / mp.factorial(i) * T[k - i] for i in range(k + 1))
             for k in range(terms + 1)]
        q = [mp.mpf(0)] * (terms + 1)
        for n in range(1, terms + 1):
            q[n] = p[n] - mp.fsum(k * q[k] * p[n - k] for k in range(1, n)) / n
        assert max(abs(x) for x in q[:m + 1]) < mp.mpf(10) ** -40  # O(x^(m+1))
        u = mp.mpf(2) ** -53
        h = lambda th: mp.fsum(abs(q[k]) * th ** (k - 1) for k in range(m + 1, terms + 1)) - u
        theta = mp.findroot(h, (0.1, 2.0), solver="bisect")
        assert abs(q[terms]) * theta ** terms < u * mp.mpf(10) ** -30  # the tail is negligible
        return float(theta)


@pytest.mark.parametrize("cplx", [False, True])
def test_scaled_matrices_are_within_the_degree_14_taylor_threshold(cplx):
    theta = _taylor_backward_error_threshold(14)
    assert 0.5 < theta and abs(theta - 0.51391) < 1e-5
    assert _taylor_backward_error_threshold(10) < 0.5  # degree 10 would need more squarings
    # the scaling rule brings every 1-norm to at most 1/2, exactly 1/2 on the boundary
    rng = np.random.default_rng(11)
    X = np.concatenate([_stack_with_scaling_counts(rng, 4, skew, cplx) for skew in (False, True)]
                       + [_stack_with_exact_norms(rng, 4, cplx)])
    s = connections._scaled_taylor(X)[2]
    assert np.array_equal(s, np.tile(np.arange(7), 3))
    scaled = np.abs(X).sum(-2).max(-1) * 0.5 ** s
    assert scaled.max() == 0.5 < theta and (scaled[14:] == 0.5).all()


def test_expm_against_mpmath_at_30_digits():
    # relative 1-norm error of the result: the squarings carry the rounding of
    # T_14(B) up with the condition number of exp, which is at least ||X|| for a
    # normal X, so the bound is 16 eps max(1, ||X||_1); the worst seen over 20
    # matrices per norm, kind and field was 2.0 eps max(1, ||X||_1)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(37)
    eps = np.finfo(float).eps
    with mp.workdps(30):
        for norm in (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
            for cplx, skew in np.ndindex(2, 2):
                for _ in range(2):
                    X = rng.normal(size=(4, 4)) + (1j * rng.normal(size=(4, 4)) if cplx else 0)
                    if skew:
                        X = X - X.conj().T
                    X *= norm / np.abs(X).sum(0).max()
                    ref = mp.expm(mp.matrix(X.tolist()))
                    R = np.array(ref.tolist(), dtype=complex)
                    R = R if cplx else R.real
                    err = np.abs(expm(X) - R).sum(0).max() / np.abs(R).sum(0).max()
                    assert err <= 16 * eps * max(1.0, norm), (norm, cplx, skew)


@pytest.mark.parametrize("cplx", [False, True])
def test_scaled_taylor_rows_are_one_matrix_results_bitwise(cplx):
    rng = np.random.default_rng(13)
    X = 0.3 * rng.normal(size=(64, 4, 4))
    if cplx:
        X = X + 0.3j * rng.normal(size=(64, 4, 4))
    Ev, Od, _, _ = connections._scaled_taylor(X)
    for i in range(len(X)):
        one = connections._scaled_taylor(X[i])
        assert Ev[i].tobytes() == one[0][0].tobytes() and Od[i].tobytes() == one[1][0].tobytes()
    # one 2-D matrix goes through expm as a stack of one
    assert expm(X[5]).tobytes() == expm(X)[5].tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_of_an_empty_stack(dtype):
    for n in (1, 4):
        for E in (expm(np.zeros((0, n, n), dtype)), *_expm_pm(np.zeros((0, n, n), dtype))):
            assert E.shape == (0, n, n) and E.dtype == dtype


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scaled_taylor_of_non_finite_matrices_is_nan_rows(bad, cplx):
    # X[3] is bad in every entry: the polynomial of an all-+inf matrix would read +inf
    rng = np.random.default_rng(14)
    X = rng.normal(size=(5, 4, 4)) + (1j * rng.normal(size=(5, 4, 4)) if cplx else 0)
    X[1, 2, 3] = bad
    X[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Ev, Od, s, _ = connections._scaled_taylor(X)
        pair = _expm_pm(X)
        ex = expm(X)
    for part in (Ev, Od, ex, *pair):
        assert np.isnan(part[[1, 3]]).all() and np.isfinite(part[[0, 2, 4]]).all()
    assert (s[[1, 3]] == 0).all()
    for i in (0, 2, 4):
        one = connections._scaled_taylor(X[i])
        assert Ev[i].tobytes() == one[0][0].tobytes() and Od[i].tobytes() == one[1][0].tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_non_finite_exponents_are_nan_rows_without_warnings(cplx):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(5, 4, 4)) + (1j * rng.normal(size=(5, 4, 4)) if cplx else 0)
    finite = [expm(X[i]) for i in (0, 2, 4)]
    X[1], X[3] = np.nan, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = [expm(np.full((4, 4), bad, X.dtype)) for bad in (np.nan, np.inf, -np.inf)]
        mixed, pair = expm(X), _expm_pm(X)
    assert all(np.isnan(E).all() for E in whole)
    for Y in (mixed, *pair):
        assert np.isnan(Y[[1, 3]]).all()
    assert mixed[[0, 2, 4]].tobytes() == np.array(finite).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integration_of_a_non_finite_form_blows_up_without_warnings(bad):
    # the step along x1 multiplies the x2 component by 0: inf * 0 as well
    form = LieValuedForm.constant([np.eye(2), np.full((2, 2), bad)])
    path = GroupPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError, match="^accumulated element is not finite$"):
            integrate_path(form, path)
    assert len(path.det_log) == 1 and np.isnan(path.det_log[0])


def test_overflow_of_a_finite_form_warns_and_blows_up_as_not_finite():
    # exp(4000) overflows in the squaring of the step's exponential
    form = LieValuedForm.constant([np.full((2, 2), 1e3), np.eye(2)])
    path = GroupPath([[0.0, 0.0], [1.0, 1.0]], 1)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert not np.isfinite(expm(np.full((2, 2), 2e3))).any()
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(BlowupError, match="^accumulated element is not finite$"):
            integrate_path(form, path)


def test_expm_scales_by_a_power_of_two_up_to_scaling_count_1024():
    # 2.0 ** 1024 overflows to inf, and A / inf is 0: B would be 0 and exp(A) would read I
    A = np.full((2, 2), 2.5e307)  # 1-norm 5e307, s = 1024
    Ev, Od, s, _ = connections._scaled_taylor(A)
    assert s[0] == 1024 and Od[0].any() and Ev[0].any()
    with np.errstate(all="ignore"):
        assert not np.isfinite(expm(A)).any()  # exp(A) = I + (e^(5e307) - 1) / 2 [[1, 1], [1, 1]]
        assert not np.isfinite(expm(A + 0j)).any()
    # below 1024 the product by 2^-s is the division by 2^s, bit for bit
    for A, s in ((np.full((2, 2), 2.5e300), 1000), (np.full((2, 2), 1.5e307j), 1023)):
        got, want = connections._scaled_taylor(A), _term_by_term_scaled_taylor(A)
        assert got[2][0] == s
        for g, w in zip(got[:3], want[:3]):
            assert g.tobytes() == w.tobytes()


def test_integration_with_scaling_count_1024_blows_up():
    form = LieValuedForm.constant([1e308 * np.ones((2, 2)), np.zeros((2, 2))])
    path = GroupPath([[0, 0], [1, 0]], 4)
    with np.errstate(all="ignore"), pytest.raises(BlowupError, match="is not finite"):
        integrate_path(form, path)
    assert len(path.det_log) == 1 and not np.isfinite(path.det_log[0])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_jet_expm_rows_are_one_point_jet_expm_of_both_signs(order):
    M = 3.0 * random_skew(4)  # scaling counts differ between the rows
    pts = RNG.uniform(-1, 1, (5, 2))
    space = JetSpace(pts, order)
    pair = _jet_expm(M, space.var(1), space)
    for r, x in enumerate(pts):
        one = JetSpace(x, order)
        for batch, sign in zip(pair, (1.0, -1.0)):
            want = _jet_expm(sign * M, one.var(1), one)[0]
            for i, j in np.ndindex(4, 4):
                assert batch[i, j].coef[r].tobytes() == want[i, j].coef.tobytes()


def test_integrate_path_with_steps_records_on_the_callers_path():
    form = maurer_cartan_form(random_skew(4), random_skew(4))
    sq1 = [[0, 0], [1, 0], [1, 1]]
    sq2 = [[0, 0], [0, 1], [1, 1]]
    pa, pb = GroupPath(sq1, 10), GroupPath(sq2, 10)
    defect = path_independence_defect(form, pa, pb, 100)
    for path, waypoints in ((pa, sq1), (pb, sq2)):
        ref, ref_log, _ = reference_integration(form, waypoints, 100)
        assert len(path.det_log) == 100 and path.det_log == ref_log
        assert np.array_equal(path.element, ref)
    assert defect == float(np.linalg.norm(pa.element - pb.element))
    path = GroupPath([[0.1, -0.2], [0.9, 0.7]], 10)
    f = integrate_path(form, path, steps=300)
    assert np.array_equal(path.element, f) and len(path.det_log) == 300
    assert path.steps == 10


def reference_exponents(form, waypoints, steps):
    """The increment exponents sum_j a_j(mid) dx_j, one segment at a time,
    from its own midpoint values, with the segment split of integrate_path."""
    W = np.asarray(waypoints, dtype=float)
    lengths = np.linalg.norm(np.diff(W, axis=0), axis=1)
    counts = np.maximum(1, np.round(steps * lengths / float(np.sum(lengths))).astype(int))
    for a, b, cnt in zip(W[:-1], W[1:], counts):
        for i in range(cnt):
            p, q = a + (b - a) * i / cnt, a + (b - a) * (i + 1) / cnt
            vals, delta = form.values_at(((p + q) / 2)[None])[0], q - p
            yield sum(vals[j] * delta[j] for j in range(form.domain_dim))


def reference_integration(form, waypoints, steps):
    """One segment at a time: its exponent, its exponential, the right
    product and the |det| check, with the segment split of integrate_path."""
    f, det_log = np.eye(form.size), []
    for X in reference_exponents(form, waypoints, steps):
        f = f @ expm(X)
        det = abs(np.linalg.det(f))
        det_log.append(float(det))
        if not np.isfinite(f).all():
            return f, det_log, "accumulated element is not finite"
        if not np.isfinite(det) or det < 1e-12:
            return f, det_log, f"accumulated element is no longer invertible (|det| = {det:.2e})"
    return f, det_log, None


@pytest.mark.parametrize("make", [
    lambda: maurer_cartan_form(random_skew(4), random_skew(4)),
    lambda: LieValuedForm.constant([random_skew(3), 2.0 * random_skew(3)]),
    lambda: LieValuedForm.constant([random_skew(3) + 0.3j * RNG.normal(size=(3, 3)),
                                    1j * random_skew(3)]),
], ids=["maurer-cartan", "constant", "complex"])
def test_integration_blocks_match_per_step_loop(make):
    # a constant form repeats its increments along each leg, across blocks
    form = make()
    for waypoints in ([[0.1, -0.2], [0.9, 0.7]], [[0, 0], [1, 0], [1, 1], [-0.3, 0.4]]):
        for steps in (255, 256, 257, 3 * connections._BLOCK + 7, 1000):
            path = GroupPath(waypoints, steps)
            f = integrate_path(form, path)
            ref, ref_log, err = reference_integration(form, waypoints, steps)
            assert err is None and len(ref_log) > 250
            assert np.array_equal(f, ref) and path.element.tobytes() == ref.tobytes()
            assert path.det_log == ref_log


def test_values_at_stacks_single_point_values():
    form = maurer_cartan_form(random_skew(3), random_skew(3))
    pts = RNG.uniform(-1, 1, size=(5, 2))
    V = form.values_at(pts)
    assert V.shape == (5, 2, 3, 3)
    for x, v in zip(pts, V):
        assert np.array_equal(form.values_at(x[None])[0], v)
    const = LieValuedForm.constant([np.eye(3), 2.0 * np.eye(3)])
    assert const.values_at(pts).shape == (5, 2, 3, 3)


@pytest.mark.parametrize("make", [
    lambda: LieValuedForm.constant([np.eye(3), 2.0 * np.eye(3)]),
    lambda: maurer_cartan_form(random_skew(3), random_skew(3)),
], ids=["constant", "maurer-cartan"])
@pytest.mark.parametrize("points", [np.array([0.1, 0.2]), np.zeros((4, 3)), np.zeros((4, 1)),
                                    np.zeros((2, 5, 2)), np.array(0.5)],
                         ids=["one-point", "d-3", "d-1", "3-d", "scalar"])
def test_values_at_needs_an_n_by_d_array(make, points):
    message = re.escape(f"values_at needs an (n, d) array of points with d = 2, "
                        f"got shape {points.shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        make().values_at(points)


def test_maurer_cartan_values_at_rows_with_shared_coordinates_are_bitwise():
    form = maurer_cartan_form(3.0 * random_skew(4), random_skew(4))
    x = RNG.uniform(-1, 1, 3)
    pts = np.array([[x[0], x[1]], [x[0], x[2]], [x[1], x[1]], [x[0], x[1]],
                    [0.0, x[2]], [-0.0, x[2]], [x[2], 0.0], [x[2], -0.0],
                    [np.nan, x[0]], [x[0], np.nan]])
    with np.errstate(invalid="ignore"):
        V = form.values_at(pts)
        rows = [form.values_at(p[None])[0] for p in pts]
    assert V.shape == (10, 2, 4, 4)
    for v, row in zip(V, rows):
        assert v.tobytes() == row.tobytes()
    assert np.isnan(V[8]).any() and np.isfinite(V[:8]).all()


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_maurer_cartan_values_are_the_inverse_conjugate_of_the_group_element(scale):
    # an oracle that does not use the closed form: a_1 = g^(-1) A g, with g
    # from maurer_cartan_value; a_2 = B exactly, and no component depends on x1
    rng = np.random.default_rng(36)
    A, B = scale * random_skew(4, rng), random_skew(4, rng)
    form = maurer_cartan_form(A, B)
    pts = rng.uniform(-2, 2, (40, 2))
    V = form.values_at(pts)
    for x, v in zip(pts, V):
        g = maurer_cartan_value(A, B, x)
        err = np.linalg.norm(v[0] - np.linalg.inv(g) @ A @ g)
        assert err <= 1e-13 * max(1.0, np.linalg.norm(A))
        assert v[1].tobytes() == B.tobytes()
    for space in (JetSpace(pts, 2), JetSpace(pts[0], 1)):
        grad = gradient(stack(form.components(space)))
        assert grad.shape[-1] == 2 and not grad[..., 0].any() and grad[..., 1].any()


def _count_exponential_matrices(monkeypatch):
    count = [0]
    scaled_taylor = connections._scaled_taylor

    def counting(A):
        Ev, Od, s, shape = scaled_taylor(A)
        count[0] += len(s)
        return Ev, Od, s, shape

    monkeypatch.setattr(connections, "_scaled_taylor", counting)
    return count


def test_maurer_cartan_values_exponentiate_each_bit_pattern_once(monkeypatch):
    form = maurer_cartan_form(random_skew(4), random_skew(4))
    count = _count_exponential_matrices(monkeypatch)
    form.values_at(np.array([[0.0, 0.5], [-0.0, 0.5], [0.25, 0.0], [0.25, -0.0], [0.5, 0.0]]))
    assert count[0] == 3  # x2 in {0.5, 0.0, -0.0}; the form does not depend on x1


def test_maurer_cartan_value_is_two_one_matrix_exponentials_bitwise(monkeypatch):
    rng = np.random.default_rng(407)
    for _ in range(200):
        A, B = 3.0 * random_skew(4, rng), random_skew(4, rng)
        x = rng.uniform(-2, 2, 2)
        want = expm(float(x[0]) * A) @ expm(float(x[1]) * B)
        assert maurer_cartan_value(A, B, x).tobytes() == want.tobytes()
    shapes = []
    scaled_taylor = connections._scaled_taylor
    monkeypatch.setattr(connections, "_scaled_taylor",
                        lambda M: shapes.append(M.shape) or scaled_taylor(M))
    maurer_cartan_value(A, B, x)
    assert shapes == [(2, 4, 4)]  # both exponentials from one stacked call


def test_path_independence_exponentials_on_the_unit_square(monkeypatch):
    # one exponential per distinct bit pattern among the 2 x 2000 increments
    # of both paths, and one exponential pair per distinct x2 over both
    # paths: the 1000 midpoints of sq2's first leg, which are those of sq1's
    # second leg, and 0 and 1 on the other legs, so 1002 values
    form = maurer_cartan_form(random_skew(4), random_skew(4))
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    sq2 = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
    X = np.array([x for sq in (sq1, sq2) for x in reference_exponents(form, sq, 2000)])
    distinct = len(np.unique(X.reshape(len(X), -1).view(np.int64), axis=0))
    count = _count_exponential_matrices(monkeypatch)
    assert path_independence_defect(form, sq1, sq2, 2000) <= 1e-5
    assert len(X) == 4000 and distinct == 27
    assert count[0] == distinct + 1002


def test_a_constant_leg_exponentiates_each_distinct_increment_once(monkeypatch):
    # the 1000 segments of the leg have 12 distinct lengths by bit pattern
    form = LieValuedForm.constant([random_skew(4), np.zeros((4, 4))])
    waypoints = [[0.0, 0.0], [2.5, 0.0]]
    ref, ref_log, _ = reference_integration(form, waypoints, 1000)
    count = _count_exponential_matrices(monkeypatch)
    path = GroupPath(waypoints, 1000)
    integrate_path(form, path)
    assert count[0] == 12
    assert path.element.tobytes() == ref.tobytes() and path.det_log == ref_log


@pytest.mark.parametrize("cplx", [False, True])
def test_distinct_increments_are_told_apart_by_bit_pattern(cplx):
    # equal values are not enough: -0.0 == 0.0, and a NaN is a NaN whatever its payload
    other_nan = np.array([0x7FF8000000000001]).view(float)[0]
    X = np.zeros((6, 2, 2), complex if cplx else float)
    X[:, 0, 1] = 0.5
    X[1, 1, 0] = -0.0
    X[2, 1, 1], X[3, 1, 1] = np.nan, other_nan
    X[4:] = X[[3, 0]]
    E, r = connections._distinct_expm(X)
    assert len(E) == 4 and sorted(r[:4]) == [0, 1, 2, 3] and r.tolist()[4:] == [r[3], r[0]]
    assert E[r].tobytes() == np.array([expm(x) for x in X]).tobytes()
    # a matrix a few ulps off X[0] whose bits have the same weighted sum
    Y = X[[0, 0, 0]]
    Y[1].reshape(-1).view(np.int64)[:2] += [3, -1]
    E, r = connections._distinct_expm(Y)
    assert r[1] not in (r[0], r[2]) and len(E) <= 3
    assert E[r].tobytes() == np.array([expm(y) for y in Y]).tobytes()


def test_blowup_in_second_block_keeps_step_log():
    # |det f| = exp(-2 * 46 * j / 1000) drops below 1e-12 at step 301
    form = LieValuedForm.constant([-46.0 * np.eye(2), np.zeros((2, 2))])
    waypoints = [[0.0, 0.0], [1.0, 0.0]]
    path = GroupPath(waypoints, 1000)
    with pytest.raises(BlowupError) as exc:
        integrate_path(form, path)
    _, ref_log, err = reference_integration(form, waypoints, 1000)
    assert len(ref_log) == 301 and path.det_log == ref_log
    assert str(exc.value) == err


def test_nonfinite_det_in_mid_block_stops_at_its_step():
    # the values turn NaN at the first midpoint with x1 > 0.6: step 601 of
    # 1000, in the middle of the third block
    A = random_skew(3)
    form = LieValuedForm(2, 3, None, values_fn=lambda pts: np.where(
        (pts[:, 0] > 0.6)[:, None, None, None], np.nan, np.stack([A, A.T])))
    waypoints = [[0.0, 0.0], [1.0, 0.0]]
    path = GroupPath(waypoints, 1000)
    with np.errstate(invalid="ignore"):
        with pytest.raises(BlowupError) as exc:
            integrate_path(form, path)
        _, ref_log, err = reference_integration(form, waypoints, 1000)
    assert err == "accumulated element is not finite"
    assert str(exc.value) == err
    assert len(ref_log) == len(path.det_log) == 601 and np.isnan(path.det_log[-1])
    assert np.array(path.det_log).tobytes() == np.array(ref_log).tobytes()


def _x2_e12_components(space):
    """The jet-only form x2 E12 dx1 on R^2: curvature E12 dx1 ^ dx2."""
    x2 = space.var(1)
    zero = space.const(0.0)
    a1 = [[x2 if (a, b) == (0, 1) else zero + 0.0 for b in range(3)] for a in range(3)]
    a2 = [[zero + 0.0 for _ in range(3)] for _ in range(3)]
    return [a1, a2]


def test_jet_only_form_values_are_its_jet_values_bitwise():
    form = LieValuedForm(2, 3, _x2_e12_components)
    pts = RNG.uniform(-1, 1, (6, 2))
    batch = form.values_at(pts)
    assert batch.shape == (6, 2, 3, 3)
    for x, row in zip(pts, batch):
        want = values(form.jets(x, 0)).tobytes()
        assert row.tobytes() == want and form.values_at(x[None])[0].tobytes() == want


def test_jet_only_form_integrates_across_blocks():
    form = LieValuedForm(2, 3, _x2_e12_components)
    waypoints = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    path = GroupPath(waypoints, 300)
    f = integrate_path(form, path)
    ref, ref_log, _ = reference_integration(form, waypoints, 300)
    assert np.array_equal(f, ref) and path.det_log == ref_log
    assert abs(f[0, 1] - 1.0) <= 1e-12  # exp of x2 E12 dx1 along x2 = 1


@pytest.mark.parametrize("make", [
    lambda: maurer_cartan_form(random_skew(4), random_skew(4)),
    lambda: LieValuedForm.constant([random_skew(3), random_skew(3)]),
    lambda: LieValuedForm(2, 3, _x2_e12_components),
    lambda: LieValuedForm.constant([np.eye(2), np.full((2, 2), np.nan)]),
], ids=["maurer-cartan", "constant", "jet-only", "nan"])
def test_batched_flatness_rows_are_one_point_residuals_bitwise(make):
    form = make()
    pts = RNG.uniform(-1, 1, (7, 2))
    got = flatness_residual(form, pts)
    assert got.shape == (7,) and got.dtype == float
    want = [flatness_residual(form, x) for x in pts]
    assert all(type(w) is float for w in want)
    assert got.tobytes() == np.array(want).tobytes()
    assert flatness_residual(form, pts[:1]).tobytes() == np.array(want[:1]).tobytes()


def test_maurer_cartan_flatness():
    A, B = random_skew(4), random_skew(4)
    form = maurer_cartan_form(A, B)
    for _ in range(20):
        assert flatness_residual(form, RNG.uniform(-1, 1, 2)) <= 1e-9


def test_constant_commuting_form_is_flat():
    A = random_skew(3)
    form = LieValuedForm.constant([A, 2.0 * A])
    assert flatness_residual(form, np.zeros(2)) <= 1e-14


def test_nonflat_form_detected():
    form = LieValuedForm(2, 3, _x2_e12_components)
    assert abs(flatness_residual(form, [0.3, 0.8]) - 1.0) <= 1e-14
    # defect around the unit square equals area x curvature exactly here
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    sq2 = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
    defect = path_independence_defect(form, sq1, sq2, 400)
    assert abs(defect - 1.0) <= 0.1


def test_constant_form_reproduces_exponential():
    A = random_skew(4)
    form = LieValuedForm.constant([A, np.zeros((4, 4))])
    f = integrate_path(form, np.array([[0.0, 0.0], [2.5, 0.0]]), steps=1000)
    assert np.linalg.norm(f - expm(2.5 * A)) <= 1e-10


def test_zero_form_gives_identity():
    form = LieValuedForm.constant([np.zeros((3, 3)), np.zeros((3, 3))])
    f = integrate_path(form, np.array([[0.0, 0.0], [1.0, 1.0]]), steps=10)
    assert np.allclose(f, np.eye(3))


def test_coincident_waypoints_give_the_identity_and_no_steps():
    form = maurer_cartan_form(random_skew(3), random_skew(3))
    path = GroupPath(np.array([[0.3, 0.1], [0.3, 0.1], [0.3, 0.1]]), 16)
    f = integrate_path(form, path)
    assert np.array_equal(f, np.eye(3)) and np.array_equal(path.element, np.eye(3))
    assert path.det_log == []


def test_maurer_cartan_integration_recovers_group_element():
    A, B = random_skew(4), random_skew(4)
    form = maurer_cartan_form(A, B)
    path = np.array([[0.1, -0.2], [0.9, 0.7]])
    f = integrate_path(form, path, steps=1000)
    ref = np.linalg.inv(maurer_cartan_value(A, B, path[0])) @ maurer_cartan_value(A, B, path[1])
    assert np.linalg.norm(f - ref) <= 1e-5
    assert np.linalg.norm(f.T @ f - np.eye(4)) <= 1e-6  # stays orthogonal


def test_flat_path_independence():
    A, B = random_skew(4), random_skew(4)
    form = maurer_cartan_form(A, B)
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    sq2 = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
    assert path_independence_defect(form, sq1, sq2, 2000) <= 1e-5
    with pytest.raises(PathError):
        path_independence_defect(form, sq1, np.array([[0, 0], [2, 2]], float), 100)


def test_path_independence_needs_both_endpoints_shared():
    # a start away from the origin tells A.start - B.start from A.start + B.start
    form = maurer_cartan_form(random_skew(3, np.random.default_rng(15)),
                              random_skew(3, np.random.default_rng(16)))
    sq1 = np.array([[0.5, -0.25], [1.5, -0.25], [1.5, 0.75]])
    sq2 = np.array([[0.5, -0.25], [0.5, 0.75], [1.5, 0.75]])
    assert path_independence_defect(form, sq1, sq2, 400) <= 1e-5
    assert path_independence_defect(form, GroupPath(sq1, 10), sq2, 400) <= 1e-5
    other_start = np.array([[0.5, 0.25], [1.5, 0.75]])  # the end of sq1
    other_end = np.array([[0.5, -0.25], [1.5, 1.75]])  # the start of sq1
    for a, b in ((sq1, other_start), (other_start, sq1), (sq1, other_end), (other_end, sq2)):
        path = GroupPath(a, 10)
        with pytest.raises(PathError, match="paths do not share endpoints"):
            path_independence_defect(form, path, b, 100)
        assert path.det_log == [] and path.element is None


def test_path_independence_rejects_endpoints_made_nan_after_construction():
    form = maurer_cartan_form(random_skew(4), random_skew(4))
    sq1, sq2 = [[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]
    for row in (0, -1):
        pa, pb = GroupPath(sq1, 10), GroupPath(sq2, 10)
        pa.waypoints[row, 1] = np.nan  # GroupPath checked its waypoints when built
        with pytest.raises(PathError, match="paths do not share endpoints"):
            path_independence_defect(form, pa, pb, None)
        assert pa.det_log == [] and pa.element is None


def test_second_order_convergence():
    A, B = random_skew(4), random_skew(4)
    form = maurer_cartan_form(A, B)
    path = np.array([[0.1, -0.2], [0.9, 0.7]])
    ref = np.linalg.inv(maurer_cartan_value(A, B, path[0])) @ maurer_cartan_value(A, B, path[1])
    errs = [np.linalg.norm(integrate_path(form, path, steps=s) - ref)
            for s in (100, 200, 400)]
    for i in range(2):
        order = np.log2(errs[i] / errs[i + 1])
        assert abs(order - 2.0) <= 0.2


def test_blowup_detection():
    big = 80.0 * np.eye(2)
    form = LieValuedForm.constant([-big, np.zeros((2, 2))])
    with pytest.raises(BlowupError):
        integrate_path(form, np.array([[0.0, 0.0], [4.0, 0.0]]), steps=8)


def test_group_path_validation():
    with pytest.raises(PathError):
        GroupPath(np.array([[0.0, 0.0]]), 10)


def test_group_path_outputs_are_not_constructor_arguments():
    w = [[0.0, 0.0], [1.0, 1.0]]
    for output in ({"element": np.eye(3)}, {"det_log": [1.0]}):
        with pytest.raises(TypeError, match=next(iter(output))):
            GroupPath(w, 10, **output)
    path = GroupPath(w, 10)
    assert path.element is None and path.det_log == []


def test_integrate_path_asks_values_at_once():
    form = maurer_cartan_form(random_skew(3), random_skew(3))
    calls, values_at = [], form.values_at

    def counted(points):
        calls.append(len(points))
        return values_at(points)

    form.values_at = counted
    path = GroupPath([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]], 3 * connections._BLOCK + 7)
    integrate_path(form, path)
    assert len(calls) == 1 and calls[0] == len(path.det_log) > 3 * connections._BLOCK


def test_path_independence_fails_on_a_before_touching_b():
    # A's first leg runs along x1, where |det| falls below 1e-12; B's runs up x2 first
    form = LieValuedForm.constant([-80.0 * np.eye(2), np.zeros((2, 2))])
    pa, pb = GroupPath([[0, 0], [4, 0], [4, 4]], 8), GroupPath([[0, 0], [0, 4], [4, 4]], 8)
    pb.det_log = ["from an earlier run"]
    with pytest.raises(BlowupError, match="no longer invertible"):
        path_independence_defect(form, pa, pb, None)
    assert len(pa.det_log) == 1 and pb.det_log == ["from an earlier run"] and pb.element is None
    # a values_fn error at a point of B only is raised before A is integrated
    A = random_skew(2)

    def values_fn(pts):
        if (pts[:, 1] > 1).any():
            raise ValueError("x2 > 1")
        return np.broadcast_to(np.stack([A, A.T]), (len(pts), 2, 2, 2))

    pa, pb = GroupPath([[0, 0], [1, 0], [1, 1]], 8), GroupPath([[0, 0], [0.5, 2], [1, 1]], 8)
    with pytest.raises(ValueError, match="x2 > 1"):
        path_independence_defect(LieValuedForm(2, 2, None, values_fn=values_fn), pa, pb, None)
    assert pa.det_log == [] and pa.element is None


def test_waypoints_off_the_forms_domain_raise_path_error():
    form = maurer_cartan_form(random_skew(3), random_skew(3))
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    cube = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float)
    message = r"^waypoints of dimension 3 for a form on R\^2$"
    path = GroupPath(cube, 10)
    with pytest.raises(PathError, match=message):
        integrate_path(form, path)
    assert path.det_log == [] and path.element is None
    with pytest.raises(PathError, match=message):
        integrate_path(form, cube, steps=10)
    for a, b in ((sq1, cube), (cube, sq1), (cube, cube)):
        with pytest.raises(PathError, match=message):
            path_independence_defect(form, a, b, 100)
    with pytest.raises(PathError, match=r"^waypoints of dimension 1 for a form on R\^2$"):
        integrate_path(form, [[0.0], [1.0]], steps=10)


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 2), (4,)])
def test_waypoints_that_are_not_an_m_by_d_array_raise_path_error(shape):
    form = LieValuedForm.constant([np.eye(2), np.eye(2)])
    bad = np.arange(float(np.prod(shape))).reshape(shape)
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    message = re.escape(f"waypoints are an (m, d) array, got shape {shape}")
    with pytest.raises(PathError, match=message):
        integrate_path(form, bad, steps=4)
    for a, b in ((sq1, bad), (bad, sq1)):
        with pytest.raises(PathError, match=message):
            path_independence_defect(form, a, b, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_waypoint_raises_path_error(bad):
    form = maurer_cartan_form(random_skew(3), random_skew(3))
    waypoints = np.array([[0.0, 0.0], [bad, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError, match=f"waypoints must be finite, got .*{bad}"):
            GroupPath(waypoints, 10)
        with pytest.raises(PathError, match=f"waypoints must be finite, got .*{bad}"):
            integrate_path(form, waypoints, steps=10)


@pytest.mark.parametrize("steps", [0, -3, 2.5, True], ids=["zero", "negative", "fraction", "bool"])
def test_bad_steps_raise_path_error(steps):
    form = maurer_cartan_form(random_skew(3), random_skew(3))
    waypoints = [[0.0, 0.0], [1.0, 1.0]]
    message = re.escape(f"steps must be an integer >= 1, got {steps!r}")
    with pytest.raises(PathError, match=message):
        GroupPath(waypoints, steps)
    with pytest.raises(PathError, match=message):
        integrate_path(form, np.array(waypoints), steps=steps)
    path = GroupPath(waypoints, 10)
    with pytest.raises(PathError, match=message):
        integrate_path(form, path, steps=steps)
    assert path.det_log == [] and path.element is None
    with pytest.raises(PathError, match=message):
        path_independence_defect(form, waypoints, waypoints, steps)


def test_curvature_02_residuals():
    # m = 1: nothing to antisymmetrize
    def gam1(space):
        return [[[space.const(RNG.normal()) for _ in range(2)] for _ in range(2)]]

    assert curvature_02_residual(gam1, 1, [0.1, 0.2]) == 0.0

    M = RNG.normal(size=(2, 2))

    def gam_const(space):
        G = [[space.const(M[a, b]) for b in range(2)] for a in range(2)]
        return [G, [row[:] for row in G]]

    assert curvature_02_residual(gam_const, 2, np.zeros(4)) <= 1e-14

    def gam_bad(space):
        zb2 = space.var(2) - 1j * space.var(3)
        z = space.const(0.0)
        G1 = [[z + 0.0, zb2], [z + 0.0, z + 0.0]]
        G2 = [[z + 0.0, z + 0.0], [z + 0.0, z + 0.0]]
        return [G1, G2]

    assert abs(curvature_02_residual(gam_bad, 2, np.zeros(4)) - 1.0) <= 1e-14

    with pytest.raises(PathError, match="need m >= 1"):
        curvature_02_residual(gam1, 0, np.zeros(0))


def test_curvature_02_antisymmetrizes_the_derivatives():
    # G_1 = zbar_2 M and G_2 = zbar_1 M with M = E12: dzbar_1 G_2 = dzbar_2 G_1
    # = M and the commutator vanishes, so the residual is exactly 0; the
    # symmetric sum dzbar_1 G_2 + dzbar_2 G_1 would read |2 M| = 2
    def gammas(space):
        zb1 = space.var(0) - 1j * space.var(1)
        zb2 = space.var(2) - 1j * space.var(3)
        z = space.const(0.0)
        return [[[z, zb2], [z, z]], [[z, zb1], [z, z]]]

    for pt in (np.zeros(4), np.array([0.3, -0.2, 0.1, 0.5])):
        assert curvature_02_residual(gammas, 2, pt) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("make", [
    lambda: maurer_cartan_form(3.0 * random_skew(4), random_skew(4)),
    lambda: (lambda A: LieValuedForm.constant([A, 2.0 * A]))(random_skew(4)),
], ids=["maurer-cartan", "constant"])
def test_non_finite_points_are_nan_rows_without_warnings(make, axis, bad):
    # neither form needs x1 (the constant one neither coordinate), so only
    # the point itself can make its row NaN
    form = make()
    pts = RNG.uniform(-1, 1, (4, 2))
    pts[[1, 3], axis] = bad

    def gammas(space):  # m = 1: a residual of exactly 0 wherever it is evaluated
        return form.components(space)[:1]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V, flat = form.values_at(pts), flatness_residual(form, pts)
        curv = curvature_02_residual(gammas, 1, pts)
        rows = [(form.values_at(x[None])[0], flatness_residual(form, x),
                 curvature_02_residual(gammas, 1, x)) for x in pts]
    assert V.shape == (4, 2, 4, 4) and flat.shape == curv.shape == (4,)
    assert np.isnan(V[[1, 3]]).all() and np.isfinite(V[[0, 2]]).all()
    assert np.isnan(flat[[1, 3]]).all() and (flat[[0, 2]] <= 1e-12).all()
    assert np.isnan(curv[[1, 3]]).all() and (curv[[0, 2]] == 0.0).all()
    for r, (v, f, c) in enumerate(rows):
        assert type(f) is float and type(c) is float
        assert v.tobytes() == V[r].tobytes()
        assert np.array([f, c]).tobytes() == np.array([flat[r], curv[r]]).tobytes()


def test_nan_curvature_residuals_are_nan():
    nan = float("nan")
    form = LieValuedForm.constant([np.eye(2), np.full((2, 2), nan)])
    assert np.isnan(flatness_residual(form, [0.1, 0.2]))

    def gam_nan(space):
        z = space.const(0.0)
        G1 = [[z + 0.0, space.var(2) * nan], [z + 0.0, z + 0.0]]
        G2 = [[z + 0.0, z + 0.0], [z + 0.0, z + 0.0]]
        return [G1, G2]

    assert np.isnan(curvature_02_residual(gam_nan, 2, np.zeros(4)))

"""Flat matrix-valued connection forms: residuals and product integration.

A form is given by its component evaluator; flatness is the zero-curvature
identity d_i a_j - d_j a_i + [a_i, a_j] = 0, which characterizes local
solvability of f^(-1) df = a with f(start) = identity.  Integration uses the
midpoint exponential rule (Iserles et al., "Lie-group methods", Acta Numerica
9, 2000), which is second-order accurate and keeps the accumulated element in
the group by construction.  Midpoint values come from ``values_fn(points)``,
which maps an (n, d) array of points to the (n, d, k, k) stack of component
values, in one call for both paths of path_independence_defect; a block of
segments takes one ``expm`` call, and its running products are written in
place into one stack, their |det| checked as one array.  The exponential is
scaling-and-squaring with a diagonal Pade(6) approximant at 1-norm 1/2 (the
scheme of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009, at a fixed
degree) on a stack (..., n, n); a 2-D input is the one-matrix case.

The diagonal Pade approximant N(B)/D(B) has N(-B) = D(B) and D(-B) = N(B),
and this holds bit for bit in floating point: IEEE rounding is symmetric
under sign, and X and -X have the same 1-norm and so the same scaling count.
exp(X) and exp(-X) therefore come from one Pade power loop, which the
Maurer-Cartan forms use for exp(x_2 B) and exp(-x_2 B) at each distinct x_2.

D^(-1) N is solved for the whole stack at once by Gaussian elimination
without row exchanges, and this needs no pivoting.  Each scaled matrix has
||B||_1 <= 1/2, so ||D - I||_1 <= sum_k c_k 2^-k ~ 0.2804 < 1/2 (k = 1..6,
c_k the Pade coefficients), and likewise ||N - I||_1, since N(B) = D(-B).
So every D, and every N that _expm_pm solves against, is strictly
diagonally dominant by columns: |d_jj| - sum_(i != j) |d_ij| >= 1 - 0.2804.
For such a matrix partial pivoting makes no row exchanges, and the growth
factor is at most 2 (Higham, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., SIAM 2002, Thm 9.9).  The real form [[Re D, -Im D],
[Im D, Re D]] of a complex D is column dominant too: with e = |d_jj - 1|,
the off-diagonal sum of its column j is at most sqrt(2) (0.2804 - e) + e
<= 0.40, and its diagonal is at least 1 - e >= 0.71.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import JetSpace, dzbar, gradient, stack, values
from .pairings import _modulus, _per_point, _worst_norm


class BlowupError(RuntimeError):
    pass


class PathError(ValueError):
    pass


def _pade_coefficients(m):
    """Coefficients c_0..c_m of the diagonal Pade(m) approximant of exp."""
    c = [1.0]
    for k in range(m):
        c.append(c[-1] * (m - k) / ((2 * m - k) * (k + 1)))
    return np.array(c)


_PADE = _pade_coefficients(6)
# Segments per stacked exponential in integrate_path; bounds its working memory.
_BLOCK = 256


@np.errstate(invalid="ignore")  # a non-finite matrix gives NaN in its own row
def _scaled_pade(A):
    """(N, D, s, shape): the scaling counts s of the matrices of ``A``,
    flattened to a stack (m, n, n), and the numerator and denominator of
    Pade(6) at each scaled matrix B = A 2^-s, so that exp(A) is the s-fold
    square of D^(-1) N.  Each term c_k B^k is formed once, added to N and,
    signed (-1)^k, to D; both start as the identity, all +0.0 or 1.0, so the
    sign of a zero of B^k never reaches them (+0.0 + -0.0 is +0.0)."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expm needs a square matrix or a stack of square (..., n, n) "
                         f"matrices, got shape {A.shape}")
    n = A.shape[-1]
    A3 = A.reshape(-1, n, n)
    # the 1-norm: column sums as row adds in order.  |A3|.sum(-2) has the same
    # bits but takes 36 us against 23 at a stack of 256 4 x 4 matrices, and
    # flat-connection passes stacks of 256-512
    a = np.abs(A3)
    norm = a[:, 0].copy()
    for i in range(1, n):
        norm += a[:, i]
    norm = norm.max(-1)
    # least s >= 0 with norm / 2^s <= 1/2; 0 for a non-finite norm
    s = np.ceil(np.log2(np.fmax(norm / 0.5, 1.0)))
    s = np.where(np.isfinite(s), s, 0).astype(int)
    # times 2^-s, which is the division by 2^s bit for bit where 2.0 ** s is
    # finite; 2.0 ** 1024 is inf, and A / inf would be 0
    B = A3 * np.ldexp(1.0, -s)[:, None, None]
    N, D = ND = np.zeros((2,) + B.shape, B.dtype)
    ND.reshape(2, -1, n * n)[..., ::n + 1] = 1.0  # the diagonals: the identity
    t = np.empty_like(B)
    for k in range(1, len(_PADE)):
        P = B if k == 1 else P @ B
        np.multiply(P, _PADE[k], out=t)
        N += t
        (np.subtract if k % 2 else np.add)(D, t, out=D)
    return N, D, s, A.shape


def _solve(D, N):
    """D^(-1) N for each matrix of the stacks D (m, n, n) and N (m, n, p), by
    Gaussian elimination without row exchanges (module docstring), in the layout
    (n, n, m), so each step is one vector operation over the whole stack.
    Each matrix gets the operations it would get alone; a matrix that is not
    finite gives NaN, and nothing raises.

    A complex D is solved in its real form [[Re D, -Im D], [Im D, Re D]]
    against [Re N; Im N].  numpy's complex multiply rounds with a fused
    multiply-add in some of its loops and not in others (a one-element 3-D
    operand takes an unfused one), so a complex stack would round by
    numpy's choice of loop; every loop rounds a real product alike.
    """
    n = D.shape[-1]
    if np.iscomplexobj(D):
        X = _solve(np.block([[D.real, -D.imag], [D.imag, D.real]]),
                   np.concatenate([N.real, N.imag], axis=-2))
        E = np.empty(N.shape, N.dtype)
        E.real, E.imag = X[:, :n], X[:, n:]
        return E
    # the augmented rows [D | N]: one update eliminates in both
    W = np.concatenate([D, N], axis=-1).transpose(1, 2, 0).copy()
    for k in range(n - 1):
        W[k + 1:, k + 1:] -= (W[k + 1:, k] / W[k, k])[:, None] * W[k, k + 1:]
    X = W[:, n:]
    for k in range(n - 1, -1, -1):
        X[k] /= W[k, k]
        X[:k] -= W[:k, k, None] * X[k]
    return np.ascontiguousarray(X.transpose(2, 0, 1))


@np.errstate(invalid="ignore")
def _squared(N, D, s):
    """D^(-1) N squared s times: round r squares the matrices with s >= r."""
    E = _solve(D, N)
    for r in range(1, int(s.max(initial=0)) + 1):
        sel = s >= r
        X = E[sel]
        E[sel] = X @ X
    return E


def expm(A):
    """Matrix exponential of A, or of each matrix of a stack (..., n, n).

    Scaling-and-squaring with Pade(6): each matrix is scaled by 2^-s, with
    s the least count bringing its 1-norm to at most 1/2, and squared back
    s times.  Every matrix of a stack gets the same operations as it would
    alone, so a stacked result equals the per-matrix ones bit for bit.
    """
    N, D, s, shape = _scaled_pade(A)
    return _squared(N, D, s).reshape(shape)


def _expm_pm(A):
    """(expm(A), expm(-A)), bitwise, from one Pade power loop.

    -A has the scaling counts of A, and its Pade numerator and denominator
    are the denominator and numerator of A (module docstring), so both
    exponentials come from one stacked solve of [D; N] against [N; D].
    """
    N, D, s, shape = _scaled_pade(A)
    E = _squared(np.concatenate([N, D]), np.concatenate([D, N]), np.concatenate([s, s]))
    return E[:len(s)].reshape(shape), E[len(s):].reshape(shape)


class LieValuedForm:
    """Matrix-algebra-valued 1-form on R^d through a component evaluator.

    ``components(space)`` receives a :class:`JetSpace` at the evaluation
    point and must return d matrices of jets, one per coordinate direction,
    as one (d, k, k) jet or as nested sequences.  For integration only the
    constant terms are used; flatness needs order 1.  An optional
    ``values_fn(points)`` takes an (n, d) array of points and returns the
    (n, d, k, k) stack of component values, which short-circuits the jet
    machinery along integration paths.  ``components`` must also accept a
    batched :class:`JetSpace` over an (n, d) array of points: flatness at
    an array of points is one batched evaluation, and so, without
    ``values_fn``, are the values along a path.  Either evaluator gets the
    origin in place of a point that is not finite, whose row then reads NaN.
    """

    def __init__(self, domain_dim, size, components, values_fn=None):
        self.domain_dim = int(domain_dim)
        self.size = int(size)
        self.components = components
        self.values_fn = values_fn

    def jets(self, x, order=1):
        """The components as one (d, k, k) jet."""
        space = JetSpace(np.asarray(x, dtype=float), order)
        return stack(self.components(space))

    def values_at(self, points):
        """The (n, d, k, k) component values at the n rows of ``points``."""
        pts, ok = _finite_points(points)
        vals = self.values_fn(pts) if self.values_fn else values(self.jets(pts, order=0))
        return np.asarray(vals) if ok.all() else np.where(ok[:, None, None, None], vals, np.nan)

    @classmethod
    def constant(cls, matrices):
        matrices = np.stack(matrices)
        d, k = matrices.shape[:2]

        def components(space):
            return space.const(np.broadcast_to(matrices, space.base.shape[:-1] + matrices.shape))

        return cls(d, k, components,
                   values_fn=lambda pts: np.broadcast_to(matrices, (len(pts), d, k, k)))


def _finite_points(points):
    """(pts, ok): the points, one (d,) or rows (..., d), with the origin in
    place of each one that is not finite, and the mask of the others, where
    callers keep their result; a form that ignores a coordinate would read
    finite at the point itself, and one that uses it would warn."""
    pts = np.asarray(points, dtype=float)
    ok = np.isfinite(pts).all(-1)
    return np.where(ok[..., None], pts, 0.0), ok


def flatness_residual(form, pt):
    """max over i < j of |d_i a_j - d_j a_i + a_i a_j - a_j a_i| (Frobenius).

    ``pt`` is one point, which gives a float, or an (N, d) array of points,
    which gives one residual per row from one batched jet evaluation; row r
    is bitwise the residual at the point of row r alone, and NaN where the
    point is not finite.
    """
    pts, ok = _finite_points(pt)
    comps = form.jets(pts, order=1)
    d = form.domain_dim
    vals, grad = values(comps), gradient(comps)
    curvatures = [grad[..., j, :, :, i] - grad[..., i, :, :, j]
                  + vals[..., i, :, :] @ vals[..., j, :, :]
                  - vals[..., j, :, :] @ vals[..., i, :, :]
                  for i in range(d) for j in range(i + 1, d)]
    return _per_point(np.where(ok, _worst_norm(curvatures, vals.shape[:-3]), np.nan))


@dataclass
class GroupPath:
    """Piecewise-linear integration path with its accumulated group element."""

    waypoints: np.ndarray
    steps: int
    element: np.ndarray = field(default=None, init=False)
    det_log: list = field(default_factory=list, init=False)

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if self.waypoints.shape[0] < 2:
            raise PathError("a path needs at least two waypoints")
        if not np.isfinite(self.waypoints).all():
            raise PathError(f"waypoints must be finite, got {self.waypoints.tolist()}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 1 or self.steps is True:
            raise PathError(f"steps must be an integer >= 1, got {self.steps!r}")

    @property
    def start(self):
        return self.waypoints[0]

    @property
    def end(self):
        return self.waypoints[-1]


def _segments(path, steps):
    """Split the polyline through the waypoints of ``path`` into ``steps``
    segments, proportionally to length; ``steps`` None is the path's own
    count, and a GroupPath checks an override as it checks its own steps.

    Returns the (m, d) arrays of segment starts and ends.
    """
    W = path.waypoints
    steps = path.steps if steps is None else GroupPath(W, steps).steps
    lengths = np.linalg.norm(np.diff(W, axis=0), axis=1)
    total = float(np.sum(lengths))
    if total == 0:
        return W[:0], W[:0]
    starts, ends = [], []
    counts = np.maximum(1, np.round(steps * lengths / total).astype(int))
    for (a, b), cnt in zip(zip(W[:-1], W[1:]), counts):
        i = np.arange(cnt)[:, None]
        starts.append(a + (b - a) * i / cnt)
        ends.append(a + (b - a) * (i + 1) / cnt)
    return np.concatenate(starts), np.concatenate(ends)


def integrate_path(form, path, steps=None):
    """Product integration of f^(-1) df = a along a path, f(start) = I.

    Midpoint exponential rule: per segment the increment exp(sum_i a_i(mid)
    dx_i) multiplies on the right; second-order accurate for flat forms.  The
    midpoint values of the whole path come from one ``values_at`` call; the
    increments are evaluated in stacks of up to _BLOCK segments, whose
    running products fill one stack, in path order; their |det| is logged
    per step, and an element that is not finite, or whose |det| is not
    finite or below 1e-12, raises ``BlowupError``.

    ``path`` is a ``GroupPath``, whose steps ``steps`` overrides for this
    integration, or an array of waypoints, which then needs ``steps``.  The
    element and the determinant log are recorded on the ``GroupPath``.
    """
    if not isinstance(path, GroupPath):
        path = GroupPath(path, steps)
    starts, ends = _segments(path, steps)
    return _product(form, path, starts, ends, form.values_at((starts + ends) / 2))


@np.errstate(invalid="ignore")
def _product(form, path, starts, ends, vals):
    """integrate_path over these segments, ``vals`` their midpoint values."""
    f = np.eye(form.size)
    path.det_log = []
    for lo in range(0, len(starts), _BLOCK):
        v, delta = vals[lo:lo + _BLOCK], ends[lo:lo + _BLOCK] - starts[lo:lo + _BLOCK]
        E = expm(sum(v[:, i] * delta[:, i, None, None] for i in range(form.domain_dim)))
        P = np.empty_like(E)
        for Ei, Pi in zip(E, P):
            f = f.dot(Ei, out=Pi)
        dets = _modulus(np.linalg.det(P))
        finite = np.isfinite(P).all(axis=(-2, -1))
        bad = np.flatnonzero(~finite | ~np.isfinite(dets) | (dets < 1e-12))
        path.det_log += dets[:bad[0] + 1 if len(bad) else None].tolist()
        if len(bad):
            i = bad[0]
            raise BlowupError("accumulated element is not finite" if not finite[i] else
                              f"accumulated element is no longer invertible (|det| = {dets[i]:.2e})")
    path.element = f = f.copy()
    return np.real_if_close(f, tol=1000)


def path_independence_defect(form, path_a, path_b, steps):
    """|f_A - f_B| for two integrations with shared endpoints; zero for flat
    forms, and of order enclosed-area x curvature otherwise.  The midpoint
    values of both paths come from one ``values_at`` call, so a ``values_fn``
    error at a point of B is raised before A is integrated; if A blows up,
    B's ``det_log`` is left untouched."""
    A = path_a if isinstance(path_a, GroupPath) else GroupPath(path_a, steps)
    B = path_b if isinstance(path_b, GroupPath) else GroupPath(path_b, steps)
    if not (np.linalg.norm(A.start - B.start) <= 1e-12
            and np.linalg.norm(A.end - B.end) <= 1e-12):  # NaN fails
        raise PathError("paths do not share endpoints")
    (sa, ea), (sb, eb) = _segments(A, steps), _segments(B, steps)
    vals = form.values_at(np.concatenate([(sa + ea) / 2, (sb + eb) / 2]))
    fa = _product(form, A, sa, ea, vals[:len(sa)])
    return float(np.linalg.norm(fa - _product(form, B, sb, eb, vals[len(sa):])))


def curvature_02_residual(gammas_fn, m, pt):
    """Antiholomorphic curvature residual of connection coefficient fields.

    ``gammas_fn(space)`` returns m matrices of jets over R^(2m); the residual
    is the max over i < j of |dzbar_i G_j - dzbar_j G_i + G_j G_i - G_i G_j|.
    Identically zero when m = 1: a single index leaves nothing to
    antisymmetrize, which is what makes surface domains special.

    ``pt`` is one point, which gives a float, or an (N, 2m) array of points,
    which gives one residual per row; ``gammas_fn`` then gets the batched
    space, and row r is bitwise the residual at the point of row r alone,
    NaN where the point is not finite.
    """
    if m < 1:
        raise PathError("need m >= 1")
    pts, ok = _finite_points(pt)
    gam = stack(gammas_fn(JetSpace(pts, 1)))
    # the m fields sit after the batch axes: (..., m, k, k) and (..., m, k, k, 2m)
    vals, grad = values(gam), gradient(gam)
    curvatures = [dzbar(grad[..., j, :, :, :], i) - dzbar(grad[..., i, :, :, :], j)
                  + vals[..., j, :, :] @ vals[..., i, :, :]
                  - vals[..., i, :, :] @ vals[..., j, :, :]
                  for i in range(m) for j in range(i + 1, m)]
    return _per_point(np.where(ok, _worst_norm(curvatures, vals.shape[:-3]), np.nan))


# ---------------------------------------------------------------------------
# Maurer-Cartan pullbacks g^(-1) dg for g(x) = exp(x_1 A) exp(x_2 B)

def maurer_cartan_form(A, B):
    """The flat form g^(-1) dg of g(x) = exp(x_1 A) exp(x_2 B) on R^2.

    Since d_1 g = A g and d_2 g = g B, its components are
    a_1 = exp(-x_2 B) A exp(x_2 B) and a_2 = B: neither depends on x_1, and
    a_2 is constant.  a_1 is evaluated with jets via the nilpotent expansion
    of the x_2 offset; exp(x_2 B) and its inverse come from one Pade pair.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    k = A.shape[0]

    def components(space):
        e2, e2m = _jet_expm(B, space.var(1), space)
        Aj, Bj = (space.const(np.broadcast_to(M, space.base.shape[:-1] + M.shape))
                  for M in (A, B))
        return [e2m @ Aj @ e2, Bj]

    def values_fn(points):
        # one Pade pair per distinct bit pattern of x_2; pairs and rows in
        # blocks of _BLOCK to bound temporaries
        x = np.asarray(points, dtype=float)
        u, i = np.unique(x[:, 1].view(np.int64), return_inverse=True)
        X = u.view(float)[:, None, None] * B
        E, Em = np.empty_like(X), np.empty_like(X)
        for lo in range(0, len(X), _BLOCK):
            E[lo:lo + _BLOCK], Em[lo:lo + _BLOCK] = _expm_pm(X[lo:lo + _BLOCK])
        out = np.empty((len(x), 2, k, k))
        out[:, 1] = B
        for lo in range(0, len(x), _BLOCK):
            r = i[lo:lo + _BLOCK]
            out[lo:lo + _BLOCK, 0] = Em[r] @ A @ E[r]
        return out

    return LieValuedForm(2, k, components, values_fn=values_fn)


def maurer_cartan_value(A, B, x):
    """g(x) = exp(x_1 A) exp(x_2 B), both from one stacked :func:`expm`."""
    E1, E2 = expm(np.stack([float(x[0]) * np.asarray(A), float(x[1]) * np.asarray(B)]))
    return E1 @ E2


def _jet_expm(M, scalar_jet, space):
    """exp(x M) and exp(-x M) as jet matrices for the scalar jet x, at one
    point or batched: exp(+-c M) times the nilpotent series exp(+-delta M),
    with c the constant term of x and delta its offset part."""
    c = np.asarray(scalar_jet.value.real)
    delta = scalar_jet - scalar_jet.value
    pair = []
    for E, Ms in zip(_expm_pm(c[..., None, None] * M), (M, -M)):
        Mj = space.const(np.broadcast_to(Ms, c.shape + M.shape))
        out = term = space.const(E)
        for n in range(1, space.order + 1):
            term = term @ Mj * delta / n
            out = out + term
        pair.append(out)
    return pair

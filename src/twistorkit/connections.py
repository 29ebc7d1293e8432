"""Flat matrix-valued connection forms: residuals and product integration.

A form is given by its component evaluator; flatness is the zero-curvature
identity d_i a_j - d_j a_i + [a_i, a_j] = 0, which characterizes local
solvability of f^(-1) df = a with f(start) = identity.  Integration uses the
midpoint exponential rule (Iserles et al., "Lie-group methods", Acta Numerica
9, 2000), which is second-order accurate and keeps the accumulated element in
the group by construction.  Midpoint values come from ``values_fn(points)``,
which maps an (n, d) array of points to the (n, d, k, k) stack of component
values, in one call for both paths of path_independence_defect; each distinct
increment, by bit pattern, is exponentiated once, and a block's running
products are written in place into one stack, their |det| checked as one array.

The exponential is scaling-and-squaring with the degree-14 Taylor polynomial
T_14 on a stack (..., n, n); a 2-D input is the one-matrix case.  Each matrix
A is scaled to B = A 2^-s, with s the least count >= 0 bringing ||A||_1 2^-s
to at most 1/2, and T_14(B) is squared s times.  T_14(B) = exp(B + E) with
||E|| <= u ||B||, u = 2^-53, wherever ||B|| <= theta_14 = 0.5139 (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33(2), 2011, sec. 3), so the scaled 1-norm 1/2
is within the threshold, and no quotient is solved.

T_14(B) - I is split into its even part Ev = sum_(j=1..7) B^(2j) / (2j)! and
its odd part Od = B sum_(j=0..6) B^(2j) / (2j+1)!, both polynomials in
Y = B^2, evaluated by Paterson-Stockmeyer in chunks of 4: Y, Y^2, Y^3, Y^4,
one product by Y^4 per part and B times the odd one, seven stacked matrix
products in all.  IEEE rounding is symmetric under sign, and X and -X have
the same 1-norm and so the same scaling count, so -B gives the same Y, the
same Ev and -Od, bit for bit but for the sign of an exact zero of Od.
exp(X) and exp(-X) therefore come from one power loop, as I + (Ev + Od) and
I + (Ev - Od), the identity added last; the Maurer-Cartan forms use this for
exp(x_2 B) and exp(-x_2 B) at each distinct x_2.
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


# 1/k!, k = 0..14: the Taylor coefficients of exp to degree 14
_TAYLOR = 1.0 / np.cumprod([1.0, *range(1, 15)])
# Segments per stacked exponential in integrate_path; bounds its working memory.
_BLOCK = 256


def _diagonal(S):
    """The diagonals of the stack S (m, n, n), as one writable (m, n) view."""
    n = S.shape[-1]
    return S.reshape(-1, n * n)[:, ::n + 1]


def _chunk(a, powers, t):
    """a_0 I + a_1 Y + a_2 Y^2 + a_3 Y^3 for powers (Y, Y^2, Y^3), formed in
    place, the identity term on the diagonal; a zero coefficient is skipped."""
    S = np.multiply(powers[0], a[1])
    for P, c in zip(powers[1:], a[2:]):
        if c:
            S += np.multiply(P, c, out=t)
    if a[0]:
        _diagonal(S)[...] += a[0]
    return S


@np.errstate(invalid="ignore")  # a non-finite matrix gives NaN in its own row
def _scaled_taylor(A):
    """(Ev, Od, s, shape): the scaling counts s of the matrices of ``A``,
    flattened to a stack (m, n, n), and the even and odd parts of T_14(B) - I
    at each scaled matrix B = A 2^-s, so that exp(A) is the s-fold square of
    I + (Ev + Od).  Both are polynomials in Y = B^2, evaluated by
    Paterson-Stockmeyer in chunks of 4 (module docstring)."""
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
    # finite (2.0 ** 1024 is inf, and A / inf would be 0); times NaN where the
    # norm is not finite, since the polynomial of an all-inf matrix reads inf
    B = A3 * np.where(np.isfinite(norm), np.ldexp(1.0, -s), np.nan)[:, None, None]
    Y = B @ B
    Y2 = Y @ Y
    powers, Y4 = (Y, Y2, Y2 @ Y), Y2 @ Y2
    t = np.empty_like(B)
    c = _TAYLOR
    Ev = Y4 @ _chunk(c[8::2], powers, t)
    Ev += _chunk([0.0, *c[2:8:2]], powers, t)
    Od = Y4 @ _chunk([*c[9::2], 0.0], powers, t)
    Od += _chunk(c[1:8:2], powers, t)
    return Ev, B @ Od, s, A.shape


@np.errstate(invalid="ignore")
def _squared(F, s):
    """I + F squared s times, in place: round r squares the matrices with s >= r."""
    _diagonal(F)[...] += 1.0
    for r in range(1, int(s.max(initial=0)) + 1):
        sel = s >= r
        X = F[sel]
        F[sel] = X @ X
    return F


def expm(A):
    """Matrix exponential of A, or of each matrix of a stack (..., n, n).

    Scaling-and-squaring with the degree-14 Taylor polynomial: each matrix
    is scaled by 2^-s, with s the least count bringing its 1-norm to at most
    1/2, and squared back s times.  Every matrix of a stack gets the same
    operations as it would alone, so a stacked result equals the per-matrix
    ones bit for bit.
    """
    Ev, Od, s, shape = _scaled_taylor(A)
    Ev += Od
    return _squared(Ev, s).reshape(shape)


def _expm_pm(A):
    """(expm(A), expm(-A)), bitwise, from one Taylor power loop.

    -A has the scaling counts of A, the even part of A and the odd part of
    A negated (module docstring), so both exponentials are I + (Ev +- Od),
    squared in one stack.
    """
    Ev, Od, s, shape = _scaled_taylor(A)
    m = len(s)
    F = np.empty((2 * m,) + Ev.shape[1:], Ev.dtype)
    np.add(Ev, Od, out=F[:m])
    np.subtract(Ev, Od, out=F[m:])
    E = _squared(F, np.concatenate([s, s]))
    return E[:m].reshape(shape), E[m:].reshape(shape)


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
        shape = np.shape(points)
        if len(shape) != 2 or shape[1] != self.domain_dim:
            raise ValueError(f"values_at needs an (n, d) array of points with d = "
                             f"{self.domain_dim}, got shape {shape}")
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
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 2:
            raise PathError(f"waypoints are an (m, d) array, got shape {self.waypoints.shape}")
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


def _group_path(form, path, steps):
    """``path`` as a GroupPath (waypoints take ``steps``); PathError off the form's domain."""
    path = path if isinstance(path, GroupPath) else GroupPath(path, steps)
    if (d := path.waypoints.shape[1]) != form.domain_dim:
        raise PathError(f"waypoints of dimension {d} for a form on R^{form.domain_dim}")
    return path


def integrate_path(form, path, steps=None):
    """Product integration of f^(-1) df = a along a path, f(start) = I.

    Midpoint exponential rule: per segment the increment exp(sum_i a_i(mid)
    dx_i) multiplies on the right; second-order accurate for flat forms.  The
    midpoint values of the whole path come from one ``values_at`` call; each
    distinct increment, by bit pattern, is exponentiated once; the running
    products of up to _BLOCK segments fill one stack, in path order; their
    |det| is logged per step, and an element that is not finite, or whose
    |det| is not finite or below 1e-12, raises ``BlowupError``.

    ``path`` is a ``GroupPath``, whose steps ``steps`` overrides for this
    integration, or an array of waypoints, which then needs ``steps``; its
    waypoints must have the form's ``domain_dim``, else ``PathError``.  The
    element and the determinant log are recorded on the ``GroupPath``.
    """
    path = _group_path(form, path, steps)
    return _product(path, *_distinct_expm(_exponents(form, *_segments(path, steps))))


@np.errstate(invalid="ignore")  # inf * 0 where a form is not finite
def _exponents(form, starts, ends):
    """The (m, k, k) increment exponents sum_i a_i(mid) dx_i of these
    segments, filled _BLOCK rows at a time from one ``values_at`` call."""
    vals, delta = form.values_at((starts + ends) / 2), ends - starts
    X = np.empty((len(delta), form.size, form.size), np.result_type(vals, delta))
    for lo in range(0, len(X), _BLOCK):
        v, dx = vals[lo:lo + _BLOCK], delta[lo:lo + _BLOCK]
        X[lo:lo + _BLOCK] = sum(v[:, i] * dx[:, i, None, None] for i in range(form.domain_dim))
    return X


def _distinct_expm(X):
    """(E, r): expm of each distinct matrix of X, by bit pattern, and each
    matrix's row of E.  Sorted by a weighted sum of their bits, equal matrices
    are adjacent; two distinct ones with equal sums cost an exponential more."""
    bits = X.reshape(-1, X.shape[-1] ** 2).view(np.int64)
    order = np.argsort(bits @ np.arange(1, 2 * bits.shape[1], 2))
    new = np.ones(len(X), bool)
    new[1:] = (bits[order[1:]] != bits[order[:-1]]).any(1)
    r = (np.cumsum(new) - 1)[np.argsort(order)]
    E = X[order[new]]
    for lo in range(0, len(E), _BLOCK):
        E[lo:lo + _BLOCK] = expm(E[lo:lo + _BLOCK])
    return E, r


@np.errstate(invalid="ignore")
def _product(path, E, r):
    """integrate_path over segments whose increments are the rows E[r]."""
    f = np.eye(E.shape[-1])
    path.det_log = []
    for lo in range(0, len(r), _BLOCK):
        P = np.empty_like(E, shape=r[lo:lo + _BLOCK].shape + E.shape[1:])
        for Ei, Pi in zip(E[r[lo:lo + _BLOCK]], P):
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
    forms, and of order enclosed-area x curvature otherwise.  The paths are
    checked as integrate_path checks one, and their increments are exponentiated
    together, so a ``values_fn`` error at B is raised before A is integrated; if
    A blows up, B's ``det_log`` is left untouched."""
    A, B = _group_path(form, path_a, steps), _group_path(form, path_b, steps)
    if not (np.linalg.norm(A.start - B.start) <= 1e-12
            and np.linalg.norm(A.end - B.end) <= 1e-12):  # NaN fails
        raise PathError("paths do not share endpoints")
    (sa, ea), (sb, eb) = _segments(A, steps), _segments(B, steps)
    E, r = _distinct_expm(_exponents(form, np.concatenate([sa, sb]), np.concatenate([ea, eb])))
    fa = _product(A, E, r[:len(sa)])
    return float(np.linalg.norm(fa - _product(B, E, r[len(sa):])))


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
    of the x_2 offset; exp(x_2 B) and its inverse come from one exponential pair.
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
        # a_1 once per distinct bit pattern of x_2, in blocks of _BLOCK to bound temporaries
        x = np.asarray(points, dtype=float)
        u, i = np.unique(x[:, 1].view(np.int64), return_inverse=True)
        X = u.view(float)[:, None, None] * B
        C = np.empty_like(X)
        for lo in range(0, len(X), _BLOCK):
            E, Em = _expm_pm(X[lo:lo + _BLOCK])
            C[lo:lo + _BLOCK] = Em @ A @ E
        out = np.empty((len(x), 2, k, k))
        out[:, 1] = B
        for lo in range(0, len(x), _BLOCK):
            out[lo:lo + _BLOCK, 0] = C[i[lo:lo + _BLOCK]]
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

"""Flat matrix-valued connection forms: residuals and product integration.

A form is given by its component evaluator; flatness is the zero-curvature
identity d_i a_j - d_j a_i + [a_i, a_j] = 0, which characterizes local
solvability of f^(-1) df = a with f(start) = identity.  Integration uses the
midpoint exponential rule (Iserles et al., "Lie-group methods", Acta Numerica
9, 2000), which is second-order accurate and keeps the accumulated element in
the group by construction.  Midpoint values come from ``values_fn(points)``,
which maps an (n, d) array of points to the (n, d, k, k) stack of component
values, and the increments of a whole block of segments from one call of
``expm``.  The matrix exponential is scaling-and-squaring with a diagonal
Pade(6) approximant at 1-norm 1/2 (the scheme of Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 2009, at a fixed degree); it acts on a stack
(..., n, n), and a 2-D input is the one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import JetSpace, dzbar, gradient, values
from .pairings import worst_residual


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
# Segments per stacked evaluation in integrate_path; bounds its working memory.
_BLOCK = 256


def expm(A):
    """Matrix exponential of A, or of each matrix of a stack (..., n, n).

    Scaling-and-squaring with Pade(6): each matrix is scaled by 2^-s, with
    s the least count bringing its 1-norm to at most 1/2, and squared back
    s times.  Every matrix of a stack gets the same operations as it would
    alone, so a stacked result equals the per-matrix ones bit for bit.
    """
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    n = A.shape[-1]
    A3 = A.reshape(-1, n, n)
    norm = np.abs(A3).sum(-2).max(-1)
    # least s >= 0 with norm / 2^s <= 1/2; 0 for a non-finite norm
    s = np.ceil(np.log2(np.fmax(norm / 0.5, 1.0)))
    s = np.where(np.isfinite(s), s, 0).astype(int)
    B = A3 / (2.0 ** s)[:, None, None]
    eye = np.eye(n, dtype=B.dtype)
    P = eye
    N = _PADE[0] * eye
    D = _PADE[0] * eye
    for k in range(1, len(_PADE)):
        P = P @ B
        N = N + _PADE[k] * P
        D = D + _PADE[k] * ((-1) ** k) * P
    E = np.linalg.solve(D, N)
    for r in range(1, int(s.max(initial=0)) + 1):
        E = np.where((s >= r)[:, None, None], E @ E, E)
    return E.reshape(A.shape)


class LieValuedForm:
    """Matrix-algebra-valued 1-form on R^d through a component evaluator.

    ``components(space)`` receives a :class:`JetSpace` at the evaluation
    point and must return d matrices of jets (object arrays or nested
    sequences) -- one per coordinate direction.  For integration only the
    constant terms are used; flatness needs order 1.  An optional
    ``values_fn(points)`` takes an (n, d) array of points and returns the
    (n, d, k, k) stack of component values, which short-circuits the jet
    machinery along integration paths.  Without it, ``components`` must also
    accept a batched :class:`JetSpace` over an (n, d) array of points: the
    values along a path are those of one batched evaluation.
    """

    def __init__(self, domain_dim, size, components, values_fn=None):
        self.domain_dim = int(domain_dim)
        self.size = int(size)
        self.components = components
        self.values_fn = values_fn

    def jets(self, x, order=1):
        space = JetSpace(np.asarray(x, dtype=float), order)
        return self.components(space)

    def values(self, x):
        """The (d, k, k) component values at one point."""
        return self.values_at(np.asarray(x, dtype=float)[None])[0]

    def values_at(self, points):
        """The (n, d, k, k) component values at the n rows of ``points``."""
        if self.values_fn is not None:
            return np.asarray(self.values_fn(points))
        return values(self.jets(points, order=0))

    @classmethod
    def constant(cls, matrices):
        matrices = np.stack(matrices)
        d, k = matrices.shape[:2]

        def components(space):
            return space.const_array(matrices)

        return cls(d, k, components,
                   values_fn=lambda pts: np.broadcast_to(matrices, (len(pts), d, k, k)))


def flatness_residual(form, pt):
    """max over i < j of |d_i a_j - d_j a_i + a_i a_j - a_j a_i| (Frobenius)."""
    comps = form.jets(pt, order=1)
    d = form.domain_dim
    vals, grad = values(comps), gradient(comps)
    return worst_residual([
        float(np.linalg.norm(grad[j, ..., i] - grad[i, ..., j]
                             + vals[i] @ vals[j] - vals[j] @ vals[i]))
        for i in range(d) for j in range(i + 1, d)])


@dataclass
class GroupPath:
    """Piecewise-linear integration path with its accumulated group element."""

    waypoints: np.ndarray
    steps: int
    element: np.ndarray = None
    det_log: list = field(default_factory=list)

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if self.waypoints.shape[0] < 2:
            raise PathError("a path needs at least two waypoints")

    @property
    def start(self):
        return self.waypoints[0]

    @property
    def end(self):
        return self.waypoints[-1]


def _segments(path):
    """Split the polyline into path.steps segments, proportionally to length.

    Returns the (m, d) arrays of segment starts and ends.
    """
    W = path.waypoints
    lengths = np.linalg.norm(np.diff(W, axis=0), axis=1)
    total = float(np.sum(lengths))
    if total == 0:
        return W[:0], W[:0]
    starts, ends = [], []
    counts = np.maximum(1, np.round(path.steps * lengths / total).astype(int))
    for (a, b), cnt in zip(zip(W[:-1], W[1:]), counts):
        i = np.arange(cnt)[:, None]
        starts.append(a + (b - a) * i / cnt)
        ends.append(a + (b - a) * (i + 1) / cnt)
    return np.concatenate(starts), np.concatenate(ends)


def integrate_path(form, path, steps=None):
    """Product integration of f^(-1) df = a along a path, f(start) = I.

    Midpoint exponential rule: per segment the increment exp(sum_i a_i(mid)
    dx_i) multiplies on the right.  Second-order accurate for flat forms; the
    determinant is logged per step and a collapse signals blow-up.  The
    midpoint values and increments are evaluated in stacks of up to _BLOCK
    segments; the product itself runs step by step, in path order.
    """
    if not isinstance(path, GroupPath):
        path = GroupPath(np.asarray(path), steps if steps is not None else 256)
    elif steps is not None:
        path = GroupPath(path.waypoints, steps)
    f = np.eye(form.size)
    path.det_log = []
    starts, ends = _segments(path)
    for lo in range(0, len(starts), _BLOCK):
        a, b = starts[lo:lo + _BLOCK], ends[lo:lo + _BLOCK]
        vals = form.values_at((a + b) / 2)
        delta = b - a
        M = sum(vals[:, i] * delta[:, i, None, None] for i in range(form.domain_dim))
        products = []
        for E in expm(M):
            f = f @ E
            products.append(f)
        for det in np.linalg.det(np.stack(products)):
            det = abs(det)
            path.det_log.append(float(det))
            if not np.isfinite(det) or det < 1e-12:
                raise BlowupError(
                    f"accumulated element is no longer invertible (|det| = {det:.2e})")
    path.element = f
    return np.real_if_close(f, tol=1000)


def path_independence_defect(form, path_a, path_b, steps):
    """|f_A - f_B| for two integrations with shared endpoints; zero for flat
    forms, and of order enclosed-area x curvature otherwise."""
    A = path_a if isinstance(path_a, GroupPath) else GroupPath(path_a, steps)
    B = path_b if isinstance(path_b, GroupPath) else GroupPath(path_b, steps)
    if (np.linalg.norm(A.start - B.start) > 1e-12
            or np.linalg.norm(A.end - B.end) > 1e-12):
        raise PathError("paths do not share endpoints")
    fa = integrate_path(form, A, steps)
    fb = integrate_path(form, B, steps)
    return float(np.linalg.norm(fa - fb))


def curvature_02_residual(gammas_fn, m, pt, order=1):
    """Antiholomorphic curvature residual of connection coefficient fields.

    ``gammas_fn(space)`` returns m matrices of jets over R^(2m); the residual
    is the max over i < j of |dzbar_i G_j - dzbar_j G_i + G_j G_i - G_i G_j|.
    Identically zero when m = 1: a single index leaves nothing to
    antisymmetrize, which is what makes surface domains special.
    """
    if m < 1:
        raise PathError("need m >= 1")
    if m == 1:
        return 0.0
    space = JetSpace(np.asarray(pt, dtype=float), order)
    gam = gammas_fn(space)
    vals, grad = values(gam), gradient(gam)
    return worst_residual([
        float(np.linalg.norm(dzbar(grad[j], i) - dzbar(grad[i], j)
                             + vals[j] @ vals[i] - vals[i] @ vals[j]))
        for i in range(m) for j in range(i + 1, m)])


# ---------------------------------------------------------------------------
# Maurer-Cartan pullbacks g^(-1) dg for g(x) = exp(x_1 A) exp(x_2 B)

def maurer_cartan_form(A, B):
    """The flat form g^(-1) dg of g(x) = exp(x_1 A) exp(x_2 B) on R^2.

    Components: a_1 = g^(-1) A g, a_2 = exp(-x_2 B) B exp(x_2 B); evaluated
    with jets via nilpotent expansion of the exponential offsets.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    k = A.shape[0]

    def components(space):
        x1, x2 = space.var(0), space.var(1)
        e1 = _jet_expm(A, x1, space)
        e2 = _jet_expm(B, x2, space)
        e1m = _jet_expm(-A, x1, space)
        e2m = _jet_expm(-B, x2, space)
        a1 = e2m @ e1m @ space.const_array(A) @ e1 @ e2
        a2 = e2m @ space.const_array(B) @ e2
        return [a1, a2]

    def values_fn(points):
        x1, x2 = points[:, 0, None, None], points[:, 1, None, None]
        e1, e2, e2m, e1m = expm(x1 * A), expm(x2 * B), expm(-x2 * B), expm(-x1 * A)
        ginv = e2m @ e1m
        return np.stack([ginv @ A @ e1 @ e2, e2m @ B @ e2], axis=1)

    return LieValuedForm(2, k, components, values_fn=values_fn)


def maurer_cartan_value(A, B, x):
    """g(x) = exp(x_1 A) exp(x_2 B) evaluated directly."""
    return expm(float(x[0]) * np.asarray(A)) @ expm(float(x[1]) * np.asarray(B))


def _jet_expm(M, scalar_jet, space):
    """exp(scalar * M) as a jet matrix: exp(c M) times the nilpotent series
    exp(delta M) with delta the offset part of the scalar jet."""
    c = scalar_jet.value.real
    delta = scalar_jet - scalar_jet.value
    out = term = space.const_array(expm(c * M))
    Mj = space.const_array(M)
    for n in range(1, space.order + 1):
        term = term @ Mj * delta / n
        out = out + term
    return out

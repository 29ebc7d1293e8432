"""Flat matrix-valued connection forms: residuals and product integration.

A form is given by its component evaluator; flatness is the zero-curvature
identity d_i a_j - d_j a_i + [a_i, a_j] = 0, which characterizes local
solvability of f^(-1) df = a with f(start) = identity.  Integration uses the
midpoint exponential rule, which is second-order accurate and keeps the
accumulated element in the group by construction.  The matrix exponential is
scaling-and-squaring with a diagonal Pade(6) approximant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import JetSpace, dzbar, gradient, values


class BlowupError(RuntimeError):
    pass


class PathError(ValueError):
    pass


def expm(A):
    """Matrix exponential by scaling-and-squaring with Pade(6)."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    norm = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    B = A / (2.0 ** s)
    m = 6
    c = np.empty(m + 1)
    c[0] = 1.0
    for k in range(m):
        c[k + 1] = c[k] * (m - k) / ((2 * m - k) * (k + 1))
    n = A.shape[0]
    P = np.eye(n, dtype=B.dtype)
    N = c[0] * np.eye(n, dtype=B.dtype)
    D = c[0] * np.eye(n, dtype=B.dtype)
    for k in range(1, m + 1):
        P = P @ B
        N = N + c[k] * P
        D = D + c[k] * ((-1) ** k) * P
    E = np.linalg.solve(D, N)
    for _ in range(s):
        E = E @ E
    return E


class LieValuedForm:
    """Matrix-algebra-valued 1-form on R^d through a component evaluator.

    ``components(space)`` receives a :class:`JetSpace` at the evaluation
    point and must return a list of d matrices (nested lists of jets) -- one
    per coordinate direction.  For integration only the constant terms are
    used; flatness needs order 1.  An optional ``values_fn(x)`` returning
    plain arrays short-circuits the jet machinery along integration paths.
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
        if self.values_fn is not None:
            return [np.asarray(M) for M in self.values_fn(np.asarray(x, dtype=float))]
        return list(values(self.jets(x, order=0)))

    @classmethod
    def constant(cls, matrices):
        matrices = [np.asarray(M) for M in matrices]
        d, k = len(matrices), matrices[0].shape[0]

        def components(space):
            return [[[space.const(M[a, b]) for b in range(k)] for a in range(k)]
                    for M in matrices]

        return cls(d, k, components, values_fn=lambda x: matrices)


def flatness_residual(form, pt):
    """max over i < j of |d_i a_j - d_j a_i + a_i a_j - a_j a_i| (Frobenius)."""
    comps = form.jets(pt, order=1)
    d = form.domain_dim
    vals, grad = values(comps), gradient(comps)
    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            curv = grad[j, ..., i] - grad[i, ..., j] + vals[i] @ vals[j] - vals[j] @ vals[i]
            worst = max(worst, float(np.linalg.norm(curv)))
    return worst


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
    """Split the polyline into path.steps segments, proportionally to length."""
    W = path.waypoints
    lengths = np.linalg.norm(np.diff(W, axis=0), axis=1)
    total = float(np.sum(lengths))
    if total == 0:
        return []
    segs = []
    counts = np.maximum(1, np.round(path.steps * lengths / total).astype(int))
    for (a, b), cnt in zip(zip(W[:-1], W[1:]), counts):
        for i in range(cnt):
            segs.append((a + (b - a) * i / cnt, a + (b - a) * (i + 1) / cnt))
    return segs


def integrate_path(form, path, steps=None):
    """Product integration of f^(-1) df = a along a path, f(start) = I.

    Midpoint exponential rule: per segment the increment exp(sum_i a_i(mid)
    dx_i) multiplies on the right.  Second-order accurate for flat forms; the
    determinant is logged per step and a collapse signals blow-up.
    """
    if not isinstance(path, GroupPath):
        path = GroupPath(np.asarray(path), steps if steps is not None else 256)
    elif steps is not None:
        path = GroupPath(path.waypoints, steps)
    k = form.size
    f = np.eye(k)
    path.det_log = []
    for a, b in _segments(path):
        mid = (a + b) / 2
        delta = b - a
        vals = form.values(mid)
        M = sum(vals[i] * delta[i] for i in range(form.domain_dim))
        f = f @ expm(M)
        det = abs(np.linalg.det(f))
        path.det_log.append(float(det))
        if not np.isfinite(det) or det < 1e-12:
            raise BlowupError(f"accumulated element is no longer invertible (|det| = {det:.2e})")
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


def curvature_02_residual(gammas_fn, m, size, pt, order=1):
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
    worst = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            curv = (dzbar(grad[j], i) - dzbar(grad[i], j)
                    + vals[j] @ vals[i] - vals[i] @ vals[j])
            worst = max(worst, float(np.linalg.norm(curv)))
    return worst


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
        a1 = _mm(_mm(_mm(_mm(e2m, e1m, space), _const_mat(A, space), space), e1, space),
                 e2, space)
        a2 = _mm(_mm(e2m, _const_mat(B, space), space), e2, space)
        return [a1, a2]

    def values_fn(x):
        e1 = expm(x[0] * A)
        e2 = expm(x[1] * B)
        ginv = expm(-x[1] * B) @ expm(-x[0] * A)
        return [ginv @ A @ e1 @ e2, expm(-x[1] * B) @ B @ e2]

    return LieValuedForm(2, k, components, values_fn=values_fn)


def maurer_cartan_value(A, B, x):
    """g(x) = exp(x_1 A) exp(x_2 B) evaluated directly."""
    return expm(float(x[0]) * np.asarray(A)) @ expm(float(x[1]) * np.asarray(B))


def _const_mat(M, space):
    k = M.shape[0]
    return [[space.const(M[a, b]) for b in range(k)] for a in range(k)]


def _mm(X, Y, space):
    k = len(X)
    return [[sum((X[a][c] * Y[c][b] for c in range(k)), space.const(0.0))
             for b in range(k)] for a in range(k)]


def _jet_expm(M, scalar_jet, space):
    """exp(scalar * M) as a jet matrix: exp(c M) times the nilpotent series
    exp(delta M) with delta the offset part of the scalar jet."""
    k = M.shape[0]
    c = scalar_jet.value.real
    base = expm(c * M)
    delta = scalar_jet - scalar_jet.value
    out = _const_mat(base, space)
    term = _const_mat(base, space)
    Mj = _const_mat(M, space)
    for n in range(1, space.order + 1):
        term = _mm(term, Mj, space)
        term = [[e * delta / n for e in row] for row in term]
        out = [[out[a][b] + term[a][b] for b in range(k)] for a in range(k)]
    return out

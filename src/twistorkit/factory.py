"""Construction of harmonic morphisms from holomorphic twistor data.

The Euclidean pipeline validates data (z, xi) -> (h(z, xi), mu(z)): the chart
image must be holomorphic in all complex inputs, mu must not depend on the
fibre variables xi (horizontality), and h must be a local diffeomorphism.
The produced map is then the first factor of h^(-1); for one-dimensional z it
is a harmonic morphism.  Derivatives of the produced map come from implicit
differentiation (series inversion of the jet of h), never from differencing
Newton iterates.

The complex-projective pipeline checks the algebraic data (alpha, beta,
gamma, delta, w) of flag-manifold lines: the defining constraints, the
homogeneous coordinate formulas, and the local-diffeomorphism Jacobian of
the affine chart.  The homogeneous coordinates x1-x4 are one jet formula in
the fields: the point is its order-0 values, and the chart Jacobian is the
gradient of (x1/x3, x2/x3, x4/x3) from it at order 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import (
    JetError,
    JetSpace,
    SmoothMap,
    _as_real_point,
    _horner,
    _real_split,
    dz,
    dzbar,
    gradient,
    invert_jet_map,
    real_to_complex_point,
    values,
)
from .pairings import _modulus, _per_point, _raise_first, _svdvals, _worst_modulus
from .structures import twistor_chart

NEWTON_MAX_ITER = 50
NEWTON_TARGET = 1e-12


class SingularJacobianError(RuntimeError):
    pass


class NewtonDivergenceError(RuntimeError):
    pass


@dataclass
class EuclideanTwistorData:
    """Holomorphic twistor data over C^n x C^p for a map into R^(2(n+p)).

    ``h`` is a :class:`SmoothMap` R^(2(n+p)) -> R^(2(n+p)) and ``mu`` a
    :class:`SmoothMap` into the chart-parameter space (real dimension
    k(k-1), k = n+p).
    """

    n: int
    p: int
    h: SmoothMap
    mu: SmoothMap

    @property
    def k(self):
        return self.n + self.p


def verify_horizontality(data, pt):
    """max modulus of the Wirtinger xi-derivatives of mu at a point, or one
    per row of an (N, 2k) array of points.

    Zero iff mu is independent of the fibre variables, which is exactly the
    horizontality of the data in its second argument.
    """
    grad = gradient(data.mu.jets(pt, 1))
    return _worst_modulus(np.concatenate(
        [d(grad, v) for v in range(data.n, data.k) for d in (dz, dzbar)], axis=-1).T)


def verify_chart_holomorphy(data, pt):
    """max antiholomorphic derivative of the chart image (w, mu) at a point,
    or one per row of an (N, 2k) array of points.

    Computes w = chart(h(z, xi), mu(z)) in jet arithmetic and measures
    d/dzbar_i w, d/dxibar_i w and d/dzbar_i mu; all vanish iff the data is
    holomorphic through the chart.
    """
    mu = data.mu.complex_jets(pt, 1)
    w, _ = twistor_chart(data.h.complex_jets(pt, 1), mu)
    return _worst_modulus(np.concatenate(
        [dzbar(grad, v) for grad, count in ((gradient(w), data.k), (gradient(mu), data.n))
         for v in range(count)], axis=-1).T)


def jacobian_min_sv(h, pt):
    """Smallest singular value of the full real Jacobian of h at a point;
    positive iff h is a local diffeomorphism there, NaN where the Jacobian
    is not finite."""
    return _per_point(_svdvals(h.jacobian(pt))[..., -1])


@dataclass
class NewtonRecord:
    """Residual norm of each Newton iterate, one list per row, also for one
    point; converged when it holds a row and each row ends at the target."""

    residuals: list = field(default_factory=list)

    @property
    def converged(self):
        rows = self.residuals
        return bool(rows) and all(r and r[-1] <= NEWTON_TARGET for r in rows)


def invert_h(data, target_q, seed_point, record=None):
    """Newton inversion of h: returns the real preimage point of target_q.

    Targets and seeds broadcast over leading axes: at (..., 2k) arrays each
    row is solved as on its own, bitwise, with h evaluated once per
    iteration at all rows still moving.  A row stops once its residual has
    met the 1e-12 target and it has taken one more step.  Raises
    :class:`JetError` at a non-finite target or seed,
    :class:`SingularJacobianError` when the Jacobian is not finite or
    singular at an iterate and :class:`NewtonDivergenceError` when 50
    iterations do not reach the target, naming the row for a batch;
    per-iteration residuals land in ``record`` so that quadratic
    convergence can be audited.
    """
    K = 2 * data.k
    target = _as_real_point(target_q, K)
    y = _as_real_point(seed_point, K)
    if target.shape != y.shape:
        shape = np.broadcast_shapes(target.shape, y.shape)
        target, y = np.broadcast_to(target, shape), np.broadcast_to(y, shape).copy()
    shape = y.shape
    # y stays one point, not a batch of one (the bits are the same): h is
    # cheaper there, and a batch of one took perfbench morphism
    # verdict_s.p50 from 0.0317-0.0366 s to 0.0370-0.0394 s (3 pairs)
    one = len(shape) == 1
    if not one:
        target, y = target.reshape(-1, K), y.reshape(-1, K)
    out = y.reshape(-1, K).copy()
    rec = record if record is not None else NewtonRecord()
    if not (np.isfinite(target).all() and np.isfinite(y).all()):
        _raise_first(JetError, [(~np.isfinite(target).all(axis=-1), "the target is not finite"),
                                (~np.isfinite(y).all(axis=-1), "the seed is not finite")])
    logs = [[] for _ in out]
    rec.residuals.extend(logs)
    if not len(out):
        return out.reshape(shape)
    live = list(range(len(out)))  # the rows still moving; y and target follow them
    polished = [False] * len(out)
    for _ in range(NEWTON_MAX_ITER):
        jets = data.h.jets(y, 1)
        diff = values(jets).real - target
        # bitwise the 1-D np.linalg.norm of each row, a dot product that sums
        # in another order than np.sum or einsum
        # (test_newton_residual_log_is_the_one_dimensional_norm_bitwise)
        res = np.sqrt(diff[..., None, :] @ diff[..., :, None]).reshape(-1).tolist()
        moving = []
        for i, r in enumerate(live):
            logs[r].append(res[i])
            if res[i] <= NEWTON_TARGET and polished[i]:
                out[r] = y.reshape(-1, K)[i]
            else:
                moving.append(i)
        polished = [res[i] <= NEWTON_TARGET for i in moving]  # one extra step past the target
        keep = slice(None)
        if len(moving) < len(live):
            if not moving:
                return out.reshape(shape)
            live, keep = [live[i] for i in moving], moving
            y, target, diff = y[keep], target[keep], diff[keep]
        D = gradient(jets).real[keep]
        if not np.isfinite(D).all():  # before LAPACK, which fails on NaN and complains on inf
            bad = ~np.isfinite(D).all(axis=(-2, -1)).reshape(-1)
            raise SingularJacobianError(
                f"{_row(one, live[np.argmax(bad)])}Jacobian is not finite at iterate")
        _check_conditioning(D, live, one)
        y = y - np.linalg.solve(D, diff[..., None])[..., 0]
    raise NewtonDivergenceError(
        f"{_row(one, live[0])}no convergence after {NEWTON_MAX_ITER} iterations "
        f"(last residual {logs[live[0]][-1]:.2e})")


def _check_conditioning(D, live, one):
    """Raise :class:`SingularJacobianError` at the first row of the (..., K,
    K) stack D, in ``live`` order, whose singular values fail the rule
    sigma_min >= 1e-10 * max(1, sigma_max); ``live[i]`` names row i."""
    K = D.shape[-1]
    # The SVD is the rule; a cheaper bound clears most rows before it.  For
    # a K x K matrix |det D| = prod sigma_i <= sigma_min * ||D||_F^(K-1) and
    # sigma_max <= ||D||_F, so a row with
    #   |det D| > 2e-10 * max(1, ||D||_F) * ||D||_F^(K-1)
    # has sigma_min > 2e-10 * max(1, sigma_max) and passes the rule with a
    # factor 2 to spare, which covers the rounding of LU in det (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 9).
    # The test is strict, so a zero matrix goes on to the SVD, and an
    # overflow reads inf or NaN, which clears nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        fro = np.sqrt((D * D).sum(axis=(-2, -1)))
        cleared = np.abs(np.linalg.det(D)) > 2e-10 * np.maximum(1.0, fro) * fro ** (K - 1)
    if cleared.all():  # no SVD, not even of an empty stack (costly at one point)
        return
    doubtful = np.flatnonzero(~cleared)
    sv = np.linalg.svd(D.reshape(-1, K, K)[doubtful], compute_uv=False)
    for i, lo, hi in zip(doubtful.tolist(), sv[:, -1].tolist(), sv[:, 0].tolist()):
        if lo < 1e-10 * max(1.0, hi):
            raise SingularJacobianError(
                f"{_row(one, live[i])}Jacobian is singular or ill-conditioned at iterate "
                f"(singular values {lo:.2e} to {hi:.2e})")


def _row(one, r):
    """The prefix naming row r in an error message, empty for one point."""
    return "" if one else f"row {r}: "


def evaluate_morphism(data, q, seed_point):
    """First complex factor of h^(-1)(q): the constructed map at q, or at
    each row of an (..., 2k) array of points, by Newton from ``seed_point``."""
    y = invert_h(data, q, seed_point)
    return real_to_complex_point(y)[..., : data.n]


def morphism_as_map(data, seed_fn):
    """The constructed map as a :class:`SmoothMap`, with implicit-series jets.

    At each point the jet of h is inverted as a power series around the
    Newton preimage, so derivatives of pi_1 h^(-1) are exact given the
    preimage; nothing is finite-differenced.  Order-0 jets are the
    preimage's first factor alone.

    ``seed_fn`` maps a point to the Newton start and must be a function of
    the point, as the :class:`SmoothMap` contract asks: the map keeps the
    preimage of the last point it solved for and reuses it when the same
    point is asked for again at another order, as a residual's jets and
    then the map's value are.
    """
    kept = [None, None]  # (bytes, shape) of the last point solved, its preimage

    def evaluator(point, order):
        key = (point.tobytes(), point.shape)
        if kept[0] != key:
            kept[:] = [key, invert_h(data, point, seed_fn(point))]
        y = kept[1]
        if order == 0:
            # bitwise the series inverse's constant term plus y
            return JetSpace(point, 0).const(y[..., : 2 * data.n])
        return invert_jet_map(data.h.jets(y, order))[: 2 * data.n] + y[..., : 2 * data.n]

    return SmoothMap(2 * data.k, 2 * data.n, evaluator)


# ---------------------------------------------------------------------------
# complex-projective data

@dataclass
class CP3Data:
    """Holomorphic line data over C^nz x C^nxi.

    Each of alpha, beta, gamma, delta, w maps a list of nz + nxi complex jets
    to one complex jet.  u and v are derived so the first two defining
    constraints hold identically: u = gamma - alpha w, v = delta - beta w.
    """

    nz: int
    nxi: int
    alpha: object
    beta: object
    gamma: object
    delta: object
    w: object

    @property
    def nvars(self):
        return self.nz + self.nxi

    def fields(self, pt, order=1):
        zs = JetSpace(_as_real_point(pt, 2 * self.nvars), order).complex_vars()
        a, b, g, d, w = (f(zs) for f in (self.alpha, self.beta, self.gamma, self.delta, self.w))
        return a, b, g, d, w, g - a * w, d - b * w


def cp3_constraints_residual(data, pt):
    """max magnitude of the four defining constraints at a sample point, or
    one per row of an (N, 2 nvars) array of points.

    The first two vanish by construction of u and v; the last two are the
    horizontality lines w d_xi alpha = d_xi gamma and w d_xi beta = d_xi
    delta.  For polynomial data at dyadic points all four are exactly zero.
    """
    a, b, g, d, w, u, v = data.fields(pt, order=1)
    constraints = [u + a * w - g, v + b * w - d]
    for i in range(data.nz, data.nvars):
        constraints += [w * dz(a, i) - dz(g, i), w * dz(b, i) - dz(d, i)]
    return _worst_modulus(values(constraints).T)


def _cp3_jets(data, pt, order):
    """The fields (a, b, g, d, w, u, v) and the coordinates (x1, x2, x3, x4)
    as jets of the given order, at a point or an (N, 2 nvars) array, and the
    values of x1-x4; raises where one is not finite (finite ones never all vanish)."""
    a, b, g, d, w, u, v = fields = data.fields(pt, order)
    ca, cb, cg, cd = a.conj(), b.conj(), g.conj(), d.conj()
    x1 = cg * (cb * d - b * cb * w - w) + ca * (cd * b * w - d * cd - 1)
    x2 = cd * (ca * g - a * ca * w - w) + cb * (cg * a * w - g * cg - 1)
    x3 = 1 + g * cg + d * cd - w * (cg * a + cd * b)
    x4 = w * (1 + a * ca + b * cb) - (ca * g + cb * d)
    x = values([x1, x2, x3, x4])
    _raise_first(JetError, [(~np.isfinite(x).all(axis=-1), "homogeneous coordinates not finite")])
    return fields, (x1, x2, x3, x4), x


def cp3_point(data, pt):
    """Homogeneous coordinates [x1 : x2 : x3 : x4] of the data at a point,
    or one row of them per row of an (N, 2 nvars) array of points."""
    return _cp3_jets(data, pt, 0)[2]


def cp3_linear_system_residual(data, pt):
    """Consistency of the x formulas with their defining linear system:
    x1 u + x2 v + x3 w - x4 and the two conjugate-plane equations; one
    residual per row of an (N, 2 nvars) array of points."""
    (a, b, g, d, w, u, v), (x1, x2, x3, x4), x = _cp3_jets(data, pt, 0)
    scale = np.maximum(1.0, np.max(_modulus(x), axis=-1))
    equations = [x1 * u + x2 * v + x3 * w - x4, x1 + x3 * a.conj() + x4 * g.conj(),
                 x2 + x3 * b.conj() + x4 * d.conj()]
    return _per_point(np.max(_modulus(values(equations)), axis=-1) / scale)


def cp3_affine_jacobian(data, pt):
    """Real Jacobian of the affine chart (x1/x3, x2/x3, x4/x3) at a point, a
    (6, 2 nvars) array, or one per row of an (N, 2 nvars) array of points."""
    _, (x1, x2, x3, x4), x = _cp3_jets(data, pt, 1)
    _raise_first(JetError, [(_modulus(x[..., 2]) < 1e-12,
                             "affine chart invalid: x3 vanishes at the point")])
    return gradient(_real_split([x1 / x3, x2 / x3, x4 / x3])).real


def cp3_local_diffeo_check(data, pt):
    """Smallest singular value of the affine-chart Jacobian; positive iff the
    data defines a local diffeomorphism near the point.  One value per row
    of an (N, 2 nvars) array of points."""
    return _per_point(_svdvals(cp3_affine_jacobian(data, pt))[..., -1])


# ---------------------------------------------------------------------------
# built-in examples

def euclid_r6_data(f_coeffs=(0.0, 1.0)):
    """Twistor data over C x C^2 whose produced map is a harmonic morphism
    R^6 -> C.

    With f(z) = sum f_coeffs[k] z^k, the fibre over z sits inside
    q3 = f(z) + xi1 + xi2 and the chart image is ((xi1, xi2, f(z) + xi1 +
    xi2), (z, 0, 0)); for f(z) = z the produced map has the closed form
    (q3 - q1 - q2) / (1 + conj(q1) - conj(q2)).
    """
    f_coeffs = list(f_coeffs)

    def h_fn(z, x1, x2):
        # one reciprocal for both quotients: a / b is a * b.reciprocal()
        inv = (1 + z * z.conj()).reciprocal()
        q1 = (x1 + z * x2.conj()) * inv
        q2 = (x2 - z * x1.conj()) * inv
        q3 = _horner(f_coeffs, z) + x1 + x2
        return [q1, q2, q3]

    def mu_fn(z, x1, x2):
        zero = 0.0 * z
        return [z, zero, zero]

    h = SmoothMap.from_complex(3, 3, h_fn)
    mu = SmoothMap.from_complex(3, 3, mu_fn)
    return EuclideanTwistorData(n=1, p=2, h=h, mu=mu)


def closed_form_r6():
    """The closed-form morphism of the f(z) = z data as a SmoothMap."""

    def fn(q1, q2, q3):
        return [(q3 - q1 - q2) / (1 + q1.conj() - q2.conj())]

    return SmoothMap.from_complex(3, 1, fn)


def implicit_equation_residual(z, q, f_coeffs=(0.0, 1.0)):
    """|f(z) + q1 + q2 + z (conj q1 - conj q2) - q3| for the f of
    :func:`euclid_r6_data`, f(z) = sum f_coeffs[k] z^k."""
    q = np.asarray(q, dtype=complex)
    return abs(_horner(f_coeffs, z) + q[0] + q[1] + z * (np.conj(q[0]) - np.conj(q[1])) - q[2])


def cp3_example1_data():
    """Line data over C^2 x C with polynomial entries; constraints hold as
    polynomial identities."""
    return CP3Data(
        nz=2, nxi=1,
        alpha=lambda zs: zs[2] + zs[0],
        beta=lambda zs: zs[2] + zs[1],
        gamma=lambda zs: zs[2] * zs[2] + zs[0],
        delta=lambda zs: zs[2] * zs[2] + zs[1],
        w=lambda zs: 2 * zs[2],
    )


def cp3_morphism_data(P=(0.0, 1.0), Q=(0.0, 1.0), R=(0.0, 1.0)):
    """Harmonic-morphism data over C x C^2: w = P(z), alpha = Q(xi1),
    beta = i R(xi2), gamma = w alpha, delta = w beta."""
    P, Q, R = list(P), list(Q), list(R)
    return CP3Data(
        nz=1, nxi=2,
        alpha=lambda zs: _horner(Q, zs[1]),
        beta=lambda zs: 1j * _horner(R, zs[2]),
        gamma=lambda zs: _horner(P, zs[0]) * _horner(Q, zs[1]),
        delta=lambda zs: _horner(P, zs[0]) * (1j * _horner(R, zs[2])),
        w=lambda zs: _horner(P, zs[0]),
    )


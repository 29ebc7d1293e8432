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
the affine chart.
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
    dz,
    dzbar,
    gradient,
    invert_jet_map,
    real_to_complex_point,
    values,
)
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


def verify_horizontality(data, samples):
    """max over samples of all Wirtinger xi-derivatives of mu.

    Zero iff mu is independent of the fibre variables, which is exactly the
    horizontality of the data in its second argument.
    """
    worst = 0.0
    for pt in samples:
        grad = gradient(data.mu.jets(pt, 1))
        # Python abs per entry here and below: np.abs on an array can differ
        # from it in the last bit
        for v in range(data.n, data.k):
            worst = max(worst, *map(abs, dz(grad, v)), *map(abs, dzbar(grad, v)))
    return worst


def verify_chart_holomorphy(data, samples):
    """max antiholomorphic derivative of the chart image (w, mu).

    Computes w = chart(h(z, xi), mu(z)) in jet arithmetic and measures
    d/dzbar_i w, d/dxibar_i w and d/dzbar_i mu; all vanish iff the data is
    holomorphic through the chart.
    """
    worst = 0.0
    for pt in samples:
        q = data.h.complex_jets(pt, 1)
        mu = data.mu.complex_jets(pt, 1)
        w, _ = twistor_chart(q, mu)
        for grad, count in ((gradient(w), data.k), (gradient(mu), data.n)):
            for v in range(count):
                worst = max(worst, *map(abs, dzbar(grad, v)))
    return worst


def jacobian_min_sv(h, pt):
    """Smallest singular value of the full real Jacobian of h at a point;
    positive iff h is a local diffeomorphism there."""
    D = h.jacobian(pt)
    return float(np.linalg.svd(D, compute_uv=False)[-1])


@dataclass
class NewtonRecord:
    residuals: list = field(default_factory=list)

    @property
    def converged(self):
        return bool(self.residuals) and self.residuals[-1] <= NEWTON_TARGET


def invert_h(data, target_q, seed_point, record=None):
    """Newton inversion of h: returns the real preimage point of target_q.

    Raises :class:`SingularJacobianError` when the Jacobian degenerates along
    the way and :class:`NewtonDivergenceError` when 50 iterations do not
    reach the 1e-12 residual target; per-iteration residuals land in
    ``record`` so that quadratic convergence can be audited.
    """
    target = _as_real_point(target_q, 2 * data.k)
    y = _as_real_point(seed_point, 2 * data.k)
    rec = record if record is not None else NewtonRecord()
    polished = False
    for _ in range(NEWTON_MAX_ITER):
        jets = data.h.jets(y, 1)
        val = values(jets).real
        res = float(np.linalg.norm(val - target))
        rec.residuals.append(res)
        if res <= NEWTON_TARGET and polished:
            return y
        polished = res <= NEWTON_TARGET  # one extra step past the target
        D = gradient(jets).real
        sv = np.linalg.svd(D, compute_uv=False)
        if sv[-1] < 1e-10 * max(1.0, sv[0]):
            raise SingularJacobianError(
                f"Jacobian is singular at iterate (min sv {sv[-1]:.2e})")
        y = y - np.linalg.solve(D, val - target)
    raise NewtonDivergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations "
        f"(last residual {rec.residuals[-1]:.2e})")


def evaluate_morphism(data, q, seed_point=None):
    """First complex factor of h^(-1)(q): the constructed map at q."""
    seed = seed_point if seed_point is not None else np.zeros(2 * data.k)
    y = invert_h(data, q, seed)
    return real_to_complex_point(y)[: data.n]


def morphism_as_map(data, seed_fn=None):
    """The constructed map as a :class:`SmoothMap`, with implicit-series jets.

    At each point the jet of h is inverted as a power series around the
    Newton preimage, so derivatives of pi_1 h^(-1) are exact given the
    preimage; nothing is finite-differenced.
    """
    K = 2 * data.k

    def evaluator(point, order):
        seed = seed_fn(point) if seed_fn is not None else np.zeros(K)
        y = invert_h(data, point, seed)
        F = data.h.jets(y, max(order, 1))
        G = invert_jet_map(F)
        out = []
        for i in range(2 * data.n):
            g = G[i] + y[i]
            out.append(g)
        return out

    return SmoothMap(K, 2 * data.n, evaluator, name="factory-morphism")


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
        space = JetSpace(_as_real_point(pt, 2 * self.nvars), order)
        zs = space.complex_vars()
        a = self.alpha(zs)
        b = self.beta(zs)
        g = self.gamma(zs)
        d = self.delta(zs)
        w = self.w(zs)
        u = g - a * w
        v = d - b * w
        return a, b, g, d, w, u, v


def cp3_constraints_residual(data, pt):
    """max magnitude of the four defining constraints at a sample point.

    The first two vanish by construction of u and v; the last two are the
    horizontality lines w d_xi alpha = d_xi gamma and w d_xi beta = d_xi
    delta.  For polynomial data at dyadic points all four are exactly zero.
    """
    a, b, g, d, w, u, v = data.fields(pt, order=1)
    worst = max(abs((u + a * w - g).value), abs((v + b * w - d).value))
    for i in range(data.nz, data.nvars):
        worst = max(worst, abs((w * dz(a, i) - dz(g, i)).value))
        worst = max(worst, abs((w * dz(b, i) - dz(d, i)).value))
    return worst


def cp3_point(data, pt):
    """Homogeneous coordinates [x1 : x2 : x3 : x4] of the data at a point."""
    a, b, g, d, w, u, v = (f.value for f in data.fields(pt, order=0))
    ca, cb, cg, cd = np.conj(a), np.conj(b), np.conj(g), np.conj(d)
    x1 = cg * (cb * d - abs(b) ** 2 * w - w) + ca * (cd * b * w - abs(d) ** 2 - 1)
    x2 = cd * (ca * g - abs(a) ** 2 * w - w) + cb * (cg * a * w - abs(g) ** 2 - 1)
    x3 = 1 + abs(g) ** 2 + abs(d) ** 2 - w * (cg * a + cd * b)
    x4 = w * (1 + abs(a) ** 2 + abs(b) ** 2) - (ca * g + cb * d)
    x = np.array([x1, x2, x3, x4])
    if np.max(np.abs(x)) < 1e-14:
        raise JetError("degenerate data: all homogeneous coordinates vanish")
    return x


def cp3_linear_system_residual(data, pt):
    """Consistency of the x formulas with their defining linear system:
    x1 u + x2 v + x3 w - x4 and the two conjugate-plane equations."""
    a, b, g, d, w, u, v = (f.value for f in data.fields(pt, order=0))
    x1, x2, x3, x4 = cp3_point(data, pt)
    scale = max(1.0, float(np.max(np.abs([x1, x2, x3, x4]))))
    r1 = abs(x1 * u + x2 * v + x3 * w - x4)
    r2 = abs(x1 + x3 * np.conj(a) + x4 * np.conj(g))
    r3 = abs(x2 + x3 * np.conj(b) + x4 * np.conj(d))
    return max(r1, r2, r3) / scale


def cp3_affine_jacobian(data, pt):
    """Real Jacobian of the affine chart (x1/x3, x2/x3, x4/x3) at a point."""
    a, b, g, d, w, u, v = data.fields(pt, order=1)
    ca, cb, cg, cd = a.conj(), b.conj(), g.conj(), d.conj()
    x1 = cg * (cb * d - b * cb * w - w) + ca * (cd * b * w - d * cd - 1)
    x2 = cd * (ca * g - a * ca * w - w) + cb * (cg * a * w - g * cg - 1)
    x3 = 1 + g * cg + d * cd - w * (cg * a + cd * b)
    x4 = w * (1 + a * ca + b * cb) - (ca * g + cb * d)
    if abs(x3.value) < 1e-12:
        raise JetError("affine chart invalid: x3 vanishes at the point")
    chart = [x1 / x3, x2 / x3, x4 / x3]
    return gradient([[c.real, c.imag] for c in chart]).real.reshape(6, -1).copy()


def cp3_local_diffeo_check(data, pt):
    """Smallest singular value of the affine-chart Jacobian; positive iff the
    data defines a local diffeomorphism near the point."""
    D = cp3_affine_jacobian(data, pt)
    return float(np.linalg.svd(D, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# built-in example registry

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
        den = 1 + z * z.conj()
        q1 = (x1 + z * x2.conj()) / den
        q2 = (x2 - z * x1.conj()) / den
        q3 = _horner(f_coeffs, z) + x1 + x2
        return [q1, q2, q3]

    def mu_fn(z, x1, x2):
        zero = 0.0 * z
        return [z, zero, zero]

    h = SmoothMap.from_complex(3, 3, h_fn, name="euclid-r6-h")
    mu = SmoothMap.from_complex(3, 3, mu_fn, name="euclid-r6-mu")
    return EuclideanTwistorData(n=1, p=2, h=h, mu=mu)


def closed_form_r6(f_coeffs=(0.0, 1.0)):
    """The closed-form morphism of the f(z) = z data as a SmoothMap; only
    valid for that f."""
    if list(f_coeffs) != [0.0, 1.0]:
        raise ValueError("closed form is only available for f(z) = z")

    def fn(q1, q2, q3):
        return [(q3 - q1 - q2) / (1 + q1.conj() - q2.conj())]

    return SmoothMap.from_complex(3, 1, fn, name="euclid-r6-closed-form")


def implicit_equation_residual(z, q):
    """|f(z) + q1 + q2 + z (conj q1 - conj q2) - q3| for f(z) = z."""
    q = np.asarray(q, dtype=complex)
    return abs(z + q[0] + q[1] + z * (np.conj(q[0]) - np.conj(q[1])) - q[2])


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


REGISTRY = {
    "euclid-r6-f=z": (
        "Euclidean twistor data over C x C^2 producing the R^6 -> C harmonic morphism",
        euclid_r6_data,
    ),
    "cp3-example-1": (
        "polynomial line data over C^2 x C with superminimal-fibre image",
        cp3_example1_data,
    ),
    "cp3-harmonic-morphism": (
        "line data over C x C^2 producing a harmonic morphism with superminimal fibres",
        cp3_morphism_data,
    ),
}


def registry_build(name, **params):
    if name not in REGISTRY:
        raise KeyError(f"unknown example {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name][1](**params)

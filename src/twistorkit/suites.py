"""Named verification suites runnable from the command line.

Each suite is a list of named checks; a check draws its own reproducible
random stream (PCG64 seeded from SHA-256 of "<seed>:<suite>:<check>", first
8 bytes, little-endian) so that reports are byte-identical for a fixed
configuration and independent of execution order.

A check is declared once, with ``@_check(suite, name, tol, params=())`` on a
body ``(config, rng) -> residuals`` or ``-> (residuals, aux)``; ``params``
names the ``--param`` keys the body reads.  The declaration is a frozen
:class:`CheckSpec` in ``CHECK_INDEX``; calling it draws the check's stream,
applies the ``tol`` override and builds the :class:`CheckReport`.  A suite
table maps a name to ``(description, [(spec, overrides)])``: ``SUITES`` holds
the built-in suites, grouped by ``spec.suite``, and the command line builds a
new table on each call.  No table changes after import.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import connections as cn
from . import factory as fa
from . import lifts as lf
from . import structures as st
from . import variations as va
from .checkers import (
    CheckReport,
    conformality_residual,
    harmonicity_residual,
    holomorphy_residual,
    hwc_residual,
    pluriconformality_residual,
    pullback_harmonic_oracle,
    real_isotropy_residuals,
)
from .jets import (JetSpace, SmoothMap, _horner, dz, dz_power, merge_rows, real_to_complex_point,
                   stack)
from .pairings import _modulus, bilinear_dot, hermitian_dot


@dataclass
class SuiteConfig:
    suite: str
    tol: float = None          # overrides every check tolerance when set
    points: int = 50
    seed: int = 42
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        """Reject, naming ``--points``, fewer than one point and, naming
        ``--tol``, a tolerance that is not a finite number >= 0."""
        if self.points < 1:
            raise ValueError(f"--points must be at least 1, got {self.points}")
        if self.tol is not None and not 0 <= self.tol < np.inf:
            raise ValueError(f"--tol must be a finite number >= 0, got {self.tol}")


def check_rng(config, check_name):
    key = f"{config.seed}:{config.suite}:{check_name}".encode()
    word = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
    return np.random.default_rng(np.random.PCG64(word))


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class CheckSpec:
    """Check ``name`` of ``suite``: default tolerance ``tol``, the
    ``--param`` keys ``params`` that ``body(config, rng)`` reads, and the
    body, which returns residuals or (residuals, aux); an array of
    residuals is read row by row."""

    suite: str
    name: str
    tol: float
    params: tuple
    body: object

    def __call__(self, config):
        out = self.body(config, check_rng(config, self.name))
        residuals, aux = out if isinstance(out, tuple) else (out, {})
        residuals = np.ravel(np.asarray(residuals, dtype=float)).tolist()
        return CheckReport(self.name, list(range(len(residuals))), residuals,
                           self.tol if config.tol is None else config.tol, aux=dict(aux))


CHECK_INDEX = {}     # "<suite>:<check>" -> CheckSpec, in declaration order
_DESCRIPTIONS = {}   # suite -> description, in declaration order


def _suite(name, description):
    _DESCRIPTIONS[name] = description


def _check(suite, name, tol, params=()):
    """Declare ``body(config, rng)`` as check ``name`` of ``suite``."""

    def register(body):
        CHECK_INDEX[f"{suite}:{name}"] = CheckSpec(suite, name, tol, tuple(params), body)
        return body

    return register


# ---------------------------------------------------------------------------
# sampling helpers

def _admissible(qc):
    """Whether the closed form's denominator |1 + conj q1 - conj q2| exceeds
    0.2 at the complex point qc of C^3, or at each row of an (N, 3) array;
    the modulus is Python ``abs``'s, bitwise."""
    return _modulus(1 + np.conj(qc[..., 0]) - np.conj(qc[..., 1])) > 0.2


def _admissible_r6_points(rng, count):
    """(count, 6) array of points of R^6 whose complex view is admissible."""
    return _admissible_draws(rng, lambda x: x, lambda rng, i: rng.uniform(-1.0, 1.0, 6),
                             lambda rng, x: x, lambda i, accepted: accepted < count)[1]


def _admissible_draws(rng, h, propose, start, more):
    """The draws of the loop that, while ``more(i, accepted)``, makes attempt
    i: it draws x = propose(rng, i) and, when h(x) is admissible, the Newton
    start start(rng, x), and accepts the attempt.

    Returns the accepted attempts' indices, points x, images h(x) and starts,
    each stacked, and leaves ``rng`` where that loop leaves it.  The
    remaining attempts are drawn ahead as if each passed, and h is evaluated
    once over them.  At the first rejected one, the generator goes back to
    its state before them and replays the same calls up to and including
    that attempt's proposal; the attempts go on from the next.  So
    ``propose`` must give the same x when called again for the same i.
    """
    accepted = []  # (i, x, h(x), start)
    i = 0
    while more(i, len(accepted)):
        state = rng.bit_generator.state
        ahead = []  # (x, start) of attempts i, i + 1, ...
        while more(i + len(ahead), len(accepted) + len(ahead)):
            x = propose(rng, i + len(ahead))
            ahead.append((x, start(rng, x)))
        x, seed = _stack(ahead)
        q = h(x)
        ok = _admissible(real_to_complex_point(q))
        passed = len(ahead) if ok.all() else int(np.argmin(ok))
        accepted += [(i + r, x[r], q[r], seed[r]) for r in range(passed)]
        i += passed
        if passed < len(ahead):  # attempt i is rejected
            rng.bit_generator.state = state
            for r in range(passed):
                start(rng, propose(rng, i - passed + r))
            propose(rng, i)
            i += 1
    return _stack(accepted)


def _morphism_samples(rng, data, count):
    """The arrays (zxi, qc, z) of ``count`` admissible images qc = h(zxi),
    one row per sample: z is the produced morphism at qc, Newton started
    near zxi.  All samples are drawn first and then solved in one batch."""
    _, zxi, q, seed = _admissible_draws(
        rng, data.h, lambda rng, i: rng.uniform(-0.8, 0.8, 6),
        lambda rng, x: x + rng.uniform(-0.05, 0.05, 6),
        lambda i, accepted: accepted < count)
    return zxi, real_to_complex_point(q), fa.evaluate_morphism(data, q, seed_point=seed)[:, 0]


def _coeff_param(config, key):
    raw = config.params.get(key, "0,1")
    return [complex(c) if "j" in c else float(c) for c in raw.split(",")]


def _pqr(config):
    return {k: tuple(_coeff_param(config, k)) for k in ("P", "Q", "R")}


def _holomorphic_coefficients(rng):
    """Coefficients of a random holomorphic polynomial map C -> C^2 of
    degree 3, for :func:`_holomorphic_poly`."""
    return rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))


def _holomorphic_poly(co):
    """The map C -> C^2 with components sum_e co[..., k, e] z**e, by Horner's
    rule, from coefficients of shape (..., 2, d + 1).

    One draw has shape (2, d + 1).  A stack of draws of shape (N, 2, d + 1)
    makes a map to evaluate at an (N, 2) array of points, draw r at the
    point of row r.
    """
    return SmoothMap.from_complex(
        1, 2, lambda z: [_horner(np.moveaxis(co[..., k, :], -1, 0), z) for k in range(2)])


def _real_coefficients(rng, dims, degree=3):
    """Coefficients of a random polynomial map R^2 -> R^dims of the given
    total degree, for :func:`_real_poly`."""
    return rng.normal(size=(dims, degree + 1, degree + 1))


def _real_poly(co):
    """The map R^2 -> R^dims with components sum_{i+j<=d} co[..., k, i, j]
    x**i y**j, from coefficients of shape (..., dims, d + 1, d + 1).

    One draw or a stack of draws, as for :func:`_holomorphic_poly`.  Each
    evaluation takes the powers of x and y once, and each term one product
    for all components.
    """
    dims, d = co.shape[-3], co.shape[-1] - 1

    def ev(x, y):
        c = np.broadcast_to(co, x.base.shape[:-1] + co.shape[-3:])  # one draw at many points
        yp = [y ** j for j in range(d + 1)]
        acc = x * 0.0
        for i in range(d + 1):
            xp = stack([x ** i] * dims)  # x**i on the component axis
            for j in range(d + 1 - i):
                acc = acc + xp * c[..., :, i, j] * yp[j]
        return acc

    return SmoothMap.from_real(2, dims, ev)


def _stack(draws):
    """The columns of a list of per-draw tuples, each stacked into an array."""
    return tuple(np.array(column) for column in zip(*draws))


def _rotation(A):
    """A rotation from the QR factorisation of each matrix of a stack: Q with
    its columns signed to make the diagonal of R positive, then its first
    column negated where det Q < 0."""
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]
    Q[..., 0] = np.where(np.linalg.det(Q)[..., None] < 0, -Q[..., 0], Q[..., 0])
    return Q


def _structure_draw(rng, kmin):
    """The draws of a random structure: k from kmin..3, and a normal
    2k x 2k matrix whose :func:`_rotation` moves the canonical structure."""
    k = int(rng.integers(kmin, 4))
    return k, rng.normal(size=(2 * k, 2 * k))


def _rotated_structures(k, A):
    """The canonical structure on R^2k moved by the rotation of each matrix
    of the stack A."""
    return st.so_action(_rotation(A), st.canonical_structure(k))


def _by_k(ks, *draws):
    """For each k of ``ks``, in increasing order: k, the indices of its
    draws, and each sequence of ``draws`` at those indices, stacked."""
    for k in sorted(set(ks)):
        rows = [i for i, ki in enumerate(ks) if ki == k]
        yield k, rows, [np.array([d[r] for r in rows]) for d in draws]


def _skew(rng):
    A = rng.normal(size=(4, 4))
    return A - A.T


# ---------------------------------------------------------------------------
# euclid-hm

_suite("euclid-hm", "closed-form and factory checks for the R^6 -> C harmonic morphism")


@_check("euclid-hm", "closed-form-harmonicity", 1e-9)
def _(config, rng):
    return harmonicity_residual(fa.closed_form_r6(), _admissible_r6_points(rng, config.points))


@_check("euclid-hm", "closed-form-hwc", 1e-9)
def _(config, rng):
    return hwc_residual(fa.closed_form_r6(), _admissible_r6_points(rng, config.points))[1]


@_check("euclid-hm", "pullback-oracle", 1e-8)
def _(config, rng):
    phi = fa.closed_form_r6()
    P = _admissible_r6_points(rng, min(20, config.points))
    return np.stack([pullback_harmonic_oracle(phi, [0.0] * d + [1.0], P)
                     for d in (1, 2, 3)], axis=-1)


@_check("euclid-hm", "factory-roundtrip", 1e-10, params=("f",))
def _(config, rng):
    f = _coeff_param(config, "f")
    zxi, qc, z = _morphism_samples(rng, fa.euclid_r6_data(f), config.points)
    residuals = _modulus(z - real_to_complex_point(zxi)[:, 0])
    aux = {"implicit_max": np.max([fa.implicit_equation_residual(zk, qk, f)
                                   for zk, qk in zip(z, qc)])}
    if f != [0.0, 1.0]:
        return residuals, aux
    zcf = (qc[:, 2] - qc[:, 0] - qc[:, 1]) / (1 + np.conj(qc[:, 0]) - np.conj(qc[:, 1]))
    return np.concatenate([residuals, _modulus(z - zcf)]), aux


@_check("euclid-hm", "implicit-equation", 1e-12)
def _(config, rng):
    _, qc, z = _morphism_samples(rng, fa.euclid_r6_data(), config.points)
    return list(map(fa.implicit_equation_residual, z, qc))


@_check("euclid-hm", "horizontality", 1e-10, params=("f",))
def _(config, rng):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    return fa.verify_horizontality(data, rng.uniform(-0.8, 0.8, (config.points, 6)))


@_check("euclid-hm", "chart-holomorphy", 1e-10, params=("f",))
def _(config, rng):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    return fa.verify_chart_holomorphy(data, rng.uniform(-0.8, 0.8, (config.points, 6)))


@_check("euclid-hm", "fibre-invariance", 1e-10, params=("f",))
def _(config, rng):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    z = {}  # fibre -> its z: ten fibres of ten attempts each

    def propose(rng, i):
        if i % 10 == 0:
            z[i // 10] = rng.uniform(-0.6, 0.6, 2)
        return np.concatenate([z[i // 10], rng.uniform(-0.6, 0.6, 4)])

    attempts, _, q, seed = _admissible_draws(
        rng, data.h, propose, lambda rng, x: x + rng.uniform(-0.02, 0.02, 6),
        lambda i, accepted: i < 100)
    base = {}  # the first value on each fibre
    return [abs(val - base.setdefault(i // 10, val)) for i, val in
            zip(attempts, fa.evaluate_morphism(data, q, seed_point=seed)[:, 0])]


# ---------------------------------------------------------------------------
# sigma-plus-algebra

_suite("sigma-plus-algebra",
       "structure/isotropic-subspace round trips, group action, vertical space")


@_check("sigma-plus-algebra", "isotropic-roundtrip", 1e-10)
def _(config, rng):
    ks, normals = zip(*[_structure_draw(rng, 1) for _ in range(config.points)])
    residuals = np.empty(config.points)
    for k, rows, (A,) in _by_k(ks, normals):
        J = _rotated_structures(k, A)
        J2 = st.from_isotropic(st.to_isotropic(J))
        residuals[rows] = np.max(np.abs(J2.matrix - J.matrix), axis=(-2, -1))
    return residuals


@_check("sigma-plus-algebra", "so-action-positivity", 0.0)
def _(config, rng):
    ks, normals = zip(*[_structure_draw(rng, 1) for _ in range(200)])
    residuals = np.empty((200, 2))
    for k, rows, (A,) in _by_k(ks, normals):
        J = _rotated_structures(k, A)
        refl = np.eye(2 * k)
        refl[0, 0] = -1.0
        residuals[rows, 0] = np.where(st.is_positive(J), 0.0, 1.0)
        residuals[rows, 1] = np.where(st.is_positive(st.so_action(refl, J)), 1.0, 0.0)
    return residuals


@_check("sigma-plus-algebra", "so-action-group-law", 1e-10)
def _(config, rng):
    draws = []  # k and the normal matrices of the rotations S1, S2
    for _ in range(config.points):
        k = int(rng.integers(1, 4))
        draws.append((k, rng.normal(size=(2 * k, 2 * k)), rng.normal(size=(2 * k, 2 * k))))
    residuals = np.empty(config.points)
    for k, rows, (A1, A2) in _by_k(*zip(*draws)):
        J = st.canonical_structure(k)
        S1, S2 = _rotation(A1), _rotation(A2)
        lhs = st.so_action(S1 @ S2, J).matrix
        rhs = st.so_action(S1, st.so_action(S2, J)).matrix
        residuals[rows] = np.max(np.abs(lhs - rhs), axis=(-2, -1))
    return residuals


@_check("sigma-plus-algebra", "mj-dimension", 0.0)
def _(config, rng):
    return [abs(len(st.mj_basis(st.canonical_structure(k))) - k * (k - 1))
            for k in (1, 2, 3)]


@_check("sigma-plus-algebra", "jv-involution", 1e-10)
def _(config, rng):
    draws = []  # k, the normal matrix of J and the coefficients of lam
    for _ in range(config.points):
        k, A = _structure_draw(rng, 2)
        draws.append((k, A, [rng.normal() for _ in range(k * (k - 1))]))
    residuals = np.empty((config.points, 2))
    for k, rows, (A, c) in _by_k(*zip(*draws)):
        J = _rotated_structures(k, A)
        lam = (c[..., None, None] * st.mj_basis(J)).sum(axis=1)
        jv = st.jv_apply(J, lam)
        residuals[rows, 0] = st.mj_residual(jv, J)
        residuals[rows, 1] = np.max(np.abs(st.jv_apply(J, jv) + lam), axis=(-2, -1))
    return residuals


@_check("sigma-plus-algebra", "mu-chart-roundtrip", 1e-9)
def _(config, rng):
    draws = []  # k and mu
    for _ in range(config.points):
        k = int(rng.integers(2, 4))
        m = k * (k - 1) // 2
        draws.append((k, rng.normal(size=m) + 1j * rng.normal(size=m)))
    residuals = np.empty((config.points, 2))
    for k, rows, (mu,) in _by_k(*zip(*draws)):
        J = st.structure_from_mu(mu, k)
        residuals[rows, 0] = np.where(st.is_positive(J), 0.0, 1.0)
        residuals[rows, 1] = np.max(np.abs(st.mu_from_structure(J) - mu), axis=-1)
    return residuals


# ---------------------------------------------------------------------------
# cp3-data

_suite("cp3-data", "algebraic line-data constraints, point formulas and chart Jacobians")


def _dyadic_constraints(config, rng, data):
    """Constraint residuals at points with coordinates in (1/16)Z, |x| <= 1."""
    return fa.cp3_constraints_residual(
        data, rng.integers(-16, 17, (config.points, 2 * data.nvars)) / 16.0)


@_check("cp3-data", "cp3-example1-constraints", 0.0)
def _(config, rng):
    return _dyadic_constraints(config, rng, fa.cp3_example1_data())


@_check("cp3-data", "cp3-morphism-constraints", 0.0, params=("P", "Q", "R"))
def _(config, rng):
    return _dyadic_constraints(config, rng, fa.cp3_morphism_data(**_pqr(config)))


@_check("cp3-data", "cp3-linear-system", 1e-12)
def _(config, rng):
    return np.concatenate([fa.cp3_linear_system_residual(
        builder(), rng.uniform(-1, 1, (config.points // 2 + 1, 6)))
        for builder in (fa.cp3_example1_data, fa.cp3_morphism_data)])


@_check("cp3-data", "cp3-local-diffeo", 0.0)
def _(config, rng):
    r1 = fa.cp3_local_diffeo_check(fa.cp3_example1_data(), np.zeros(6))
    r2 = fa.cp3_local_diffeo_check(fa.cp3_morphism_data(), np.zeros(6))
    # residual formulation: fail when the smallest singular value collapses
    return ([0.0 if r1 > 1e-6 else 1.0, 0.0 if r2 > 1e-6 else 1.0],
            {"min_sv_example1": r1, "min_sv_morphism": r2})


@_check("cp3-data", "cp3-jacobian-pattern", 1e-12, params=("P", "Q", "R"))
def _(config, rng):
    pqr = _pqr(config)
    D = fa.cp3_affine_jacobian(fa.cp3_morphism_data(**pqr), np.zeros(6))
    p, q, r = (co[1].real if len(co) > 1 else 0.0
               for co in (pqr["P"], pqr["Q"], pqr["R"]))
    # Rows (Re x1, Im x1, Re x2, Im x2, Re x4, Im x4), columns (Re z, Im z,
    # Re xi1, Im xi1, Re xi2, Im xi2): one nonzero per row and column.
    expected = np.zeros((6, 6))
    expected[[0, 1, 2, 3, 4, 5], [2, 3, 5, 4, 0, 1]] = [-q, q, r, r, p, p]
    det = abs(np.linalg.det(D))
    return [np.max(np.abs(D - expected)), 0.0 if det > 1e-9 else 1.0], {"abs_det": det}


@_check("cp3-data", "cp3-point-formulas", 1e-12)
def _(config, rng):
    z = rng.uniform(-0.9, 0.9, (config.points, 2))
    x = fa.cp3_point(fa.cp3_morphism_data(), np.concatenate([z, np.zeros((len(z), 4))], axis=1))
    # alpha = beta = 0 at xi = 0, and w = P(z) = z by default
    expect = np.zeros(x.shape, dtype=complex)
    expect[:, 2], expect[:, 3] = 1.0, real_to_complex_point(z)[:, 0]
    zeros = fa.cp3_point(fa.cp3_example1_data(), np.zeros(6))
    return np.append(np.max(_modulus(x - expect), axis=-1),
                     np.max(_modulus(zeros - np.array([0, 0, 1.0, 0]))))


# ---------------------------------------------------------------------------
# lifts-r4

_suite("lifts-r4", "strictly compatible lifts and their vertical/stability residuals")


def _lift_test_maps():
    holo = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])

    def chart_fn(t):
        w1, w2, mu = t, t * t, t
        den = 1 + mu * mu.conj()
        return [(w1 + mu * w2.conj()) / den, (w2 - mu * w1.conj()) / den]

    chart = SmoothMap.from_complex(1, 2, chart_fn)
    return holo, chart


def _lift_pair(config, rng):
    """One lift of ``_row_blocks(holo, chart)`` at the check's points P twice,
    and those rows: each residual splits into the holo and chart halves."""
    PP = np.concatenate([rng.uniform(-0.9, 0.9, (config.points, 2))] * 2)
    return lf.strictly_compatible_lift_r4(_row_blocks(*_lift_test_maps()), PP), PP


@_check("lifts-r4", "lift-holomorphy", 1e-10)
def _(config, rng):
    L, PP = _lift_pair(config, rng)
    # L.structure validates each structure of the lift
    r = holomorphy_residual(L.base_map, st.canonical_structure(1).matrix, L.structure(PP), PP)
    return np.stack(np.split(r, 2), axis=-1)


@_check("lifts-r4", "lift-vertical-conditions", 1e-9)
def _(config, rng):
    L, PP = _lift_pair(config, rng)
    (h1, c1), (h2, _) = (np.split(lf.j_vertical_residual(L, PP, a), 2) for a in (1, 2))
    return np.stack([h2, h1, c1], axis=-1)  # harmonic side, isotropic side, isotropy only


@_check("lifts-r4", "lift-t10-stability", 1e-9)
def _(config, rng):
    L, PP = _lift_pair(config, rng)
    (hz, cz), (hzbar, _) = (np.split(lf.t10_stability_residual(L, PP, d), 2)
                            for d in ("z", "zbar"))
    return np.stack([hz, hzbar, cz], axis=-1)


@_check("lifts-r4", "lift-vertical-part", 1e-8)
def _(config, rng):
    _, chart = _lift_test_maps()
    P, X = _stack([(rng.uniform(-0.9, 0.9, 2), rng.normal(size=2))
                   for _ in range(config.points)])
    L = lf.strictly_compatible_lift_r4(chart, P)
    return st.mj_residual(lf.vertical_part(L, P, X), L.structure(P))


@_check("lifts-r4", "umbilic-branch", 1e-10)
def _(config, rng):
    phi = SmoothMap.from_complex(
        1, 2, lambda z: [(z + z.conj()) * 0.5, (z - z.conj()) * 0.5])
    p = np.array([0.1, 0.2])
    L = lf.strictly_compatible_lift_r4(phi, p)
    return [0.0 if L.both_signs_valid else 1.0,
            0.0 if L.sign == +1 else 1.0,
            lf.j_vertical_residual(L, p, 1)]


# ---------------------------------------------------------------------------
# isotropy-reduction

_suite("isotropy-reduction", "full against diagonal isotropy residual pass/fail agreement")


@_check("isotropy-reduction", "full-vs-diagonal", 0.0)
def _(config, rng):
    tol = 1e-9 if config.tol is None else config.tol
    holo, real, points = [], [], []
    for i in range(100):
        if i % 2 == 0:
            holo.append(_holomorphic_coefficients(rng))
        else:
            real.append(_real_coefficients(rng, 4))
        points.append(rng.uniform(-0.9, 0.9, 2))
    points = np.array(points)
    agree = []
    for phi, P in ((_holomorphic_poly(np.array(holo)), points[0::2]),
                   (_real_poly(np.array(real)), points[1::2])):
        full, diag = real_isotropy_residuals(phi, P, 4)
        agree.append((full <= tol) == (diag <= tol))
    return np.where(np.stack(agree, axis=-1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# jacobi-first-order

_suite("jacobi-first-order", "first-order tension, Jacobi identity and holomorphic families")


def _sum_maps(a, b):
    def evaluator(point, order):
        return a.jets(point, order) + b.jets(point, order)

    return SmoothMap(a.domain_dim, a.codomain_dim, evaluator)


def _row_blocks(*maps):
    """One map at a (k N, dim) array of points, k = len(maps): block k of N
    rows holds map k's rows, evaluated by map k, joined by :func:`merge_rows`.
    A row that a batched call names, as in a LiftError, counts over all blocks."""
    def evaluator(point, order):
        out, *rest = (phi.jets(x, order) for phi, x in zip(maps, np.split(point, len(maps))))
        for jet in rest:
            out = merge_rows(np.arange(len(out.base) + len(jet.base)) < len(out.base), out, jet)
        return out

    return SmoothMap(maps[0].domain_dim, maps[0].codomain_dim, evaluator)


@_check("jacobi-first-order", "jacobi-identity", 1e-12)
def _(config, rng):
    c0, cv, P = _stack([(_real_coefficients(rng, 2), _real_coefficients(rng, 2),
                         rng.uniform(-1, 1, 2)) for _ in range(50)])
    v = _real_poly(cv)
    _, tau1 = va.tension_first_order(va.affine_family(_real_poly(c0), v), P)
    return np.max(np.abs(tau1 + va.jacobi_operator_flat(v, P)), axis=-1)


@_check("jacobi-first-order", "tension-linearity", 1e-12)
def _(config, rng):
    c0, c1, c2, P = _stack([(_real_coefficients(rng, 2), _real_coefficients(rng, 2),
                             _real_coefficients(rng, 2), rng.uniform(-1, 1, 2))
                            for _ in range(config.points)])
    phi0, v1, v2 = (_real_poly(c) for c in (c0, c1, c2))
    # t1 and t2 from one family over the rows of P twice
    both = va.affine_family(_real_poly(np.concatenate([c0, c0])),
                            _real_poly(np.concatenate([c1, c2])))
    t1, t2 = np.split(va.tension_first_order(both, np.concatenate([P, P]))[1], 2)
    t12 = va.tension_first_order(va.affine_family(phi0, _sum_maps(v1, v2)), P)[1]
    return np.max(np.abs(t12 - t1 - t2), axis=-1)


@_check("jacobi-first-order", "holomorphic-family", 1e-12)
def _(config, rng):
    fam = va.complex_family(1, 1, lambda t, z: [z * z + t * z * z * z])
    P = rng.uniform(-1.0, 1.0, (config.points, 2))
    # weak conformality, then isotropy to order 3: (base, t) for each
    return np.stack([r for R in (1, 3) for r in va.first_order_residual(fam, P, R)], axis=-1)


# ---------------------------------------------------------------------------
# flat-connection

_suite("flat-connection", "flatness residuals, product integration and convergence order")


def _mc_setup(rng):
    A, B = _skew(rng), _skew(rng)
    return cn.maurer_cartan_form(A, B), A, B


@_check("flat-connection", "maurer-cartan-flatness", 1e-8)
def _(config, rng):
    form, _, _ = _mc_setup(rng)
    return cn.flatness_residual(form, rng.uniform(-1, 1, (min(20, config.points), 2)))


@_check("flat-connection", "constant-form-exp", 1e-10)
def _(config, rng):
    A = _skew(rng)
    form = cn.LieValuedForm.constant([A, np.zeros((4, 4))])
    L = 2.5
    f = cn.integrate_path(form, np.array([[0.0, 0.0], [L, 0.0]]), steps=1000)
    return [np.linalg.norm(f - cn.expm(L * A))]


@_check("flat-connection", "path-independence", 1e-5)
def _(config, rng):
    form, _, _ = _mc_setup(rng)
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    sq2 = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
    return [cn.path_independence_defect(form, sq1, sq2, 2000)]


@_check("flat-connection", "convergence-order", 0.2)
def _(config, rng):
    form, A, B = _mc_setup(rng)
    pa = np.array([[0.1, -0.2], [0.9, 0.7]])
    ref = np.linalg.inv(cn.maurer_cartan_value(A, B, pa[0])) @ cn.maurer_cartan_value(A, B, pa[1])
    errs = [np.linalg.norm(cn.integrate_path(form, pa, steps=s) - ref)
            for s in (100, 200, 400)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    return [abs(o - 2.0) for o in orders], {"orders": [round(float(o), 3) for o in orders]}


@_check("flat-connection", "skew-orthogonality", 1e-6)
def _(config, rng):
    form, _, _ = _mc_setup(rng)
    f = cn.integrate_path(form, np.array([[0.0, 0.0], [1.0, 0.8]]), steps=1000)
    return [np.linalg.norm(f.T @ f - np.eye(4))]


@_check("flat-connection", "curvature-02", 1e-12)
def _(config, rng):
    M = rng.normal(size=(2, 2))

    def gam1(space):
        return [space.const(M)]

    r1 = cn.curvature_02_residual(gam1, 1, np.zeros(2))

    def gam2(space):
        zb2 = space.var(2) - 1j * space.var(3)
        z = space.const(0.0)
        G1 = [[z, zb2], [z, z]]
        G2 = [[z, z], [z, z]]
        return [G1, G2]

    r2 = cn.curvature_02_residual(gam2, 2, np.zeros(4))
    return [r1, abs(r2 - 1.0)]


# ---------------------------------------------------------------------------
# jets-core

_suite("jets-core", "jet convolution exactness, Wirtinger cross-checks, pairing laws")


@_check("jets-core", "product-convolution", 1e-13)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        space = JetSpace(rng.uniform(-1, 1, 2), 3)
        x, y = space.vars()
        ca = rng.normal(size=4)
        cb = rng.normal(size=4)
        f = ca[0] + ca[1] * x + ca[2] * y + ca[3] * x * y
        g = cb[0] + cb[1] * x + cb[2] * y + cb[3] * x * x
        prod = f * g
        # independent convolution over explicit dictionaries
        fd = {a: f.coef[i] for i, a in enumerate(f.table.indices)}
        gd = {a: g.coef[i] for i, a in enumerate(g.table.indices)}
        conv = {}
        for a, va_ in fd.items():
            for b, vb in gd.items():
                key = (a[0] + b[0], a[1] + b[1])
                if sum(key) <= 3:
                    conv[key] = conv.get(key, 0.0) + va_ * vb
        residuals.append(np.max([abs(prod.coef[i] - conv.get(a, 0.0))
                                 for i, a in enumerate(prod.table.indices)]))
    return residuals


@_check("jets-core", "dz-vs-finite-differences", 1e-5)
def _(config, rng):
    co, Z = _stack([(_real_coefficients(rng, 4, degree=4), rng.uniform(-0.5, 0.5, 2))
                    for _ in range(config.points)])
    phi = _real_poly(co)
    v = dz_power(phi, 1, Z)
    steps = (0.5e-4, 1e-4)
    # the eight shifted points Z +- step e_i of both steps as one batch
    shifted = [op(Z, d) for step in steps for d in ([step, 0], [0, step])
               for op in (np.add, np.subtract)]
    f = _real_poly(np.tile(co, (8, 1, 1, 1)))(np.concatenate(shifted))
    f = f.reshape(2, 2, 2, len(Z), -1)  # step, direction, sign

    def fd(k):
        ddx, ddy = ((f[k, i, 0] - f[k, i, 1]) / (2 * steps[k]) for i in (0, 1))
        return dz(np.stack([ddx, ddy], axis=-1))

    rich = (4 * fd(0) - fd(1)) / 3
    return (np.max(np.abs(v - rich), axis=-1)
            / np.maximum(1.0, np.max(np.abs(v), axis=-1)))


@_check("jets-core", "holomorphic-pluriconformal", 1e-10)
def _(config, rng):
    co, Z = _stack([(_holomorphic_coefficients(rng), rng.uniform(-0.9, 0.9, 2))
                    for _ in range(config.points)])
    phi = _holomorphic_poly(co)
    return np.stack([conformality_residual(phi, Z), pluriconformality_residual(phi, Z)], axis=-1)


@_check("jets-core", "pairing-laws", 1e-12)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        n = int(rng.integers(2, 8))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        residuals.append(abs(bilinear_dot(u, v) - bilinear_dot(v, u)))
        huu = hermitian_dot(u, u)
        residuals.append(abs(huu.imag))
        residuals.append(0.0 if huu.real >= 0 else 1.0)
    return residuals


# ---------------------------------------------------------------------------
# suite tables and runner

# the built-in suite table: name -> (description, [(spec, {})]) in declaration order
SUITES = {suite: (description, [(spec, {}) for spec in CHECK_INDEX.values()
                                if spec.suite == suite])
          for suite, description in _DESCRIPTIONS.items()}


def check_params(config, checks):
    """Reject, naming ``--param <key>``, a parameter that none of ``checks``,
    the (spec, overrides) pairs of ``config.suite``, reads and one whose
    value does not parse or holds a coefficient that is not finite."""
    read = sorted({key for spec, _ in checks for key in spec.params})
    for key in config.params:
        if key not in read:
            raise ValueError(f"--param {key}: suite {config.suite!r} reads "
                             f"{', '.join(read) or 'no parameters'}")
        try:
            coeffs = _coeff_param(config, key)
        except ValueError as exc:
            raise ValueError(f"--param {key}: {exc}") from None
        if not np.isfinite(coeffs).all():
            raise ValueError(f"--param {key}: a coefficient is not finite: "
                             f"{config.params[key]!r}")


def run_suite(config, table=SUITES):
    """Run the checks of suite ``config.suite`` of ``table``, each with its
    overrides, and return the CheckReport list sorted by check name."""
    reports = [spec(replace(config, tol=overrides.get("tol", config.tol),
                            points=overrides.get("points", config.points)))
               for spec, overrides in table[config.suite][1]]
    reports.sort(key=lambda r: r.name)
    return reports

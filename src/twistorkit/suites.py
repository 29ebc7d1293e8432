"""Named verification suites runnable from the command line.

Each suite is a list of named checks; a check draws its own reproducible
random stream (PCG64 seeded from SHA-256 of "<seed>:<suite>:<check>", first
8 bytes, little-endian) so that reports are byte-identical for a fixed
configuration and independent of execution order.

A check is declared once, with ``@_check(suite, name, tol)`` on a body
``(config, rng) -> residuals`` or ``-> (residuals, aux)``.  The decorator
draws the check's stream, applies the ``tol`` override and builds the
:class:`CheckReport`; ``SUITES`` and ``CHECK_INDEX`` follow from these
declarations.
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
    harmonicity_residual,
    hwc_residual,
    pluriconformality_residual,
    pullback_harmonic_oracle,
    real_isotropy_residual,
)
from .jets import JetSpace, SmoothMap, _horner, dz, dz_power, real_to_complex_point
from .pairings import bilinear_dot, hermitian_dot


@dataclass
class SuiteConfig:
    suite: str
    tol: float = None          # overrides every check tolerance when set
    points: int = 50
    seed: int = 42
    params: dict = field(default_factory=dict)


def check_rng(config, check_name):
    key = f"{config.seed}:{config.suite}:{check_name}".encode()
    word = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
    return np.random.default_rng(np.random.PCG64(word))


# ---------------------------------------------------------------------------
# registry

CHECK_INDEX = {}     # "<suite>:<check>" -> check(config) -> CheckReport
_DESCRIPTIONS = {}   # suite -> description, in declaration order


def _suite(name, description):
    _DESCRIPTIONS[name] = description


def _check(suite, name, tol):
    """Register ``body(config, rng)`` as check ``name`` of ``suite`` with
    default tolerance ``tol``; the body returns residuals or (residuals, aux)."""

    def register(body):
        def check(config):
            out = body(config, check_rng(config, name))
            residuals, aux = out if isinstance(out, tuple) else (out, {})
            return CheckReport(name, list(range(len(residuals))),
                               [float(r) for r in residuals],
                               tol if config.tol is None else config.tol, aux=dict(aux))

        CHECK_INDEX[f"{suite}:{name}"] = check
        return check

    return register


# ---------------------------------------------------------------------------
# sampling helpers

def _admissible(qc):
    """Whether the closed form's denominator |1 + conj q1 - conj q2| exceeds
    0.2 at the complex point qc of C^3."""
    return abs(1 + np.conj(qc[0]) - np.conj(qc[1])) > 0.2


def _admissible_r6_points(rng, count):
    pts = []
    while len(pts) < count:
        q = rng.uniform(-1.0, 1.0, 6)
        if _admissible(real_to_complex_point(q)):
            pts.append(q)
    return pts


def _morphism_samples(rng, data, count):
    """Yield (zxi, qc, z) for ``count`` admissible images qc = h(zxi): z is
    the produced morphism at qc, Newton started near zxi."""
    produced = 0
    while produced < count:
        zxi = rng.uniform(-0.8, 0.8, 6)
        q = data.h(zxi)
        qc = real_to_complex_point(q)
        if not _admissible(qc):
            continue
        produced += 1
        seed = zxi + rng.uniform(-0.05, 0.05, 6)
        yield zxi, qc, fa.evaluate_morphism(data, q, seed_point=seed)[0]


def _coeff_param(config, key, default="0,1"):
    raw = config.params.get(key, default)
    if isinstance(raw, str):
        return [complex(c) if "j" in c else float(c) for c in raw.split(",")]
    return list(raw)


def _pqr(config):
    return {k: tuple(_coeff_param(config, k)) for k in ("P", "Q", "R")}


def _random_holomorphic_poly(rng, degree=3):
    """Random holomorphic polynomial map C -> C^2 of the given degree."""
    co = rng.normal(size=(2, degree + 1)) + 1j * rng.normal(size=(2, degree + 1))

    return SmoothMap.from_complex(1, 2, lambda z: [_horner(row, z) for row in co])


def _random_real_poly(rng, dims, degree=3):
    """Random polynomial map R^2 -> R^dims of the given total degree."""
    co = rng.normal(size=(dims, degree + 1, degree + 1))

    def ev(x, y):
        out = []
        for comp in co:
            acc = 0.0 * x
            for i in range(degree + 1):
                for j in range(degree + 1):
                    if i + j <= degree:
                        acc = acc + comp[i, j] * x ** i * y ** j
            out.append(acc)
        return out

    return SmoothMap.from_real(2, dims, ev)


def _random_so(rng, n):
    A = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _random_structure(rng, kmin):
    """The canonical structure on R^2k, k drawn from kmin..3, moved by a
    random rotation."""
    k = int(rng.integers(kmin, 4))
    return st.so_action(_random_so(rng, 2 * k), st.canonical_structure(k))


def _skew(rng, k=4):
    A = rng.normal(size=(k, k))
    return A - A.T


# ---------------------------------------------------------------------------
# euclid-hm

_suite("euclid-hm", "closed-form and factory checks for the R^6 -> C harmonic morphism")


@_check("euclid-hm", "closed-form-harmonicity", 1e-9)
def _(config, rng):
    phi = fa.closed_form_r6()
    return [harmonicity_residual(phi, p) for p in _admissible_r6_points(rng, config.points)]


@_check("euclid-hm", "closed-form-hwc", 1e-9)
def _(config, rng):
    phi = fa.closed_form_r6()
    return [hwc_residual(phi, p)[1] for p in _admissible_r6_points(rng, config.points)]


@_check("euclid-hm", "pullback-oracle", 1e-8)
def _(config, rng):
    phi = fa.closed_form_r6()
    return [pullback_harmonic_oracle(phi, [0.0] * d + [1.0], p)
            for p in _admissible_r6_points(rng, min(20, config.points))
            for d in (1, 2, 3)]


@_check("euclid-hm", "factory-roundtrip", 1e-10)
def _(config, rng):
    f = _coeff_param(config, "f")
    data = fa.euclid_r6_data(f)
    closed = f == [0.0, 1.0]
    res_round, res_closed, res_implicit = [], [], []
    for zxi, qc, z in _morphism_samples(rng, data, config.points):
        res_round.append(abs(z - real_to_complex_point(zxi)[0]))
        if closed:
            zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
            res_closed.append(abs(z - zcf))
            res_implicit.append(fa.implicit_equation_residual(z, qc))
    return res_round + res_closed, {"implicit_max": max(res_implicit, default=0.0)}


@_check("euclid-hm", "implicit-equation", 1e-12)
def _(config, rng):
    return [fa.implicit_equation_residual(z, qc)
            for _zxi, qc, z in _morphism_samples(rng, fa.euclid_r6_data(), config.points)]


@_check("euclid-hm", "horizontality", 1e-10)
def _(config, rng):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    return [fa.verify_horizontality(data, [rng.uniform(-0.8, 0.8, 6)])
            for _ in range(config.points)]


@_check("euclid-hm", "chart-holomorphy", 1e-10)
def _(config, rng):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    return [fa.verify_chart_holomorphy(data, [rng.uniform(-0.8, 0.8, 6)])
            for _ in range(config.points)]


@_check("euclid-hm", "fibre-invariance", 1e-10)
def _(config, rng):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    residuals = []
    for _ in range(10):
        z = rng.uniform(-0.6, 0.6, 2)
        base = None
        for _ in range(10):
            zxi = np.concatenate([z, rng.uniform(-0.6, 0.6, 4)])
            q = data.h(zxi)
            if not _admissible(real_to_complex_point(q)):
                continue
            seed = zxi + rng.uniform(-0.02, 0.02, 6)
            val = fa.evaluate_morphism(data, q, seed_point=seed)[0]
            if base is None:
                base = val
            residuals.append(abs(val - base))
    return residuals


# ---------------------------------------------------------------------------
# sigma-plus-algebra

_suite("sigma-plus-algebra",
       "structure/isotropic-subspace round trips, group action, vertical space")


@_check("sigma-plus-algebra", "isotropic-roundtrip", 1e-10)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        J = _random_structure(rng, 1)
        J2 = st.from_isotropic(st.to_isotropic(J))
        residuals.append(np.max(np.abs(J2.matrix - J.matrix)))
    return residuals


@_check("sigma-plus-algebra", "so-action-positivity", 0.0)
def _(config, rng):
    residuals = []
    for _ in range(200):
        J = _random_structure(rng, 1)
        residuals.append(0.0 if st.is_positive(J) else 1.0)
        refl = np.eye(J.dim)
        refl[0, 0] = -1.0
        residuals.append(1.0 if st.is_positive(st.so_action(refl, J)) else 0.0)
    return residuals


@_check("sigma-plus-algebra", "so-action-group-law", 1e-10)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        k = int(rng.integers(1, 4))
        J = st.canonical_structure(k)
        S1, S2 = _random_so(rng, 2 * k), _random_so(rng, 2 * k)
        lhs = st.so_action(S1 @ S2, J).matrix
        rhs = st.so_action(S1, st.so_action(S2, J)).matrix
        residuals.append(np.max(np.abs(lhs - rhs)))
    return residuals


@_check("sigma-plus-algebra", "mj-dimension", 0.0)
def _(config, rng):
    return [abs(len(st.mj_basis(st.canonical_structure(k))) - k * (k - 1))
            for k in (1, 2, 3)]


@_check("sigma-plus-algebra", "jv-involution", 1e-10)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        J = _random_structure(rng, 2)
        lam = sum(rng.normal() * b for b in st.mj_basis(J))
        jv = st.jv_apply(J, lam)
        residuals.append(st.mj_residual(jv, J))
        residuals.append(np.max(np.abs(st.jv_apply(J, jv) + lam)))
    return residuals


@_check("sigma-plus-algebra", "mu-chart-roundtrip", 1e-9)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        k = int(rng.integers(2, 4))
        mu = rng.normal(size=k * (k - 1) // 2) + 1j * rng.normal(size=k * (k - 1) // 2)
        J = st.structure_from_mu(mu, k)
        residuals.append(0.0 if st.is_positive(J) else 1.0)
        residuals.append(np.max(np.abs(st.mu_from_structure(J) - mu)))
    return residuals


# ---------------------------------------------------------------------------
# cp3-data

_suite("cp3-data", "algebraic line-data constraints, point formulas and chart Jacobians")


def _dyadic_constraints(config, rng, data):
    """Constraint residuals at points with coordinates in (1/16)Z, |x| <= 1."""
    return [fa.cp3_constraints_residual(data, rng.integers(-16, 17, 2 * data.nvars) / 16.0)
            for _ in range(config.points)]


@_check("cp3-data", "cp3-example1-constraints", 0.0)
def _(config, rng):
    return _dyadic_constraints(config, rng, fa.cp3_example1_data())


@_check("cp3-data", "cp3-morphism-constraints", 0.0)
def _(config, rng):
    return _dyadic_constraints(config, rng, fa.cp3_morphism_data(**_pqr(config)))


@_check("cp3-data", "cp3-linear-system", 1e-12)
def _(config, rng):
    residuals = []
    for builder in (fa.cp3_example1_data, fa.cp3_morphism_data):
        data = builder()
        for _ in range(config.points // 2 + 1):
            residuals.append(fa.cp3_linear_system_residual(data, rng.uniform(-1, 1, 6)))
    return residuals


@_check("cp3-data", "cp3-local-diffeo", 0.0)
def _(config, rng):
    r1 = fa.cp3_local_diffeo_check(fa.cp3_example1_data(), np.zeros(6))
    r2 = fa.cp3_local_diffeo_check(fa.cp3_morphism_data(), np.zeros(6))
    # residual formulation: fail when the smallest singular value collapses
    return ([0.0 if r1 > 1e-6 else 1.0, 0.0 if r2 > 1e-6 else 1.0],
            {"min_sv_example1": r1, "min_sv_morphism": r2})


@_check("cp3-data", "cp3-jacobian-pattern", 1e-12)
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
    data = fa.cp3_morphism_data()
    residuals = []
    for _ in range(config.points):
        z = rng.uniform(-0.9, 0.9, 2)
        x = fa.cp3_point(data, np.concatenate([z, np.zeros(4)]))  # xi = 0
        # alpha = beta = 0 at xi = 0, and w = P(z) = z by default
        expect = np.array([0.0, 0.0, 1.0, complex(z[0], z[1])])
        residuals.append(np.max(np.abs(x - expect)))
    zeros = fa.cp3_point(fa.cp3_example1_data(), np.zeros(6))
    residuals.append(np.max(np.abs(zeros - np.array([0, 0, 1.0, 0]))))
    return residuals


# ---------------------------------------------------------------------------
# lifts-r4

_suite("lifts-r4", "strictly compatible lifts and their vertical/stability residuals")


def _lift_test_maps():
    holo = SmoothMap.from_complex(1, 2, lambda z: [z, z * z], name="z,z2")

    def chart_fn(t):
        w1, w2, mu = t, t * t, t
        den = 1 + mu * mu.conj()
        return [(w1 + mu * w2.conj()) / den, (w2 - mu * w1.conj()) / den]

    chart = SmoothMap.from_complex(1, 2, chart_fn, name="chart-disk")
    return holo, chart


@_check("lifts-r4", "lift-holomorphy", 1e-10)
def _(config, rng):
    holo, chart = _lift_test_maps()
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-0.9, 0.9, 2)
        for phi in (holo, chart):
            L = lf.strictly_compatible_lift_r4(phi, p)
            residuals.append(np.linalg.norm(
                phi.jacobian(p) @ st.canonical_structure(1).matrix
                - L.structure(p).matrix @ phi.jacobian(p)))
    return residuals


@_check("lifts-r4", "lift-vertical-conditions", 1e-9)
def _(config, rng):
    holo, chart = _lift_test_maps()
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-0.9, 0.9, 2)
        Lh = lf.strictly_compatible_lift_r4(holo, p)
        residuals.append(lf.j_vertical_residual(Lh, p, 2))  # harmonic side
        residuals.append(lf.j_vertical_residual(Lh, p, 1))  # isotropic side
        Lc = lf.strictly_compatible_lift_r4(chart, p)
        residuals.append(lf.j_vertical_residual(Lc, p, 1))  # isotropy only
    return residuals


@_check("lifts-r4", "lift-t10-stability", 1e-9)
def _(config, rng):
    holo, chart = _lift_test_maps()
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-0.9, 0.9, 2)
        Lh = lf.strictly_compatible_lift_r4(holo, p)
        residuals.append(lf.t10_stability_residual(Lh, p, "z"))
        residuals.append(lf.t10_stability_residual(Lh, p, "zbar"))
        Lc = lf.strictly_compatible_lift_r4(chart, p)
        residuals.append(lf.t10_stability_residual(Lc, p, "z"))
    return residuals


@_check("lifts-r4", "lift-vertical-part", 1e-8)
def _(config, rng):
    _, chart = _lift_test_maps()
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-0.9, 0.9, 2)
        L = lf.strictly_compatible_lift_r4(chart, p)
        vp = lf.vertical_part(L, p, rng.normal(size=2))
        residuals.append(st.mj_residual(vp, L.structure(p)))
    return residuals


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
    residuals = []
    for i in range(100):
        phi = _random_holomorphic_poly(rng) if i % 2 == 0 else _random_real_poly(rng, 4)
        z0 = rng.uniform(-0.9, 0.9, 2)
        full = real_isotropy_residual(phi, z0, 4, mode="full")
        diag = real_isotropy_residual(phi, z0, 4, mode="diagonal")
        residuals.append(0.0 if (full <= tol) == (diag <= tol) else 1.0)
    return residuals


# ---------------------------------------------------------------------------
# jacobi-first-order

_suite("jacobi-first-order", "first-order tension, Jacobi identity and holomorphic families")


def _sum_maps(a, b):
    def evaluator(point, order):
        return [p + q for p, q in zip(a.jets(point, order), b.jets(point, order))]

    return SmoothMap(a.domain_dim, a.codomain_dim, evaluator)


@_check("jacobi-first-order", "jacobi-identity", 1e-12)
def _(config, rng):
    residuals = []
    for _ in range(50):
        phi0 = _random_real_poly(rng, 2)
        v = _random_real_poly(rng, 2)
        p = rng.uniform(-1, 1, 2)
        _, tau1 = va.tension_first_order(va.MapFamily.affine(phi0, v), p)
        residuals.append(np.max(np.abs(tau1 + va.jacobi_operator_flat(v, p))))
    return residuals


@_check("jacobi-first-order", "tension-linearity", 1e-12)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        phi0 = _random_real_poly(rng, 2)
        v1 = _random_real_poly(rng, 2)
        v2 = _random_real_poly(rng, 2)
        p = rng.uniform(-1, 1, 2)
        t1 = va.tension_first_order(va.MapFamily.affine(phi0, v1), p)[1]
        t2 = va.tension_first_order(va.MapFamily.affine(phi0, v2), p)[1]
        t12 = va.tension_first_order(va.MapFamily.affine(phi0, _sum_maps(v1, v2)), p)[1]
        residuals.append(np.max(np.abs(t12 - t1 - t2)))
    return residuals


@_check("jacobi-first-order", "holomorphic-family", 1e-12)
def _(config, rng):
    fam = va.MapFamily.from_complex(1, 1, lambda t, z: [z * z + t * z * z * z])
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-1, 1, 2)
        for kind, R in (("conformal", 1), ("isotropy", 3)):
            residuals.extend(va.first_order_residual(fam, p, kind, R=R))
    return residuals


# ---------------------------------------------------------------------------
# flat-connection

_suite("flat-connection", "flatness residuals, product integration and convergence order")


def _mc_setup(rng):
    A, B = _skew(rng), _skew(rng)
    return cn.maurer_cartan_form(A, B), A, B


@_check("flat-connection", "maurer-cartan-flatness", 1e-8)
def _(config, rng):
    form, _, _ = _mc_setup(rng)
    return [cn.flatness_residual(form, rng.uniform(-1, 1, 2))
            for _ in range(min(20, config.points))]


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
        return [[[space.const(M[a, b]) for b in range(2)] for a in range(2)]]

    r1 = cn.curvature_02_residual(gam1, 1, 2, np.zeros(2))

    def gam2(space):
        zb2 = space.var(2) - 1j * space.var(3)
        z = space.const(0.0)
        G1 = [[z + 0.0, zb2], [z + 0.0, z + 0.0]]
        G2 = [[z + 0.0, z + 0.0], [z + 0.0, z + 0.0]]
        return [G1, G2]

    r2 = cn.curvature_02_residual(gam2, 2, 2, np.zeros(4))
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
        residuals.append(max(abs(prod.coef[i] - conv.get(a, 0.0))
                             for i, a in enumerate(prod.table.indices)))
    return residuals


@_check("jets-core", "dz-vs-finite-differences", 1e-5)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        phi = _random_real_poly(rng, 4, degree=4)
        z0 = rng.uniform(-0.5, 0.5, 2)
        v = dz_power(phi, 1, z0, order=2)
        h = 1e-4

        def fd(step):
            ddx = (phi(z0 + [step, 0]) - phi(z0 - [step, 0])) / (2 * step)
            ddy = (phi(z0 + [0, step]) - phi(z0 - [0, step])) / (2 * step)
            return dz(np.stack([ddx, ddy], axis=-1))

        rich = (4 * fd(h / 2) - fd(h)) / 3
        residuals.append(np.max(np.abs(v - rich)) / max(1.0, np.max(np.abs(v))))
    return residuals


@_check("jets-core", "holomorphic-pluriconformal", 1e-10)
def _(config, rng):
    residuals = []
    for _ in range(config.points):
        phi = _random_holomorphic_poly(rng)
        z0 = rng.uniform(-0.9, 0.9, 2)
        v = dz_power(phi, 1, z0, order=1)
        residuals.append(abs(bilinear_dot(v, v)))
        residuals.append(pluriconformality_residual(phi, z0))
    return residuals


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

# name -> (description, [check]) in declaration order
SUITES = {suite: (description, [check for key, check in CHECK_INDEX.items()
                                if key.partition(":")[0] == suite])
          for suite, description in _DESCRIPTIONS.items()}

CUSTOM_SUITES = {}


def register_custom_suite(name, description, check_refs):
    """Register a user suite assembled from built-in checks.

    ``check_refs`` is a list of (check_key, overrides) where check_key is
    "<suite>:<check>" and overrides may set tol or points for that check.
    The name must not be that of a built-in suite.
    """
    if name in SUITES:
        raise ValueError(f"suite name {name!r} is taken by a built-in suite")
    checks = []
    for key, overrides in check_refs:
        if key not in CHECK_INDEX:
            raise KeyError(f"unknown check {key!r}")
        checks.append((CHECK_INDEX[key], dict(overrides)))
    CUSTOM_SUITES[name] = (description, checks)


def _all_suites():
    """name -> (description, [(check, overrides)]): a built-in suite is its
    checks with no overrides."""
    builtin = {name: (desc, [(fn, {}) for fn in fns]) for name, (desc, fns) in SUITES.items()}
    return {**builtin, **CUSTOM_SUITES}


def list_suites():
    """Stable (sorted) list of (name, description), custom suites included."""
    return sorted((name, desc) for name, (desc, _) in _all_suites().items())


def run_suite(config):
    """Run all checks of a suite and return the sorted CheckReport list."""
    suites = _all_suites()
    if config.suite not in suites:
        raise KeyError(f"unknown suite {config.suite!r}")
    reports = [fn(replace(config, tol=overrides.get("tol", config.tol),
                          points=int(overrides.get("points", config.points))))
               for fn, overrides in suites[config.suite][1]]
    reports.sort(key=lambda r: r.name)
    return reports

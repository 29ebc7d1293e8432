"""Residual-list lock for the checks that evaluate all their draws at once.

The golden reports record only each check's largest residual.  Here every
residual of those checks must equal, by its bytes, the residual of a
reference loop that draws and evaluates one sample per iteration: one map at
one point, with the single-draw polynomial maps written term by term; one
admissibility test of h and one Newton solve per sample, with the one-point
solver written out; one checker evaluation per point, with the one-point
checkers written out; one lift or one family evaluation per point, with
the holomorphy or first-order isotropy residual written out; one structure
and one positivity test per draw; one jet evaluation per point, with four
separate exponentials, for Maurer-Cartan flatness; one structure, one
isotropic plane, vertical space or chart coordinate per draw for the
sigma-plus checks; one draw and one CP^3 call per point for the cp3-data
checks.  A lift over the row blocks of two maps equals the lift of each map,
and two counts pin the lifts and map evaluations a request makes.  Each
check's entry from run_suite, where the lifts-r4 checks share one lift,
equals its report alone, by the bytes of its residuals.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from twistorkit import connections as cn
from twistorkit import factory as fa
from twistorkit import lifts as lf
from twistorkit import structures as st
from twistorkit import variations as va
from twistorkit.checkers import (
    pluriconformality_residual,
    real_isotropy_residual,
    real_isotropy_residuals,
)
from twistorkit.jets import (
    JetSpace,
    SmoothMap,
    _horner,
    _laplace_trace,
    dz,
    dz_power,
    dzbar,
    gradient,
    laplacian,
    real_to_complex_point,
    values,
)
from twistorkit.pairings import _modulus, bilinear_dot
from twistorkit.structures import twistor_chart
from twistorkit.suites import (
    CHECK_INDEX,
    SUITES,
    CheckSpec,
    SuiteConfig,
    _admissible,
    _admissible_draws,
    _admissible_r6_points,
    _coeff_param,
    _lift_test_maps,
    _row_blocks,
    _skew,
    _sum_maps,
    check_rng,
    run_suite,
)

from jet_objects import const_objects


def _random_holomorphic_poly(rng, degree=3):
    co = rng.normal(size=(2, degree + 1)) + 1j * rng.normal(size=(2, degree + 1))

    return SmoothMap.from_complex(1, 2, lambda z: [_horner(row, z) for row in co])


def _random_real_poly(rng, dims, degree=3):
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


def _full_vs_diagonal(config, rng):
    tol = 1e-9 if config.tol is None else config.tol
    residuals = []
    for i in range(100):
        phi = _random_holomorphic_poly(rng) if i % 2 == 0 else _random_real_poly(rng, 4)
        z0 = rng.uniform(-0.9, 0.9, 2)
        full = real_isotropy_residual(phi, z0, 4)
        diag = real_isotropy_residuals(phi, z0, 4)[1]
        residuals.append(0.0 if (full <= tol) == (diag <= tol) else 1.0)
    return residuals


def _jacobi_identity(config, rng):
    residuals = []
    for _ in range(50):
        phi0 = _random_real_poly(rng, 2)
        v = _random_real_poly(rng, 2)
        p = rng.uniform(-1, 1, 2)
        _, tau1 = va.tension_first_order(va.affine_family(phi0, v), p)
        residuals.append(np.max(np.abs(tau1 + va.jacobi_operator_flat(v, p))))
    return residuals


def _tension_linearity(config, rng):
    residuals = []
    for _ in range(config.points):
        phi0 = _random_real_poly(rng, 2)
        v1 = _random_real_poly(rng, 2)
        v2 = _random_real_poly(rng, 2)
        p = rng.uniform(-1, 1, 2)
        t1 = va.tension_first_order(va.affine_family(phi0, v1), p)[1]
        t2 = va.tension_first_order(va.affine_family(phi0, v2), p)[1]
        t12 = va.tension_first_order(va.affine_family(phi0, _sum_maps(v1, v2)), p)[1]
        residuals.append(np.max(np.abs(t12 - t1 - t2)))
    return residuals


def _dz_vs_finite_differences(config, rng):
    residuals = []
    for _ in range(config.points):
        phi = _random_real_poly(rng, 4, degree=4)
        z0 = rng.uniform(-0.5, 0.5, 2)
        v = dz_power(phi, 1, z0)
        h = 1e-4

        def fd(step):
            ddx = (phi(z0 + [step, 0]) - phi(z0 - [step, 0])) / (2 * step)
            ddy = (phi(z0 + [0, step]) - phi(z0 - [0, step])) / (2 * step)
            return dz(np.stack([ddx, ddy], axis=-1))

        rich = (4 * fd(h / 2) - fd(h)) / 3
        residuals.append(np.max(np.abs(v - rich)) / max(1.0, np.max(np.abs(v))))
    return residuals


def _holomorphic_pluriconformal(config, rng):
    residuals = []
    for _ in range(config.points):
        phi = _random_holomorphic_poly(rng)
        z0 = rng.uniform(-0.9, 0.9, 2)
        v = dz_power(phi, 1, z0)
        residuals.append(abs(bilinear_dot(v, v)))
        residuals.append(pluriconformality_residual(phi, z0))
    return residuals


REFERENCES = {
    "isotropy-reduction:full-vs-diagonal": _full_vs_diagonal,
    "jacobi-first-order:jacobi-identity": _jacobi_identity,
    "jacobi-first-order:tension-linearity": _tension_linearity,
    "jets-core:dz-vs-finite-differences": _dz_vs_finite_differences,
    "jets-core:holomorphic-pluriconformal": _holomorphic_pluriconformal,
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_batched_check_residuals_match_per_draw_loop_bitwise(key, seed):
    suite, name = key.split(":")
    config = SuiteConfig(suite=suite, seed=seed, points=10)
    got = CHECK_INDEX[key](config).residuals
    want = [float(r) for r in REFERENCES[key](config, check_rng(config, name))]
    assert len(got) == len(want)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# Newton and positivity checks, one sample at a time

def _one_point_morphism(data, q, y):
    """The produced morphism at q by Newton from y, one point at a time."""
    polished = False
    for _ in range(fa.NEWTON_MAX_ITER):
        jets = data.h.jets(y, 1)
        val = values(jets).real
        res = float(np.linalg.norm(val - q))
        if res <= fa.NEWTON_TARGET and polished:
            return real_to_complex_point(y)[0]
        polished = res <= fa.NEWTON_TARGET
        y = y - np.linalg.solve(gradient(jets).real, val - q)
    raise AssertionError("reference Newton did not converge")


def _one_point_morphism_samples(rng, data, count, rejected):
    produced = 0
    while produced < count:
        zxi = rng.uniform(-0.8, 0.8, 6)
        q = data.h(zxi)
        qc = real_to_complex_point(q)
        if not _admissible(qc):
            rejected.append(zxi)
            continue
        produced += 1
        seed = zxi + rng.uniform(-0.05, 0.05, 6)
        yield zxi, qc, _one_point_morphism(data, q, seed)


def _factory_roundtrip(config, rng, rejected):
    f = _coeff_param(config, "f")
    data = fa.euclid_r6_data(f)
    closed = f == [0.0, 1.0]
    res_round, res_closed, res_implicit = [], [], []
    for zxi, qc, z in _one_point_morphism_samples(rng, data, config.points, rejected):
        res_round.append(abs(z - real_to_complex_point(zxi)[0]))
        res_implicit.append(fa.implicit_equation_residual(z, qc, f))
        if closed:
            zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
            res_closed.append(abs(z - zcf))
    return res_round + res_closed, {"implicit_max": max(res_implicit, default=0.0)}


def _implicit_equation(config, rng, rejected):
    return [fa.implicit_equation_residual(z, qc) for _zxi, qc, z in
            _one_point_morphism_samples(rng, fa.euclid_r6_data(), config.points,
                                        rejected)], {}


def _fibre_invariance(config, rng, rejected):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    residuals = []
    for _ in range(10):
        z = rng.uniform(-0.6, 0.6, 2)
        base = None
        for _ in range(10):
            zxi = np.concatenate([z, rng.uniform(-0.6, 0.6, 4)])
            q = data.h(zxi)
            if not _admissible(real_to_complex_point(q)):
                rejected.append(zxi)
                continue
            val = _one_point_morphism(data, q, zxi + rng.uniform(-0.02, 0.02, 6))
            if base is None:
                base = val
            residuals.append(abs(val - base))
    return residuals, {}


def _one_rotation(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _one_point_draws(rng, count):
    """The admissible points of R^6 of the closed-form checks, one at a
    time."""
    produced = 0
    while produced < count:
        q = rng.uniform(-1.0, 1.0, 6)
        if _admissible(real_to_complex_point(q)):
            produced += 1
            yield q


# the one-point checker bodies written out, as references for the batched checkers

def _harmonicity_at(phi, p):
    return float(np.linalg.norm(laplacian(phi, p)))


def _hwc_at(phi, p):
    D = phi.jacobian(p)
    G = D @ D.T
    lam = float(np.trace(G)) / len(G)
    return float(np.linalg.norm(G - lam * np.eye(len(G))))


def _pullback_at(phi, g, p):
    (w,) = phi.complex_jets(p, 2)
    return abs(_laplace_trace(_horner(g, w).real))


def _horizontality_at(data, p):
    grad = gradient(data.mu.jets(p, 1))
    return np.max([m for v in range(data.n, data.k) for d in (dz, dzbar)
                   for m in _modulus(d(grad, v))])


def _chart_holomorphy_at(data, p):
    mu = data.mu.complex_jets(p, 1)
    w, _ = twistor_chart(data.h.complex_jets(p, 1), mu)
    return np.max([m for grad, count in ((gradient(w), data.k), (gradient(mu), data.n))
                   for v in range(count) for m in _modulus(dzbar(grad, v))])


def _closed_form_harmonicity(config, rng, rejected):
    phi = fa.closed_form_r6()
    return [_harmonicity_at(phi, p) for p in _one_point_draws(rng, config.points)], {}


def _closed_form_hwc(config, rng, rejected):
    phi = fa.closed_form_r6()
    return [_hwc_at(phi, p) for p in _one_point_draws(rng, config.points)], {}


def _pullback_oracle(config, rng, rejected):
    phi = fa.closed_form_r6()
    return [_pullback_at(phi, [0.0] * d + [1.0], p)
            for p in _one_point_draws(rng, min(20, config.points)) for d in (1, 2, 3)], {}


def _horizontality(config, rng, rejected):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    return [_horizontality_at(data, rng.uniform(-0.8, 0.8, 6))
            for _ in range(config.points)], {}


def _chart_holomorphy(config, rng, rejected):
    data = fa.euclid_r6_data(_coeff_param(config, "f"))
    return [_chart_holomorphy_at(data, rng.uniform(-0.8, 0.8, 6))
            for _ in range(config.points)], {}


def _lift_holomorphy(config, rng, rejected):
    maps = _lift_test_maps()
    J1 = st.canonical_structure(1).matrix
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-0.9, 0.9, 2)
        for phi in maps:
            D = phi.jacobian(p)
            J = lf.strictly_compatible_lift_r4(phi, p).structure(p).matrix
            residuals.append(float(np.linalg.norm(D @ J1 - J @ D)))
    return residuals, {}


def _holomorphic_family(config, rng, rejected):
    fam = va.complex_family(1, 1, lambda t, z: [z * z + t * z * z * z])
    residuals = []
    for _ in range(config.points):
        p = rng.uniform(-1, 1, 2)
        for R in (1, 3):
            vec = fam.jets(np.concatenate([[0.0], p]), R + 1)  # at (t, x) = (0, p)
            base, t1 = [], []
            for _ in range(R):
                vec = (vec.partial(1) - 1j * vec.partial(2)) * 0.5
                s = vec @ vec
                base.append(abs(complex(values(s))))
                t1.append(abs(complex(gradient(s)[0])))
            residuals += [max(base), max(t1)]
    return residuals, {}


def _so_action_positivity(config, rng, rejected):
    residuals = []
    for _ in range(200):
        k = int(rng.integers(1, 4))
        J = st.so_action(_one_rotation(rng, 2 * k), st.canonical_structure(k))
        residuals.append(0.0 if st.is_positive(J) else 1.0)
        refl = np.eye(J.dim)
        refl[0, 0] = -1.0
        residuals.append(1.0 if st.is_positive(st.so_action(refl, J)) else 0.0)
    return residuals, {}


# reference(config, rng, rejected) -> (residuals, aux); a sampling loop
# appends each point it rejects to ``rejected``
ONE_SAMPLE_REFERENCES = {
    "euclid-hm:closed-form-harmonicity": _closed_form_harmonicity,
    "euclid-hm:closed-form-hwc": _closed_form_hwc,
    "euclid-hm:pullback-oracle": _pullback_oracle,
    "euclid-hm:factory-roundtrip": _factory_roundtrip,
    "euclid-hm:implicit-equation": _implicit_equation,
    "euclid-hm:horizontality": _horizontality,
    "euclid-hm:chart-holomorphy": _chart_holomorphy,
    "euclid-hm:fibre-invariance": _fibre_invariance,
    "jacobi-first-order:holomorphic-family": _holomorphic_family,
    "lifts-r4:lift-holomorphy": _lift_holomorphy,
    "sigma-plus-algebra:so-action-positivity": _so_action_positivity,
}

# Seeds at --points 10 and the default f at which the check's sampling loop
# rejects a draw, so that the draws taken ahead are rewound.  A sampler that
# kept the current fibre's z across a rewind read 3.97e-1 for
# fibre-invariance at these three seeds and passed seeds 1, 2 and 3.
REJECTING_SEEDS = {
    "euclid-hm:fibre-invariance": (686, 866, 1052),
    "euclid-hm:factory-roundtrip": (8, 14),
    "euclid-hm:implicit-equation": (5, 8),
}


def _one_sample_cases():
    for key in sorted(ONE_SAMPLE_REFERENCES):
        fs = (None, "0,1,0.5") if "f" in CHECK_INDEX[key].params else (None,)
        for f in fs:
            for seed in (1, 2, 3) + (REJECTING_SEEDS.get(key, ()) if f is None else ()):
                yield key, f, seed


def _one_sample_reference(key, f, seed):
    """(the check's report, the reference's residuals, aux, rejected draws)."""
    suite, name = key.split(":")
    params = {} if f is None else {"f": f}
    config = SuiteConfig(suite=suite, seed=seed, points=10, params=params)
    rejected = []
    want, aux = ONE_SAMPLE_REFERENCES[key](config, check_rng(config, name), rejected)
    return CHECK_INDEX[key](config), want, aux, rejected


@pytest.mark.parametrize("key, f, seed", list(_one_sample_cases()))
def test_batched_check_residuals_match_one_sample_loop_bitwise(key, f, seed):
    report, want, aux, _ = _one_sample_reference(key, f, seed)
    assert len(report.residuals) == len(want) > 0
    assert np.array(report.residuals).tobytes() == np.array(want, dtype=float).tobytes()
    assert repr(report.aux) == repr(aux)


@pytest.mark.parametrize("key, seed", [(key, seed) for key, seeds in REJECTING_SEEDS.items()
                                       for seed in seeds])
def test_reference_loop_rejects_a_draw_at_each_rejecting_seed(key, seed):
    assert _one_sample_reference(key, None, seed)[3]


# ---------------------------------------------------------------------------
# the draw-ahead sampler against the loop it replaces

def _sequential_draws(rng, h, propose, start, more):
    """The loop of :func:`suites._admissible_draws`, one attempt at a time."""
    accepted, i = [], 0
    while more(i, len(accepted)):
        x = propose(rng, i)
        q = h(x)
        if _admissible(real_to_complex_point(q)):
            accepted.append((i, x, q, start(rng, x)))
        i += 1
    return accepted


def _rejecting_h(rejected):
    """h with an admissible image except at the attempts in ``rejected``,
    read off the last coordinate, where 1 + conj q1 - conj q2 = 0."""
    def h(x):
        q = np.zeros(np.shape(x))
        q[..., 0] = np.where(np.isin(x[..., 5], rejected), -1.0, 0.25)
        return q

    return h


def _fibre_proposals():
    """Ten attempts per fibre, each fibre's z drawn at its first attempt and
    kept by fibre; the attempt's index is its last coordinate."""
    z = {}

    def propose(rng, i):
        if i % 10 == 0:
            z[i // 10] = rng.uniform(-1, 1, 2)
        return np.concatenate([z[i // 10], rng.uniform(-1, 1, 3), [i]])

    return propose


def _start(rng, x):
    return x + rng.uniform(-0.1, 0.1, 6)


@pytest.mark.parametrize("more", [lambda i, accepted: i < 100,
                                  lambda i, accepted: accepted < 10],
                         ids=["100-attempts", "10-accepted"])
@pytest.mark.parametrize("rejected", [(), (0,), (99,), (9,), (10,), (40, 41), (9, 10),
                                      (19, 20, 21), (0, 1, 2, 3), tuple(range(0, 100, 3))])
def test_admissible_draws_match_the_sequential_loop(rejected, more):
    h = _rejecting_h(rejected)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    want = _sequential_draws(rng_a, h, _fibre_proposals(), _start, more)
    got = _admissible_draws(rng_b, h, _fibre_proposals(), _start, more)
    assert len(got[0]) == len(want) > 0
    for column, bits in zip(got, zip(*want)):
        assert column.tobytes() == np.array(bits).tobytes()
    assert not set(got[0].tolist()) & set(rejected)
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


@pytest.mark.parametrize("seed, count", [(1, 10), (1, 4), (2, 10), (37, 3), (5, 1)])
def test_admissible_r6_points_match_the_one_point_draws(seed, count):
    # seeds 1, 2 and 37 reject the draws 3 and 8, 5, and 2 of this loop
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    first = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 6))
    assert _admissible(real_to_complex_point(first)).all() == (seed == 5)
    want = np.array(list(_one_point_draws(rng_a, count)))
    got = _admissible_r6_points(rng_b, count)
    assert got.shape == (count, 6) and got.tobytes() == want.tobytes()
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


# ---------------------------------------------------------------------------
# Maurer-Cartan flatness, one point at a time


def _one_point_jet_expm(M, x, space):
    """exp(x M) as a jet matrix at one point: expm at the constant term times
    the nilpotent series of the offset."""
    out = term = const_objects(space, cn.expm(x.value.real * M))
    Mj = const_objects(space, M)
    delta = x - x.value
    for n in range(1, space.order + 1):
        # (term @ Mj) * delta / n entry by entry, as an object array times a jet
        term = np.array([[e * delta / n for e in row] for row in term @ Mj])
        out = out + term
    return out


def _one_point_mc_flatness(A, B, p):
    """|d_1 a_2 - d_2 a_1 + [a_1, a_2]| for g^(-1) dg, g = exp(x1 A) exp(x2 B),
    in closed form a_1 = exp(-x2 B) A exp(x2 B), a_2 = B, with each of the two
    exponentials computed on its own."""
    space = JetSpace(p, 1)
    x2 = space.var(1)
    e2, e2m = _one_point_jet_expm(B, x2, space), _one_point_jet_expm(-B, x2, space)
    comps = [e2m @ const_objects(space, A) @ e2, const_objects(space, B)]
    vals, grad = values(comps), gradient(comps)
    return float(np.linalg.norm(grad[1, ..., 0] - grad[0, ..., 1]
                                + vals[0] @ vals[1] - vals[1] @ vals[0]))


def _mc_flatness(config, rng):
    A, B = _skew(rng), _skew(rng)
    return [_one_point_mc_flatness(A, B, rng.uniform(-1, 1, 2))
            for _ in range(min(20, config.points))]


@pytest.mark.parametrize("points", [3, 10, 50])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_flatness_check_matches_one_point_loop_bitwise(seed, points):
    name = "maurer-cartan-flatness"
    config = SuiteConfig(suite="flat-connection", seed=seed, points=points)
    got = CHECK_INDEX[f"flat-connection:{name}"](config).residuals
    want = _mc_flatness(config, check_rng(config, name))
    assert len(got) == min(20, points)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# the sigma-plus checks that evaluate one stack per k, one draw at a time

def _one_structure(rng, kmin):
    k = int(rng.integers(kmin, 4))
    return st.so_action(_one_rotation(rng, 2 * k), st.canonical_structure(k))


def _isotropic_roundtrip(config, rng):
    residuals = []
    for _ in range(config.points):
        J = _one_structure(rng, 1)
        J2 = st.from_isotropic(st.to_isotropic(J))
        residuals.append(np.max(np.abs(J2.matrix - J.matrix)))
    return residuals


def _so_action_group_law(config, rng):
    residuals = []
    for _ in range(config.points):
        k = int(rng.integers(1, 4))
        J = st.canonical_structure(k)
        S1, S2 = _one_rotation(rng, 2 * k), _one_rotation(rng, 2 * k)
        lhs = st.so_action(S1 @ S2, J).matrix
        rhs = st.so_action(S1, st.so_action(S2, J)).matrix
        residuals.append(np.max(np.abs(lhs - rhs)))
    return residuals


def _jv_involution(config, rng):
    residuals = []
    for _ in range(config.points):
        J = _one_structure(rng, 2)
        lam = sum(rng.normal() * b for b in st.mj_basis(J))
        jv = st.jv_apply(J, lam)
        residuals.append(st.mj_residual(jv, J))
        residuals.append(np.max(np.abs(st.jv_apply(J, jv) + lam)))
    return residuals


def _mu_chart_roundtrip(config, rng):
    residuals = []
    for _ in range(config.points):
        k = int(rng.integers(2, 4))
        mu = rng.normal(size=k * (k - 1) // 2) + 1j * rng.normal(size=k * (k - 1) // 2)
        J = st.structure_from_mu(mu, k)
        residuals.append(0.0 if st.is_positive(J) else 1.0)
        residuals.append(np.max(np.abs(st.mu_from_structure(J) - mu)))
    return residuals


SIGMA_PLUS_REFERENCES = {
    "isotropic-roundtrip": _isotropic_roundtrip,
    "so-action-group-law": _so_action_group_law,
    "jv-involution": _jv_involution,
    "mu-chart-roundtrip": _mu_chart_roundtrip,
}


@pytest.mark.parametrize("points", [3, 10, 50])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(SIGMA_PLUS_REFERENCES))
def test_sigma_plus_check_matches_one_point_loop_bitwise(name, seed, points):
    config = SuiteConfig(suite="sigma-plus-algebra", seed=seed, points=points)
    got = CHECK_INDEX[f"sigma-plus-algebra:{name}"](config).residuals
    want = SIGMA_PLUS_REFERENCES[name](config, check_rng(config, name))
    assert len(got) == len(want) >= points
    assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# NaN residuals are reported, not passed over


class _OverflowDraws:
    """Draws for product-convolution: base points at 0 and coefficients
    whose products overflow to inf only in some coefficients of degree 2 and
    3, where the product and the reference convolution differ by NaN."""

    def uniform(self, low, high, size):
        return np.zeros(size)

    def normal(self, size):
        return np.array([0.5, 1e200, 0.25, 1e200])


def test_product_convolution_reports_a_nan_coefficient_difference(monkeypatch):
    import twistorkit.suites as suites

    monkeypatch.setattr(suites, "check_rng", lambda *args: _OverflowDraws())
    with np.errstate(over="ignore", invalid="ignore"):
        report = CHECK_INDEX["jets-core:product-convolution"](SuiteConfig("jets-core", points=3))
    # the constant coefficient differs by 0.0 and some later ones by NaN
    assert len(report.residuals) == 3 and all(np.isnan(report.residuals))


def test_factory_roundtrip_aux_reports_a_nan_implicit_residual(monkeypatch):
    residual = fa.implicit_equation_residual
    calls = []

    def second_is_nan(z, q, f_coeffs):
        calls.append(z)
        return float("nan") if len(calls) == 2 else residual(z, q, f_coeffs)

    monkeypatch.setattr(fa, "implicit_equation_residual", second_is_nan)
    report = CHECK_INDEX["euclid-hm:factory-roundtrip"](SuiteConfig("euclid-hm", points=4))
    assert len(calls) == 4 and np.isnan(report.aux["implicit_max"])


def _cp3_constraints(builder):
    def reference(config, rng):
        data = builder()
        return [fa.cp3_constraints_residual(data, rng.integers(-16, 17, 6) / 16.0)
                for _ in range(config.points)]
    return reference


def _cp3_linear_system(config, rng):
    return [fa.cp3_linear_system_residual(builder(), rng.uniform(-1, 1, 6))
            for builder in (fa.cp3_example1_data, fa.cp3_morphism_data)
            for _ in range(config.points // 2 + 1)]


def _cp3_point_formulas(config, rng):
    residuals = []
    for _ in range(config.points):
        z = rng.uniform(-0.9, 0.9, 2)
        x = fa.cp3_point(fa.cp3_morphism_data(), np.concatenate([z, np.zeros(4)]))
        residuals.append(max(map(abs, x - [0.0, 0.0, 1.0, complex(z[0], z[1])])))
    x = fa.cp3_point(fa.cp3_example1_data(), np.zeros(6))
    return residuals + [max(map(abs, x - [0.0, 0.0, 1.0, 0.0]))]


CP3_REFERENCES = {
    "cp3-data:cp3-example1-constraints": _cp3_constraints(fa.cp3_example1_data),
    "cp3-data:cp3-morphism-constraints": _cp3_constraints(fa.cp3_morphism_data),
    "cp3-data:cp3-linear-system": _cp3_linear_system,
    "cp3-data:cp3-point-formulas": _cp3_point_formulas,
}


@pytest.mark.parametrize("points", [3, 10, 50])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CP3_REFERENCES))
def test_cp3_check_matches_one_point_loop_bitwise(name, seed, points):
    # one draw and one library call per point, as the check made before it
    # drew all its points at once
    config = SuiteConfig("cp3-data", points=points, seed=seed)
    report = CHECK_INDEX[name](config)
    want = CP3_REFERENCES[name](config, check_rng(config, name.split(":")[1]))
    assert np.array(report.residuals).tobytes() == np.array(want, dtype=float).tobytes()


def test_flipping_a_sign_of_x3_fails_the_linear_system(monkeypatch):
    # x3 = 1 + |g|^2 + |d|^2 - w (conj(g) a + conj(d) b): x1-x4 are written
    # once, so the flipped term reaches cp3_point and the chart alike
    source = inspect.getsource(fa._cp3_jets)
    mutant = source.replace("cg * a + cd * b", "cg * a - cd * b")
    assert mutant != source
    scope = {}
    exec(mutant, vars(fa), scope)
    config = SuiteConfig("cp3-data", points=10)
    assert CHECK_INDEX["cp3-data:cp3-linear-system"](config).passed
    monkeypatch.setattr(fa, "_cp3_jets", scope["_cp3_jets"])
    residuals = CHECK_INDEX["cp3-data:cp3-linear-system"](config).residuals
    # example 1's rows, then the morphism data's
    assert min(max(residuals[:6]), max(residuals[6:])) > 0.1


# the umbilic-branch check's map (x, 0, 0, y): dz^2 of it vanishes, so every
# row of a lift of it is umbilic, and no row of a lift of holo is
FOLD = SmoothMap.from_complex(1, 2, lambda z: [(z + z.conj()) * 0.5, (z - z.conj()) * 0.5])


@pytest.mark.parametrize("points", [1, 3, 10])
@pytest.mark.parametrize("pair", ["holo-chart", "fold-holo"])
def test_a_lift_of_row_blocks_is_the_lift_of_each_map_bitwise(pair, points, monkeypatch):
    holo, chart = _lift_test_maps()
    maps = (holo, chart) if pair == "holo-chart" else (FOLD, holo)
    splits = []
    split_rows = lf.split_rows
    monkeypatch.setattr(lf, "split_rows", lambda *args: splits.append(1) or split_rows(*args))
    P = np.random.default_rng(points).uniform(-0.9, 0.9, (points, 2))
    PP = np.concatenate([P, P])
    L = lf.strictly_compatible_lift_r4(_row_blocks(*maps), PP)
    assert len(splits) == (pair == "fold-holo")
    for k, phi in enumerate(maps):
        rows = slice(k * points, (k + 1) * points)
        Lk = lf.strictly_compatible_lift_r4(phi, P)
        assert L.sign[rows].tobytes() == Lk.sign.tobytes()
        assert L.both_signs_valid[rows].tobytes() == Lk.both_signs_valid.tobytes()
        for order in (0, 1):
            assert (L.structure_jets(PP, order).coef[rows].tobytes()
                    == Lk.structure_jets(P, order).coef.tobytes())
        for a in (1, 2):
            assert (lf.j_vertical_residual(L, PP, a)[rows].tobytes()
                    == lf.j_vertical_residual(Lk, P, a).tobytes())
        for direction in ("z", "zbar"):
            assert (lf.t10_stability_residual(L, PP, direction)[rows].tobytes()
                    == lf.t10_stability_residual(Lk, P, direction).tobytes())
    assert list(L.both_signs_valid) == [pair == "fold-holo"] * points + [False] * points


def test_a_lifts_r4_request_builds_two_lifts(monkeypatch):
    # umbilic-branch's own one-point lift while run_suite calls the bodies,
    # then one lift over the rows the other four ask for, in table order:
    # both test maps at 10 points for lift-holomorphy, lift-vertical-conditions
    # and lift-t10-stability, the chart at 10 for lift-vertical-part
    shapes = _lift_shapes(monkeypatch)
    reports = run_suite(SuiteConfig("lifts-r4", points=10))
    assert all(r.passed for r in reports)
    assert shapes == [(2,), (70, 2)]


def _lift_shapes(monkeypatch):
    """The list to which each lift built from now on adds its points' shape."""
    shapes = []
    lift = lf.strictly_compatible_lift_r4
    monkeypatch.setattr(lf, "strictly_compatible_lift_r4",
                        lambda phi, z0: shapes.append(np.shape(z0)) or lift(phi, z0))
    return shapes


def _assert_same_entry(got, alone):
    assert ((got.name, got.points, got.tolerance, repr(got.aux))
            == (alone.name, alone.points, alone.tolerance, repr(alone.aux)))
    assert np.array(got.residuals).tobytes() == np.array(alone.residuals).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("points", [1, 10])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_check_gets_from_run_suite_the_entry_it_gets_alone(suite, points, seed):
    # the built-in suites hold every CHECK_INDEX entry; in lifts-r4 a check
    # alone lifts only its own rows, in run_suite it shares one lift
    config = SuiteConfig(suite, points=points, seed=seed)
    reports = {r.name: r for r in run_suite(config)}
    assert len(reports) == len(SUITES[suite][1])
    for spec, _ in SUITES[suite][1]:
        _assert_same_entry(reports[spec.name], spec(config))


def _lift_fields(phi, n):
    """A body that asks for a lift of phi at n points and returns its sign,
    both_signs_valid and structure jets as residuals."""
    def body(config, rng):
        P = rng.uniform(-0.9, 0.9, (n, 2))
        L = yield phi, P
        assert L.base_map is phi
        jets = L.structure_jets(P, 1).coef.view(float).ravel()
        return np.concatenate([L.sign, L.both_signs_valid, jets])

    return body


def test_each_body_is_sent_its_own_rows_of_the_shared_lift():
    # the fold's umbilic rows between the others make the shared lift split its rows
    holo, chart = _lift_test_maps()
    specs = [CheckSpec("rows", f"c{k}", 1.0, (), _lift_fields(phi, n))
             for k, (phi, n) in enumerate([(holo, 3), (FOLD, 4), (chart, 1), (holo, 2)])]
    config = SuiteConfig("rows", points=1)
    reports = run_suite(config, {"rows": ("", [(spec, {}) for spec in specs])})
    for report, spec in zip(reports, specs):
        body = spec.body(config, check_rng(config, spec.name))
        phi, P = next(body)
        with pytest.raises(StopIteration) as done:
            body.send(lf.strictly_compatible_lift_r4(phi, P))
        assert np.array(report.residuals).tobytes() == done.value.value.tobytes()


def test_a_custom_table_gives_each_check_the_entry_it_gets_alone(monkeypatch):
    # lifts checks in jets-core's table, on jets-core's streams, two with
    # their own points: the shared lift's blocks have 6, 7 and 10 rows
    checks = [(CHECK_INDEX["lifts-r4:lift-holomorphy"], {"points": 3}),
              (CHECK_INDEX["jets-core:pairing-laws"], {}),
              (CHECK_INDEX["lifts-r4:lift-vertical-part"], {"points": 7}),
              (CHECK_INDEX["lifts-r4:umbilic-branch"], {"tol": 0.0}),
              (CHECK_INDEX["lifts-r4:lift-t10-stability"], {"tol": 1e-3}),
              (CHECK_INDEX["jets-core:holomorphic-pluriconformal"], {})]
    config = SuiteConfig("jets-core", points=5, seed=3)
    shapes = _lift_shapes(monkeypatch)
    reports = {r.name: r for r in run_suite(config, {"jets-core": ("", checks)})}
    assert shapes == [(2,), (6 + 7 + 10, 2)]
    assert len(reports) == len(checks)
    for spec, overrides in checks:
        _assert_same_entry(reports[spec.name], spec(replace(config, **overrides)))


def test_dz_vs_finite_differences_evaluates_its_maps_twice(monkeypatch):
    # once at order 1 for dz, once at order 0 at all eight shifted points
    import twistorkit.suites as suites

    calls = []
    real_poly = suites._real_poly

    def counting(co):
        phi = real_poly(co)

        def evaluator(point, order):
            calls.append((np.shape(point), order))
            return phi.evaluator(point, order)

        return SmoothMap(phi.domain_dim, phi.codomain_dim, evaluator)

    monkeypatch.setattr(suites, "_real_poly", counting)
    report = CHECK_INDEX["jets-core:dz-vs-finite-differences"](SuiteConfig("jets-core", points=10))
    assert report.passed and calls == [((10, 2), 1), ((80, 2), 0)]

"""Morphism factory: data validation, Newton inversion, projective data."""

import numpy as np
import pytest

from twistorkit.checkers import harmonic_morphism_residual
from twistorkit.factory import (
    CP3Data,
    EuclideanTwistorData,
    NewtonDivergenceError,
    NewtonRecord,
    SingularJacobianError,
    cp3_affine_jacobian,
    cp3_constraints_residual,
    cp3_example1_data,
    cp3_linear_system_residual,
    cp3_local_diffeo_check,
    cp3_morphism_data,
    cp3_point,
    euclid_r6_data,
    evaluate_morphism,
    implicit_equation_residual,
    invert_h,
    jacobian_min_sv,
    morphism_as_map,
    registry_build,
    verify_chart_holomorphy,
    verify_horizontality,
)
from twistorkit.jets import SmoothMap, real_to_complex_point

RNG = np.random.default_rng(31415)


def forward_samples(data, count, rng, guard=True):
    out = []
    while len(out) < count:
        zxi = rng.uniform(-0.8, 0.8, 6)
        q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
        qc = real_to_complex_point(q)
        if guard and abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        out.append((zxi, q, qc))
    return out


# ---------------------------------------------------------------------------
# Euclidean data

def test_horizontality():
    data = euclid_r6_data()
    pts = [RNG.uniform(-0.9, 0.9, 6) for _ in range(100)]
    assert verify_horizontality(data, pts) == 0.0
    # broken data: mu depends on xi
    bad_mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [x1, 0 * z, 0 * z])
    bad = EuclideanTwistorData(n=1, p=2, h=data.h, mu=bad_mu)
    assert abs(verify_horizontality(bad, [np.zeros(6)]) - 0.5) < 1e-15


def test_chart_holomorphy():
    data = euclid_r6_data()
    pts = [RNG.uniform(-0.9, 0.9, 6) for _ in range(50)]
    assert verify_chart_holomorphy(data, pts) <= 1e-10
    conj_h = SmoothMap.from_complex(
        3, 3, lambda z, x1, x2: [z.conj(), x1, x2])
    zero_mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [0 * z, 0 * z, 0 * z])
    bad = EuclideanTwistorData(n=1, p=2, h=conj_h, mu=zero_mu)
    assert abs(verify_chart_holomorphy(bad, [np.zeros(6)]) - 1.0) < 1e-14


def test_jacobian_min_sv():
    ident = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [z, x1, x2])
    assert abs(jacobian_min_sv(ident, np.zeros(6)) - 1.0) < 1e-14
    sq = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    assert jacobian_min_sv(sq, np.zeros(2)) <= 1e-14
    data = euclid_r6_data()
    assert jacobian_min_sv(data.h, np.zeros(6)) > 0.1


def test_invert_h_roundtrip_and_convergence_log():
    data = euclid_r6_data()
    for zxi, q, _ in forward_samples(data, 10, np.random.default_rng(1)):
        rec = NewtonRecord()
        y = invert_h(data, q, zxi + 0.05, record=rec)
        val = np.array([j.value.real for j in data.h.jets(y, 0)])
        assert np.linalg.norm(val - q) <= 1e-12
        drops = [rec.residuals[i + 1] / max(rec.residuals[i], 1e-300)
                 for i in range(len(rec.residuals) - 2)]
        assert rec.converged
        assert all(d < 0.5 for d in drops)  # at least geometric, in fact quadratic


def test_invert_h_evaluates_h_once_per_iteration():
    data = euclid_r6_data()
    calls = []
    evaluator = data.h.evaluator

    def counted(point, order):
        calls.append(order)
        return evaluator(point, order)

    data.h = SmoothMap(6, 6, counted)
    zxi = np.array([0.2, -0.1, 0.3, 0.1, -0.2, 0.25])
    q = data.h(zxi)
    calls.clear()
    rec = NewtonRecord()
    invert_h(data, q, zxi + 0.05, record=rec)
    assert rec.converged and len(calls) == len(rec.residuals)


def test_invert_h_error_modes():
    ident = SmoothMap.from_complex(1, 1, lambda z: [z])
    sq_h = SmoothMap.from_complex(1, 1, lambda z: [z * z])
    zero_mu0 = SmoothMap.from_complex(1, 0, lambda z: [])
    data_sq = EuclideanTwistorData(n=1, p=0, h=sq_h, mu=zero_mu0)
    with pytest.raises(SingularJacobianError):
        invert_h(data_sq, np.array([0.5, 0.5]), np.zeros(2))
    bounded = SmoothMap.from_complex(1, 1, lambda z: [(1 + z * z).reciprocal()])
    data_far = EuclideanTwistorData(n=1, p=0, h=bounded, mu=zero_mu0)
    with pytest.raises((NewtonDivergenceError, SingularJacobianError)):
        invert_h(data_far, np.array([50.0, 0.0]), np.array([3.0, 0.0]))


def test_identity_data_morphism_is_projection():
    h = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [z, x1, x2])
    mu = SmoothMap.from_complex(3, 3, lambda z, x1, x2: [0 * z, 0 * z, 0 * z])
    data = EuclideanTwistorData(n=1, p=2, h=h, mu=mu)
    q = RNG.uniform(-1, 1, 6)
    z = evaluate_morphism(data, q, seed_point=q)
    assert abs(z[0] - real_to_complex_point(q)[0]) <= 1e-12


def test_closed_form_reproduction_and_implicit_equation():
    data = euclid_r6_data()
    rng = np.random.default_rng(7)
    for zxi, q, qc in forward_samples(data, 50, rng):
        seed = zxi + rng.uniform(-0.05, 0.05, 6)
        z = evaluate_morphism(data, q, seed_point=seed)[0]
        zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
        assert abs(z - zcf) <= 1e-10
        assert implicit_equation_residual(z, qc) <= 1e-12
        # round trip against the sampled fibre coordinates
        assert abs(z - real_to_complex_point(zxi)[0]) <= 1e-10


def test_fibre_invariance():
    data = euclid_r6_data()
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.uniform(-0.6, 0.6, 2)
        vals = []
        for _ in range(10):
            zxi = np.concatenate([z, rng.uniform(-0.6, 0.6, 4)])
            q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
            qc = real_to_complex_point(q)
            if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
                continue
            vals.append(evaluate_morphism(data, q, seed_point=zxi + 0.01)[0])
        assert max(abs(v - vals[0]) for v in vals) <= 1e-10


def analytic_seed(q):
    """Chart-inverse seed for the f(z) = z data: exact up to rounding, so
    Newton only has to polish (it still solves h(y) = q on its own)."""
    qc = real_to_complex_point(q)
    z = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
    x1 = qc[0] - z * np.conj(qc[1])
    x2 = qc[1] + z * np.conj(qc[0])
    out = np.empty(6)
    out[0::2] = [z.real, x1.real, x2.real]
    out[1::2] = [z.imag, x1.imag, x2.imag]
    return out


def test_morphism_as_map_is_harmonic_morphism():
    data = euclid_r6_data()
    mm = morphism_as_map(data, seed_fn=analytic_seed)
    rng = np.random.default_rng(9)
    count = 0
    while count < 20:
        q = rng.uniform(-0.7, 0.7, 6)
        qc = real_to_complex_point(q)
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        count += 1
        harm, hwc = harmonic_morphism_residual(mm, q)
        assert harm <= 1e-6 and hwc <= 1e-6
        # agrees with the closed form
        zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
        val = mm(q)
        assert abs(complex(val[0], val[1]) - zcf) <= 1e-10


def test_registry():
    data = registry_build("euclid-r6-f=z")
    assert isinstance(data, EuclideanTwistorData)
    assert isinstance(registry_build("cp3-example-1"), CP3Data)
    assert isinstance(registry_build("cp3-harmonic-morphism", P=(0, 2.0)), CP3Data)
    with pytest.raises(KeyError):
        registry_build("nope")


def test_nontrivial_f_still_valid_data():
    data = euclid_r6_data(f_coeffs=(0.0, 1.0, 0.5))  # f(z) = z + z^2/2... etc
    pts = [RNG.uniform(-0.5, 0.5, 6) for _ in range(20)]
    assert verify_horizontality(data, pts) == 0.0
    assert verify_chart_holomorphy(data, pts) <= 1e-10
    rng = np.random.default_rng(12)
    for zxi, q, _ in forward_samples(data, 10, rng, guard=False):
        z = evaluate_morphism(data, q, seed_point=zxi + 0.01)
        assert abs(z[0] - real_to_complex_point(zxi)[0]) <= 1e-10


# ---------------------------------------------------------------------------
# projective data

def dyadic(rng, n=6):
    return rng.integers(-16, 17, n) / 16.0


def test_cp3_constraints_exact_zero():
    rng = np.random.default_rng(2)
    d1, dm = cp3_example1_data(), cp3_morphism_data()
    for _ in range(50):
        assert cp3_constraints_residual(d1, dyadic(rng)) == 0.0
        assert cp3_constraints_residual(dm, dyadic(rng)) == 0.0


def test_cp3_constraints_detect_broken_data():
    broken = CP3Data(
        nz=2, nxi=1,
        alpha=lambda zs: zs[2] + zs[0],
        beta=lambda zs: zs[2] + zs[1],
        gamma=lambda zs: zs[2] ** 3,
        delta=lambda zs: zs[2] * zs[2] + zs[1],
        w=lambda zs: 2 * zs[2],
    )
    assert cp3_constraints_residual(broken, np.full(6, 0.5)) > 0.1


def test_cp3_point_formulas():
    d1 = cp3_example1_data()
    assert np.allclose(cp3_point(d1, np.zeros(6)), [0, 0, 1, 0])
    dm = cp3_morphism_data()
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-0.9, 0.9, 2)
        pt = np.concatenate([z, np.zeros(4)])
        x = cp3_point(dm, pt)
        w = complex(z[0], z[1])  # P(z) = z
        assert np.allclose(x, [0, 0, 1, w])
    zeros = CP3Data(nz=1, nxi=2, alpha=lambda zs: 0 * zs[0], beta=lambda zs: 0 * zs[0],
                    gamma=lambda zs: 0 * zs[0], delta=lambda zs: 0 * zs[0],
                    w=lambda zs: 0 * zs[0])
    assert np.allclose(cp3_point(zeros, np.zeros(6)), [0, 0, 1, 0])


def test_cp3_linear_system_consistency():
    rng = np.random.default_rng(4)
    for data in (cp3_example1_data(), cp3_morphism_data()):
        for _ in range(30):
            assert cp3_linear_system_residual(data, rng.uniform(-1, 1, 6)) <= 1e-12


def test_cp3_local_diffeo():
    assert cp3_local_diffeo_check(cp3_example1_data(), np.zeros(6)) > 1e-3
    assert cp3_local_diffeo_check(cp3_morphism_data(), np.zeros(6)) > 0.5
    degenerate = cp3_morphism_data(P=(0.0, 0.0))  # p = 0 breaks the assumption
    assert cp3_local_diffeo_check(degenerate, np.zeros(6)) <= 1e-12


def test_cp3_jacobian_pattern():
    for p, q, r in [(1.0, 1.0, 1.0), (2.0, 3.0, 5.0)]:
        data = cp3_morphism_data(P=(0, p), Q=(0, q), R=(0, r))
        D = cp3_affine_jacobian(data, np.zeros(6))
        expected = np.zeros((6, 6))
        expected[0, 2] = -q
        expected[1, 3] = q
        expected[2, 5] = r
        expected[3, 4] = r
        expected[4, 0] = p
        expected[5, 1] = p
        assert np.max(np.abs(D - expected)) <= 1e-12
        assert abs(np.linalg.det(D)) > 1e-9
        # permutation pattern: one entry per row and column
        nz = np.abs(D) > 1e-12
        assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)

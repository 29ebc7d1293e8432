"""Acceptance criteria, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Every tolerance below is fixed here, not calibrated at run
time.
"""

import time

import numpy as np

from twistorkit.checkers import (
    harmonicity_residual,
    holomorphy_residual,
    hwc_residual,
    pullback_harmonic_oracle,
    real_isotropy_residual,
    real_isotropy_residuals,
)
from twistorkit.cli import report_document
from twistorkit.connections import (
    LieValuedForm,
    expm,
    flatness_residual,
    integrate_path,
    maurer_cartan_form,
    maurer_cartan_value,
    path_independence_defect,
)
from twistorkit.factory import (
    closed_form_r6,
    cp3_affine_jacobian,
    cp3_constraints_residual,
    cp3_example1_data,
    cp3_morphism_data,
    euclid_r6_data,
    evaluate_morphism,
    implicit_equation_residual,
)
from twistorkit.jets import SmoothMap, real_to_complex_point
from twistorkit.lifts import (
    j_vertical_residual,
    strictly_compatible_lift_r4,
    t10_stability_residual,
)
from twistorkit.structures import (
    canonical_structure,
    from_isotropic,
    is_positive,
    mj_basis,
    so_action,
    to_isotropic,
)
from twistorkit.suites import SuiteConfig, run_suite
from twistorkit.variations import affine_family, jacobi_operator_flat, tension_first_order


def _record(num, label, worst, tol, extra=""):
    ok = worst <= tol
    flag = "PASS" if ok else "FAIL"
    print(f"{flag} criterion {num}: {label}: max {worst:.3e} <= {tol:.1e} {extra}")
    assert ok, f"criterion {num} failed: {worst} > {tol}"


def _admissible(rng, count):
    pts = []
    while len(pts) < count:
        q = rng.uniform(-1, 1, 6)
        qc = real_to_complex_point(q)
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) > 0.2:
            pts.append(q)
    return pts


def test_criterion_1_closed_form_morphism():
    rng = np.random.default_rng(42)
    phi = closed_form_r6()
    pts = _admissible(rng, 100)
    t0 = time.time()
    worst_h = max(harmonicity_residual(phi, p) for p in pts)
    worst_w = max(hwc_residual(phi, p)[1] for p in pts)
    elapsed = time.time() - t0
    _record(1, "closed-form harmonicity", worst_h, 1e-9)
    _record(1, "closed-form horizontal conformality", worst_w, 1e-9,
            extra=f"(runtime {elapsed:.2f}s)")
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"


def test_criterion_2_pullback_oracle():
    rng = np.random.default_rng(43)
    phi = closed_form_r6()
    pts = _admissible(rng, 20)
    worst = max(pullback_harmonic_oracle(phi, [0.0] * d + [1.0], p)
                for p in pts for d in (1, 2, 3))
    _record(2, "pullback of monomials w^d, d <= 3", worst, 1e-8)


def test_criterion_3_factory_roundtrip():
    rng = np.random.default_rng(44)
    data = euclid_r6_data()
    worst_cf = worst_imp = 0.0
    produced = 0
    while produced < 50:
        zxi = rng.uniform(-0.8, 0.8, 6)
        q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
        qc = real_to_complex_point(q)
        if abs(1 + np.conj(qc[0]) - np.conj(qc[1])) <= 0.2:
            continue
        produced += 1
        seed = zxi + rng.uniform(-0.05, 0.05, 6)
        z = evaluate_morphism(data, q, seed_point=seed)[0]
        zcf = (qc[2] - qc[0] - qc[1]) / (1 + np.conj(qc[0]) - np.conj(qc[1]))
        worst_cf = max(worst_cf, abs(z - zcf))
        worst_imp = max(worst_imp, implicit_equation_residual(z, qc))
    _record(3, "factory reproduces the closed form", worst_cf, 1e-10)
    _record(3, "implicit fibre equation", worst_imp, 1e-12)


def test_criterion_4_cp3_data():
    rng = np.random.default_rng(45)
    worst = 0.0
    for data in (cp3_example1_data(), cp3_morphism_data()):
        for _ in range(25):
            pt = rng.integers(-16, 17, 6) / 16.0
            worst = max(worst, cp3_constraints_residual(data, pt))
    _record(4, "projective constraints exactly zero", worst, 0.0)
    D = cp3_affine_jacobian(cp3_morphism_data(), np.zeros(6))
    expected = np.zeros((6, 6))
    expected[0, 2], expected[1, 3] = -1.0, 1.0
    expected[2, 5], expected[3, 4] = 1.0, 1.0
    expected[4, 0], expected[5, 1] = 1.0, 1.0
    pat = float(np.max(np.abs(D - expected)))
    _record(4, "real Jacobian matches the +-(p,q,r) pattern", pat, 1e-12)
    det = abs(np.linalg.det(D))
    _record(4, "Jacobian determinant nonzero for (1,1,1)", 0.0 if det > 1e-9 else 1.0,
            0.0, extra=f"(|det| = {det:.3f})")


def test_criterion_5_twistor_algebra():
    rng = np.random.default_rng(46)

    def random_so(n):
        Q, R = np.linalg.qr(rng.normal(size=(n, n)))
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Q

    worst_rt = 0.0
    bad_pos = 0
    for i in range(200):
        k = int(rng.integers(1, 4))
        J = so_action(random_so(2 * k), canonical_structure(k))
        if not is_positive(J):
            bad_pos += 1
        if i < 100:
            J2 = from_isotropic(to_isotropic(J))
            worst_rt = max(worst_rt, float(np.max(np.abs(J2.matrix - J.matrix))))
    _record(5, "from_isotropic after to_isotropic is the identity", worst_rt, 1e-10)
    _record(5, "group action preserves positivity (200 samples)", float(bad_pos), 0.0)
    dims_ok = all(len(mj_basis(canonical_structure(k))) == k * (k - 1)
                  for k in (1, 2, 3))
    _record(5, "vertical space dimension k(k-1)", 0.0 if dims_ok else 1.0, 0.0)


def test_criterion_6_lifts():
    phi = SmoothMap.from_complex(1, 2, lambda z: [z, z * z])
    rng = np.random.default_rng(47)
    worst_holo = worst_vert = worst_stab = 0.0
    for _ in range(20):
        p = rng.uniform(-0.9, 0.9, 2)
        L = strictly_compatible_lift_r4(phi, p)
        worst_holo = max(worst_holo, holomorphy_residual(
            phi, canonical_structure(1), L.structure(p), p))
        worst_vert = max(worst_vert, j_vertical_residual(L, p, 2))
        worst_stab = max(worst_stab, t10_stability_residual(L, p, "z"))
    _record(6, "strict lift holomorphy", worst_holo, 1e-10)
    _record(6, "vertical condition a = 2 (harmonicity side)", worst_vert, 1e-9)
    _record(6, "(1,0)-space z-stability (isotropy side)", worst_stab, 1e-9)


def test_criterion_7_isotropy_reduction():
    rng = np.random.default_rng(48)
    tol = 1e-9
    disagreements = 0
    for i in range(100):
        if i % 2 == 0:
            co = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))

            def fn(z, co=co):
                return [co[k, 0] + co[k, 1] * z + co[k, 2] * z * z + co[k, 3] * z ** 3
                        for k in range(2)]

            phi = SmoothMap.from_complex(1, 2, fn)
        else:
            co = rng.normal(size=(4, 4, 4))

            def ev(x, y, co=co):
                out = []
                for comp in co:
                    acc = 0.0 * x
                    for a in range(4):
                        for b in range(4):
                            if a + b <= 3:
                                acc = acc + comp[a, b] * x ** a * y ** b
                    out.append(acc)
                return out

            phi = SmoothMap.from_real(2, 4, ev)
        z0 = rng.uniform(-0.9, 0.9, 2)
        full = real_isotropy_residual(phi, z0, 4)
        diag = real_isotropy_residuals(phi, z0, 4)[1]
        if (full <= tol) != (diag <= tol):
            disagreements += 1
    _record(7, "full against diagonal isotropy agreement (100 maps)",
            float(disagreements), 0.0)


def test_criterion_8_jacobi_relation():
    rng = np.random.default_rng(49)

    def random_poly():
        co = rng.normal(size=(2, 4, 4))

        def ev(x, y, co=co):
            out = []
            for comp in co:
                acc = 0.0 * x
                for i in range(4):
                    for j in range(4):
                        if i + j <= 3:
                            acc = acc + comp[i, j] * x ** i * y ** j
                out.append(acc)
            return out

        return SmoothMap.from_real(2, 2, ev)

    worst = 0.0
    for _ in range(50):
        phi0, v = random_poly(), random_poly()
        fam = affine_family(phi0, v)
        p = rng.uniform(-1, 1, 2)
        _, tau1 = tension_first_order(fam, p)
        worst = max(worst, float(np.max(np.abs(tau1 + jacobi_operator_flat(v, p)))))
    _record(8, "first-order tension + Jacobi operator = 0", worst, 1e-12)


def test_criterion_9_flat_connection():
    rng = np.random.default_rng(50)
    A = rng.normal(size=(4, 4))
    A = A - A.T
    B = rng.normal(size=(4, 4))
    B = B - B.T
    form = maurer_cartan_form(A, B)
    worst_flat = np.max(flatness_residual(form, rng.uniform(-1, 1, (20, 2))))
    _record(9, "Maurer-Cartan flatness", worst_flat, 1e-8)
    cform = LieValuedForm.constant([A, np.zeros((4, 4))])
    f = integrate_path(cform, np.array([[0.0, 0.0], [2.5, 0.0]]), steps=1000)
    _record(9, "constant form reproduces exp(LA) at 1000 steps",
            float(np.linalg.norm(f - expm(2.5 * A))), 1e-10)
    sq1 = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    sq2 = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
    _record(9, "flat path-independence defect",
            path_independence_defect(form, sq1, sq2, 2000), 1e-5)
    path = np.array([[0.1, -0.2], [0.9, 0.7]])
    ref = np.linalg.inv(maurer_cartan_value(A, B, path[0])) @ maurer_cartan_value(
        A, B, path[1])
    errs = [np.linalg.norm(integrate_path(form, path, steps=s) - ref)
            for s in (100, 200, 400)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    _record(9, "observed convergence order 2.0 +- 0.2",
            np.max([abs(o - 2.0) for o in orders]), 0.2,
            extra=f"(orders {[round(float(o), 3) for o in orders]})")


def test_criterion_10_determinism():
    worst = 0.0
    for suite in ("sigma-plus-algebra", "jets-core"):
        config = SuiteConfig(suite=suite, points=10, seed=99)
        d1 = report_document(config, run_suite(config), "json").encode()
        d2 = report_document(config, run_suite(config), "json").encode()
        t1 = report_document(config, run_suite(config), "text").encode()
        t2 = report_document(config, run_suite(config), "text").encode()
        if d1 != d2 or t1 != t2:
            worst = 1.0
    _record(10, "byte-identical reports under fixed config and seed", worst, 0.0)

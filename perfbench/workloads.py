"""The benchmark's workloads and the correctness gate applied to each request.

A request is one verdict: a ``twistorkit run`` invocation through
``twistorkit.cli.main`` in-process, or, for ``morphism``, the certification
of ten points of the constructed harmonic morphism through library calls.
A unit is what one latency sample times: one request, or for ``breadth``
one round over its six suites.  Request ``i`` of a run uses seed
``seed + i``; unit ``k`` holds requests ``k * len(suites)`` onwards.

Every layer is called through its module attribute at call time, so the
tracer's wrappers take effect when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from twistorkit import checkers, cli, factory

POINTS = 10

CLI_WORKLOADS = {
    "lifts": ("lifts-r4",),
    "connection": ("flat-connection",),
    "breadth": ("euclid-hm", "jets-core", "isotropy-reduction",
                "jacobi-first-order", "sigma-plus-algebra", "cp3-data"),
}
WORKLOADS = ("lifts", "morphism", "connection", "breadth")

# Check names of each suite at the commit that defined the benchmark; a
# request whose report lists other checks fails the gate.
EXPECTED_CHECKS = {
    "lifts-r4": ["lift-holomorphy", "lift-t10-stability", "lift-vertical-conditions",
                 "lift-vertical-part", "umbilic-branch"],
    "flat-connection": ["constant-form-exp", "convergence-order", "curvature-02",
                        "maurer-cartan-flatness", "path-independence",
                        "skew-orthogonality"],
    "euclid-hm": ["chart-holomorphy", "closed-form-harmonicity", "closed-form-hwc",
                  "factory-roundtrip", "fibre-invariance", "horizontality",
                  "implicit-equation", "pullback-oracle"],
    "jets-core": ["dz-vs-finite-differences", "holomorphic-pluriconformal",
                  "pairing-laws", "product-convolution"],
    "isotropy-reduction": ["full-vs-diagonal"],
    "jacobi-first-order": ["holomorphic-family", "jacobi-identity", "tension-linearity"],
    "sigma-plus-algebra": ["isotropic-roundtrip", "jv-involution", "mj-dimension",
                           "mu-chart-roundtrip", "so-action-group-law",
                           "so-action-positivity"],
    "cp3-data": ["cp3-example1-constraints", "cp3-jacobian-pattern",
                 "cp3-linear-system", "cp3-local-diffeo", "cp3-morphism-constraints",
                 "cp3-point-formulas"],
}

MORPHISM_RESIDUAL_TOL = 1e-6
MORPHISM_VALUE_TOL = 1e-10


def requests_per_unit(workload):
    return len(CLI_WORKLOADS.get(workload, (None,)))


def cli_problem(suite, code, text):
    """Why a CLI report fails the gate, or None when it passes."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON ({exc})"
    if doc.get("overall_pass") is not True:
        return "overall_pass is not true"
    checks = doc.get("checks", [])
    bad = [c["name"] for c in checks if not math.isfinite(c["max_residual"])]
    if bad:
        return f"non-finite max_residual in {bad}"
    names = [c["name"] for c in checks]
    if names != EXPECTED_CHECKS[suite]:
        return f"check names {names} differ from {EXPECTED_CHECKS[suite]}"
    return None


def cli_request(suite, seed):
    """(report bytes, problem or None) of one ``twistorkit run``."""
    argv = ["run", "--suite", suite, "--points", str(POINTS), "--format", "json",
            "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    return text.encode(), cli_problem(suite, code, text)


def morphism_points(rng, data):
    """Admissible points as factory-roundtrip samples them: (q, Newton start)."""
    while True:
        zxi = rng.uniform(-0.8, 0.8, 6)
        q = np.array([j.value.real for j in data.h.jets(zxi, 0)])
        q1, q2 = complex(q[0], q[1]), complex(q[2], q[3])
        if abs(1 + q1.conjugate() - q2.conjugate()) > 0.2:
            yield q, zxi + rng.uniform(-0.05, 0.05, 6)


def morphism_request(seed):
    """Certify POINTS points of the produced R^6 -> C harmonic morphism.

    Returns (residual-vector bytes, problem or None).  Each point must have
    harmonicity and horizontal-conformality residuals within 1e-6 and a
    value within 1e-10 of (q3 - q1 - q2) / (1 + conj q1 - conj q2).
    """
    rng = np.random.default_rng(seed)
    data = factory.euclid_r6_data()
    points = morphism_points(rng, data)
    rows, problems = [], []
    for n in range(POINTS):
        q, start = next(points)
        phi = factory.morphism_as_map(data, seed_fn=lambda _point, s=start: s)
        harm, hwc = checkers.harmonic_morphism_residual(phi, q)
        w = phi(q)
        value = complex(w[0], w[1])
        q1, q2, q3 = (complex(q[2 * i], q[2 * i + 1]) for i in range(3))
        closed = (q3 - q1 - q2) / (1 + q1.conjugate() - q2.conjugate())
        err = abs(value - closed)
        rows.append(f"{harm!r} {hwc!r} {value.real!r} {value.imag!r}")
        if not (harm <= MORPHISM_RESIDUAL_TOL and hwc <= MORPHISM_RESIDUAL_TOL):
            problems.append(f"point {n}: residuals ({harm:.3g}, {hwc:.3g}) above "
                            f"{MORPHISM_RESIDUAL_TOL:g}")
        if not err <= MORPHISM_VALUE_TOL:
            problems.append(f"point {n}: value off the closed form by {err:.3g}")
    return "\n".join(rows).encode(), "; ".join(problems) or None


def run_unit(workload, seed, unit):
    """Run one unit; returns [(request name, digest bytes, problem or None)].

    An exception fails only its own request, so the run goes on and names it.
    """
    suites = CLI_WORKLOADS.get(workload, (None,))
    results = []
    for j, suite in enumerate(suites):
        request_seed = seed + unit * len(suites) + j
        name = f"{suite or workload}@seed={request_seed}"
        try:
            if suite:
                blob, problem = cli_request(suite, request_seed)
            else:
                blob, problem = morphism_request(request_seed)
        except Exception as exc:  # noqa: BLE001 - a raising request is a failed request
            blob, problem = b"", f"raised {type(exc).__name__}: {exc}"
        results.append((name, blob, problem))
    return results

"""Fixed-shape microbenchmarks of single layer operations.

Each entry names the workload whose ``verdict_s.p50`` it should predict.
Shapes follow the layer list of the roadmap: jets with (nvars, order) of
(2, 4), (2, 6), (6, 4) and (7, 3), a 4 x 4 matrix exponential and one
product-integration step.  The workloads at default configuration multiply
jets at (2, <= 3) in lifts, (2, 4) in breadth's isotropy-reduction and
(6, <= 2) in morphism; no workload reaches (2, 6), (6, 4) or (7, 3), so those
three predict no workload directly and show how the jet cost scales.
Partial derivatives of 6-variable jets come from euclid-hm's Wirtinger
checks in breadth; morphism takes none.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from twistorkit import connections, factory, jets, lifts

BATCH_S = 0.04
REPEATS = 5

PREDICTS = {
    "micro.jets.mul.n2o4_us": "breadth",
    "micro.jets.mul.n2o6_us": "none",
    "micro.jets.mul.n6o4_us": "none",
    "micro.jets.mul.n7o3_us": "none",
    "micro.jets.partial.n6o4_us": "breadth",
    "micro.jets.invert_jet_map.n6o3_us": "morphism",
    "micro.factory.invert_h_us": "morphism",
    "micro.lifts.lift_us": "lifts",
    "micro.connections.expm.k4_us": "connection",
    "micro.connections.integrate_step_us": "connection",
}


def per_call_us(fn, per=1):
    """Median over REPEATS batches of the time per call in microseconds;
    the batch size is calibrated so one batch takes about BATCH_S."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= BATCH_S / 4:
            break
        n *= 4
    n = max(1, round(n * BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times) * 1e6 / per


def _random_jets(rng, nvars, order, count):
    """Jets with dense random coefficients at one shared base point."""
    space = jets.JetSpace(rng.uniform(-1, 1, nvars), order)
    out = []
    for _ in range(count):
        jet = space.const(0.0)
        jet.coef = rng.normal(size=jet.coef.size) + 1j * rng.normal(size=jet.coef.size)
        out.append(jet)
    return out


def _near_identity_map(rng, nvars, order):
    xs = jets.JetSpace(rng.uniform(-0.5, 0.5, nvars), order).vars()
    return [xs[i] + 0.1 * rng.normal() * xs[(i + 1) % nvars] * xs[(i + 2) % nvars]
            for i in range(nvars)]


def run_all(seed=0):
    """Every microbenchmark once, in microseconds per operation."""
    rng = np.random.default_rng(seed)
    out = {}
    for n, d in ((2, 4), (2, 6), (6, 4), (7, 3)):
        a, b = _random_jets(rng, n, d, 2)
        out[f"micro.jets.mul.n{n}o{d}_us"] = per_call_us(lambda: a * b)
    (f,) = _random_jets(rng, 6, 4, 1)
    out["micro.jets.partial.n6o4_us"] = per_call_us(lambda: f.partial(0))
    F = _near_identity_map(rng, 6, 3)
    out["micro.jets.invert_jet_map.n6o3_us"] = per_call_us(lambda: jets.invert_jet_map(F))

    data = factory.euclid_r6_data()
    zxi = np.array([0.3, -0.2, 0.1, 0.4, -0.3, 0.2])
    q = data.h(zxi)
    start = zxi + 0.03
    out["micro.factory.invert_h_us"] = per_call_us(lambda: factory.invert_h(data, q, start))

    phi = jets.SmoothMap.from_complex(1, 2, lambda z: [z, z * z])
    p = np.array([0.3, -0.2])
    out["micro.lifts.lift_us"] = per_call_us(
        lambda: lifts.strictly_compatible_lift_r4(phi, p))

    A = rng.normal(size=(4, 4))
    A = A - A.T
    B = rng.normal(size=(4, 4))
    B = B - B.T
    out["micro.connections.expm.k4_us"] = per_call_us(lambda: connections.expm(A))
    form = connections.maurer_cartan_form(A, B)
    path = np.array([[0.0, 0.0], [1.0, 0.8]])
    steps = 50
    out["micro.connections.integrate_step_us"] = per_call_us(
        lambda: connections.integrate_path(form, path, steps=steps), per=steps)
    return out

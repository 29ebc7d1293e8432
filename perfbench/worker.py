"""Measure one workload in a fresh interpreter and print one JSON line.

Run by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS threads pinned.
Roles:

- ``probe``: import twistorkit and run the cold first unit; report set-up.
- ``measure``: the same, then a closed loop of units, one at a time, until
  ``--seconds`` have passed; report per-unit timings, failures, a digest
  and the peak resident set.  No tracer is installed.
- ``trace``: after the cold unit and the microbenchmarks, repeat passes over
  units 1..TRACE_UNITS, each unit once untraced and once traced, and report
  per-layer medians per unit.  Each seed is run the same number of times,
  so the medians of the call counts repeat exactly.

``probe`` and ``measure`` time in process CPU seconds and sample the
machine's speed meanwhile (``SpeedProbe``), so the caller can scale the
times to a fixed speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time

DIGEST_UNITS = 3  # units 0..2 enter the digest, so it compares across runs
TRACE_UNITS = 3
SAMPLE_PERIOD_S = 0.025


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def times(self, other):
        return _Point(self.x * other.x - self.y * other.y, self.x * other.y + self.y * other.x)


def reference_kernel():
    """Fixed interpreted work that uses no twistorkit code: calls, attribute
    access, small objects and a dict, about 0.5 ms."""
    acc, turn, counts = _Point(1.0, 0.0), _Point(0.6, 0.8), {}
    for i in range(600):
        acc = acc.times(turn)
        k = i * 7919 % 101
        counts[k] = counts.get(k, 0) + 1
    return acc


class SpeedProbe:
    """Times ``reference_kernel`` every SAMPLE_PERIOD_S of wall time.

    The machine is shared.  Its speed switches between states tens of
    percent apart every few seconds, and the host takes the processor away
    for stretches of up to tenths of a second.  Intervals are therefore
    measured in process CPU time, which leaves out the stretches the host
    takes, and the speed during an interval is the mean CPU time of the
    kernel samples taken in it; the program under test cannot change how
    long the kernel takes.  Samples run from a SIGALRM handler between
    bytecodes of the workload, with the garbage collector paused so the
    workload's collections stay with the workload, and their time is
    subtracted from the interval.
    """

    def __init__(self):
        self.samples = []  # kernel CPU seconds
        self.spent_wall = 0.0  # seconds taken by sampling
        self.spent_cpu = 0.0

    def _sample(self, _signum, _frame):
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            reference_kernel()
            cpu = time.process_time() - c0
            self.samples.append(cpu)
            self.spent_cpu += cpu
            self.spent_wall += time.perf_counter() - w0
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, fn, *args):
        """fn's result and {"wall", "cpu", "ref"}: wall and CPU seconds
        without the samples, and the mean kernel CPU seconds."""
        first, spent_wall, spent_cpu = len(self.samples), self.spent_wall, self.spent_cpu
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        wall = time.perf_counter() - w0 - (self.spent_wall - spent_wall)
        cpu = time.process_time() - c0 - (self.spent_cpu - spent_cpu)
        if len(self.samples) == first:
            self._sample(None, None)
            first -= 1
        return result, {"wall": wall, "cpu": cpu, "ref": statistics.mean(self.samples[first:])}


def cold_start(workload, seed, probe):
    """Import the package and run unit 0 under ``probe``.

    Returns (results, set-up timing as ``SpeedProbe.interval`` gives it).
    """

    def setup():
        import twistorkit  # noqa: F401 - the import is part of set-up
        import workloads

        return workloads.run_unit(workload, seed, 0)

    return probe.interval(setup)


def failures(results):
    return [[name, problem] for name, _blob, problem in results if problem]


def measure(workload, seed, seconds):
    import workloads

    with SpeedProbe() as probe:
        results, setup = cold_start(workload, seed, probe)
        digest = hashlib.sha256()
        for _name, blob, _problem in results:
            digest.update(blob)
        units = []
        start = time.perf_counter()
        unit = 1
        while True:
            unit_results, timing = probe.interval(workloads.run_unit, workload, seed, unit)
            units.append(timing)
            results += unit_results
            if unit < DIGEST_UNITS:
                for _name, blob, _problem in unit_results:
                    digest.update(blob)
            unit += 1
            if time.perf_counter() - start >= seconds and unit >= DIGEST_UNITS:
                break
    return {
        "setup": setup,
        "units": units,
        "timed_requests": len(results) - workloads.requests_per_unit(workload),
        "attempted": len(results),
        "failures": failures(results),
        "digest": digest.hexdigest(),
        "digest_units": DIGEST_UNITS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload, seed, seconds):
    import micro
    import tracer as tr
    import workloads

    with SpeedProbe() as probe:
        results, _setup = cold_start(workload, seed, probe)
    micro_us = micro.run_all(seed)
    tracer = tr.Tracer()
    untraced_s, traced_s, per_unit = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain = {}
        for unit in range(1, TRACE_UNITS + 1):
            t0 = time.perf_counter()
            unit_results = workloads.run_unit(workload, seed, unit)
            untraced_s.append(time.perf_counter() - t0)
            results += unit_results
            plain.update((name, blob) for name, blob, _problem in unit_results)
        tracer.install()
        try:
            for unit in range(1, TRACE_UNITS + 1):
                tracer.reset()
                t0 = time.perf_counter()
                unit_results = workloads.run_unit(workload, seed, unit)
                wall = time.perf_counter() - t0
                traced_s.append(wall)
                per_unit.append(tr.layer_metrics(tracer.snapshot(), wall))
                results += [(name, blob, problem or (
                    "report changed under tracing" if blob != plain[name] else None))
                    for name, blob, problem in unit_results]
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    layer = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    layer["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    layer.update(micro_us)
    return {
        "per_layer": layer,
        "traced_units": len(traced_s),
        "attempted": len(results),
        "failures": failures(results),
        "micro_predicts": micro.PREDICTS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.role == "probe":
        with SpeedProbe() as probe:
            results, setup = cold_start(args.workload, args.seed, probe)
        out = {"setup": setup, "attempted": len(results), "failures": failures(results)}
    elif args.role == "measure":
        out = measure(args.workload, args.seed, args.seconds)
    else:
        out = trace(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

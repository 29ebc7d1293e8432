"""twistorkit benchmark: time to a verified verdict, per workload.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload lifts --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and the microbenchmarks.  Every workload
run happens in fresh interpreters started one at a time, with one client and
BLAS pinned to one thread.  Informational lines (sample counts, fail ratio,
report digest, environment) come first; the last line is the JSON result.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("lifts", "morphism", "connection", "breadth")
# Times are process CPU seconds scaled to the machine speed at which
# worker.reference_kernel() takes this long, its typical time on the 2-core
# machine of the baseline: cpu * REFERENCE_NOMINAL_S / (mean kernel time
# while cpu was measured).
REFERENCE_NOMINAL_S = 0.0005
SETUP_PROBES = 2  # extra cold starts; with the measuring run, set-up has 3 samples
BUDGET_S = 170.0
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def find_source(root):
    """The package directory under ``root``, or BenchError when it is absent."""
    source = Path(root) / "src" / "twistorkit"
    if not (source / "__init__.py").is_file():
        raise BenchError(f"no twistorkit source tree at {source}")
    return source


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "TWISTOR_SUITE_DIR"}
    env.update(BLAS_PIN)
    path = [str(ROOT / "src"), str(HERE)]
    env["PYTHONPATH"] = os.pathsep.join(path + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(role, args, deadline):
    """Run worker.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget of {BUDGET_S:.0f} s used up before the {role} run")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} run exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} run exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} run printed no result")
    return json.loads(lines[-1])


def environment():
    import importlib.metadata as md

    try:
        numpy_version = md.version("numpy")
    except md.PackageNotFoundError:
        numpy_version = "absent"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy_version} blas_threads=1 clients=1 loop=closed")


def scaled(timing):
    return timing["cpu"] * REFERENCE_NOMINAL_S / timing["ref"]


def end_to_end(args, deadline):
    runs = [run_worker("probe", args, deadline) for _ in range(SETUP_PROBES)]
    main = run_worker("measure", args, deadline)
    runs.append(main)
    setup_s = [scaled(r["setup"]) for r in runs]
    unit_s = [scaled(u) for u in main["units"]]
    requests = main["timed_requests"]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "verdict_s.p50": (statistics.median(unit_s), "s", len(unit_s)),
        "throughput_rps": (requests / sum(unit_s), "1/s", requests),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", 1),
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = [f for r in runs for f in r["failures"]]
    wall = [u["wall"] for u in main["units"]]
    unit = "round of 6 requests" if args.workload == "breadth" else "request"
    info = [f"verdict_s.p50 unit: one {unit}",
            f"times: process CPU seconds scaled to a reference kernel time of "
            f"{REFERENCE_NOMINAL_S * 1e3:g} ms; measured median "
            f"{statistics.median(u['ref'] for u in main['units']) * 1e3:.4g} ms per unit",
            f"unscaled wall time: setup_s {statistics.median(r['setup']['wall'] for r in runs):.6g} s, "
            f"verdict_s.p50 {statistics.median(wall):.6g} s, "
            f"throughput_rps {requests / sum(wall):.6g} 1/s",
            f"digest sha256={main['digest']} over units 0..{main['digest_units'] - 1} "
            f"(report documents and morphism residual vectors)"]
    return metrics, attempted, failed, info


def per_layer(args, deadline):
    out = run_worker("trace", args, deadline)
    n = out["traced_units"]
    metrics = {}
    for name, value in out["per_layer"].items():
        if name.startswith("micro."):
            unit, count = "us", 1
        elif name.endswith("_s"):
            unit, count = "s", n
        elif name.endswith(("share", "ratio")):
            unit, count = "ratio", n
        else:
            unit, count = "count", n
        metrics[name] = (value, unit, count)
    info = [f"{name} predicts verdict_s.p50 of: {target}"
            for name, target in out["micro_predicts"].items()]
    return metrics, out["attempted"], out["failures"], info


def main(argv=None):
    parser = argparse.ArgumentParser(description="twistorkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + BUDGET_S
    try:
        compileall.compile_dir(find_source(ROOT), quiet=1)
        collect = per_layer if args.trace else end_to_end
        metrics, attempted, failed, info = collect(args, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {environment()}")
    for line in info:
        print(f"# {line}")
    for name, (value, unit, count) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (samples={count})")
    print(f"# fail_ratio = {len(failed) / attempted:.6g} ({len(failed)}/{attempted} requests)")
    for name, problem in failed:
        print(f"# FAILED {name}: {problem}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _count) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark, summarised in one file.

Runs ``perfbench/run.py --trace 0`` of each checkout, once per seed, for
each workload given, with the side that runs first alternating from seed to
seed (the parent first at each workload's first seed)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload morphism=301-310 --workload breadth=301-303 \\
        --out BENCH_<label>.json

Each run lasts the ``run_seconds`` of the parent's ``BENCHMARK.json``.  For
every end-to-end metric that file declares, the output gives, per workload,
the per-pair values, each side's median and quartiles, the parent's
interquartile range and the pairs each side wins by the metric's ``better``
direction (a tie counts for neither).  It records the report digest line of
both sides at each seed and whether they match, and keeps every run's JSON
result.  The exit code is 1 if any run was not ``correct`` (or printed no
result), else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_workload(text):
    """(name, seeds) of ``NAME=A-B``: the seeds of the inclusive range A-B."""
    m = re.fullmatch(r"([\w-]+)=(\d+)-(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"--workload needs NAME=A-B, got {text!r}")
    a, b = int(m[2]), int(m[3])
    if b < a:
        raise argparse.ArgumentTypeError(f"--workload {text}: empty seed range")
    return m[1], list(range(a, b + 1))


def quartiles(values):
    """[Q1, median, Q3] by ``statistics.quantiles`` (exclusive method); one
    value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(pairs, metrics):
    """Per-metric summary of ``pairs``, a list of {"parent": values,
    "change": values} dicts mapping metric name to value, one per seed.
    ``metrics`` maps each metric name to "lower" or "higher", the better
    direction."""
    out = {}
    for name, better in metrics.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if better == "lower" else -1
        wins = dict.fromkeys(SIDES, 0)
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["change" if sign * (b - a) < 0 else "parent"] += 1
        q = {side: quartiles(values[side]) for side in SIDES}
        out[name] = {
            "better": better,
            "parent_values": values["parent"],
            "change_values": values["change"],
            "parent_median": q["parent"][1],
            "parent_quartiles": q["parent"],
            "parent_iqr": q["parent"][2] - q["parent"][0],
            "change_median": q["change"][1],
            "change_quartiles": q["change"],
            "change_wins": wins["change"],
            "parent_wins": wins["parent"],
            "pairs": len(pairs),
        }
    return out


def run_side(root, workload, seed, seconds):
    """(result, digest, environment) of one ``perfbench/run.py`` run in the
    checkout ``root``; result is None when it printed no JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split("sha256=")[1].split()[0] for ln in lines
                   if ln.startswith("# digest sha256=")), None)
    env = next((ln[2:] for ln in lines if ln.startswith("# workload=")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result, digest, env


def run_workload(roots, workload, seeds, seconds, metrics):
    """The output document's entry for one workload: its pairs over
    ``seeds``, the parent first at the first seed."""
    runs, pairs, digests, environment = [], [], [], None
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {}
        for side in order:
            result, digest, env = run_side(roots[side], workload, seed, seconds)
            environment = environment or env
            got[side] = (result, digest)
            runs.append({"side": side, "seed": seed, "result": result, "digest": digest})
            print(f"{workload} seed {seed} {side}: "
                  + (json.dumps(result["metrics"]) if result else "no result"), flush=True)
        digests.append({"seed": seed, "parent": got["parent"][1], "change": got["change"][1],
                        "match": got["parent"][1] is not None
                        and got["parent"][1] == got["change"][1]})
        if all(got[side][0] for side in SIDES):
            pairs.append({side: {name: got[side][0]["metrics"][name]["value"]
                                 for name in metrics} for side in SIDES})
    return {
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "environment": environment,
        "all_correct": all(r["result"] is not None and r["result"]["correct"] for r in runs),
        "digests_match": all(d["match"] for d in digests),
        "summary": summarize(pairs, metrics),
        "digests": digests,
        "runs": runs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", type=parse_workload, action="append", required=True,
                        metavar="NAME=A-B")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = {name: run_workload(roots, name, seeds, seconds, metrics)
                 for name, seeds in args.workload}
    all_correct = all(w["all_correct"] for w in workloads.values())
    doc = {
        "run_seconds": seconds,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0 in each checkout, alternating which side runs first "
                   "(parent first at each workload's first seed)",
        "all_correct": all_correct,
        "digests_match": all(w["digests_match"] for w in workloads.values()),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, w in workloads.items():
        for name, s in w["summary"].items():
            print(f"{workload} {name}: parent {s['parent_median']:.6g} "
                  f"change {s['change_median']:.6g} (parent IQR {s['parent_iqr']:.3g}), "
                  f"change wins {s['change_wins']}/{s['pairs']}")
    print(f"all correct: {all_correct}; digests match: {doc['digests_match']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The summary of tools/bench_pairs.py on fixed numbers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [0.040, 0.038, 0.041, 0.039, 0.030]
    change = [0.030, 0.031, 0.041, 0.029, 0.035]
    rps = [(10.0, 12.0), (11.0, 11.0), (9.0, 8.0), (10.0, 13.0), (12.0, 14.0)]
    pairs = [{"parent": {"t": p, "rps": r[0]}, "change": {"t": c, "rps": r[1]}}
             for p, c, r in zip(parent, change, rps)]
    s = bench_pairs.summarize(pairs, {"t": "lower", "rps": "higher"})
    t = s["t"]
    assert t["parent_values"] == parent and t["change_values"] == change
    assert (t["change_wins"], t["parent_wins"], t["pairs"]) == (3, 1, 5)
    assert t["parent_median"] == 0.039 and t["change_median"] == 0.031
    # statistics.quantiles, exclusive method: Q1 and Q3 of 5 values
    assert t["parent_quartiles"] == pytest.approx([0.034, 0.039, 0.0405])
    assert t["change_quartiles"] == pytest.approx([0.0295, 0.031, 0.038])
    assert t["parent_iqr"] == pytest.approx(0.0065)
    r = s["rps"]
    assert (r["change_wins"], r["parent_wins"]) == (3, 1)
    assert r["better"] == "higher" and r["change_median"] == 12.0


def test_summary_of_one_pair_and_workload_seed_ranges():
    s = bench_pairs.summarize([{"parent": {"t": 2.0}, "change": {"t": 1.0}}], {"t": "lower"})
    assert s["t"]["parent_quartiles"] == [2.0, 2.0, 2.0] and s["t"]["parent_iqr"] == 0.0
    assert bench_pairs.parse_workload("morphism=301-303") == ("morphism", [301, 302, 303])
    assert bench_pairs.parse_workload("lifts=7-7") == ("lifts", [7])
    for bad in ("morphism=3-1", "morphism=a-b", "morphism=1-", "morphism=7", "301-303", "=1-2"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_workload(bad)

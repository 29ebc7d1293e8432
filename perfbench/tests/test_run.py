import json
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_second_seed_gives_the_same_metric_set_without_failures(trace, key):
    names = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for seed in ("1", "2"):
        code, result = bench("--workload", "morphism", "--seed", seed,
                             "--seconds", "1", "--trace", trace)
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_a_checkout_without_the_package_is_refused():
    with pytest.raises(run.BenchError):
        run.find_source(run.HERE / "no-such-checkout")

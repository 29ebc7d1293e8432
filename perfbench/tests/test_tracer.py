import math
import time

import pytest

import tracer as tr
import worker
import workloads


@pytest.fixture
def tracer():
    t = tr.Tracer()
    yield t
    t.uninstall()


def traced_unit(tracer, workload, seed, unit):
    tracer.install()
    try:
        tracer.reset()
        t0 = time.perf_counter()
        results = workloads.run_unit(workload, seed, unit)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert all(problem is None for _name, _blob, problem in results)
    return tracer.snapshot(), wall


def test_wrappers_rebind_names_imported_into_other_modules(tracer):
    import twistorkit
    from twistorkit import checkers, cli, factory, jets, lifts, suites

    original_dz = jets.dz
    tracer.install()
    for module in (jets, factory, lifts, checkers, twistorkit):
        assert getattr(module.dz, tr.WRAPPED_MARK) == "jets.dz"
    assert getattr(suites.harmonicity_residual, tr.WRAPPED_MARK) == \
        "checkers.harmonicity_residual"
    assert getattr(cli.run_suite, tr.WRAPPED_MARK) == "suites.run_suite"
    assert getattr(jets.Jet.__rmul__, tr.WRAPPED_MARK) == tr.MUL
    assert "structures.HermitianStructure.__init__" in tr.wrapped_names()
    tracer.uninstall()
    for module in (jets, factory, lifts, checkers, twistorkit):
        assert module.dz is original_dz
    assert tr.wrapped_names() == set()


@pytest.mark.parametrize("workload", ["morphism", "lifts"])
def test_counts_repeat_exactly_for_the_same_seed(tracer, workload):
    runs = [tr.layer_metrics(*traced_unit(tracer, workload, 3, 1)) for _ in range(2)]
    counts = [{k: v for k, v in m.items()
               if k.endswith((".calls", ".macs", ".steps", "_per_step", "_per_solve"))}
              for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["jets.mul.macs"] > 0


def test_self_times_add_up_to_the_attributed_wall_time(tracer):
    snap, wall = traced_unit(tracer, "morphism", 4, 1)
    assert all(s >= 0 for s in snap["self_s"].values())
    metrics = tr.layer_metrics(snap, wall)
    total = sum(metrics[f"{layer}.self_s"] for layer in tr.LAYERS)
    attributed = wall * (1 - metrics["trace.unattributed_share"])
    assert math.isclose(total, attributed, rel_tol=1e-9)
    assert 0 <= metrics["trace.unattributed_share"] < 0.2


def test_untraced_run_has_no_wrappers(monkeypatch):
    run_unit = workloads.run_unit

    def checked(*args):
        assert tr.wrapped_names() == set()
        return run_unit(*args)

    monkeypatch.setattr(workloads, "run_unit", checked)
    out = worker.measure("morphism", 1, 0.0)
    assert out["failures"] == []
    assert len(out["units"]) == worker.DIGEST_UNITS - 1

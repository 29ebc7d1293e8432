import json

import pytest

import workloads


def report(**changes):
    doc = {
        "overall_pass": True,
        "checks": [{"name": n, "max_residual": 0.0}
                   for n in workloads.EXPECTED_CHECKS["isotropy-reduction"]],
    }
    doc.update(changes)
    return json.dumps(doc)


def test_a_passing_report_passes():
    assert workloads.cli_problem("isotropy-reduction", 0, report()) is None


@pytest.mark.parametrize("code, text, reason", [
    (1, report(), "exit code"),
    (0, "not json", "not JSON"),
    (0, report(overall_pass=False), "overall_pass"),
    (0, report(checks=[{"name": "full-vs-diagonal", "max_residual": float("nan")}]),
     "non-finite"),
    (0, report(checks=[{"name": "other", "max_residual": 0.0}]), "check names"),
])
def test_the_gate_names_why_a_report_fails(code, text, reason):
    assert reason in workloads.cli_problem("isotropy-reduction", code, text)


def test_a_raising_request_fails_only_itself(monkeypatch):
    def boom(suite, seed):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads, "cli_request", boom)
    results = workloads.run_unit("breadth", 0, 1)
    assert [name for name, _blob, _problem in results][0] == "euclid-hm@seed=6"
    assert all(problem == "raised RuntimeError: broken" for *_rest, problem in results)

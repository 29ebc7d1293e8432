"""Command-line runner: determinism, exit codes, custom suites."""

import json

import pytest

from twistorkit.cli import main, report_document
from twistorkit.suites import SuiteConfig, list_suites, run_suite


def test_list_suites_contents(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "euclid-hm" in out and "cp3-data" in out and "sigma-plus-algebra" in out
    names = [n for n, _ in list_suites()]
    assert names == sorted(names) and len(names) >= 8


def test_reports_are_byte_identical():
    config = SuiteConfig(suite="sigma-plus-algebra", points=10, seed=123)
    doc1 = report_document(config, run_suite(config), "text")
    doc2 = report_document(config, run_suite(config), "text")
    assert doc1 == doc2
    j1 = report_document(config, run_suite(config), "json")
    j2 = report_document(config, run_suite(config), "json")
    assert j1 == j2
    parsed = json.loads(j1)
    assert parsed["overall_pass"] is True
    assert {"name", "points", "max_residual", "tolerance", "pass", "aux"} <= set(
        parsed["checks"][0])


def test_seed_changes_streams():
    c1 = SuiteConfig(suite="jets-core", points=5, seed=1)
    c2 = SuiteConfig(suite="jets-core", points=5, seed=2)
    r1 = {r.name: r.max_residual for r in run_suite(c1)}
    r2 = {r.name: r.max_residual for r in run_suite(c2)}
    assert r1 != r2  # different seeds draw different points


def test_run_exit_codes(capsys):
    assert main(["run", "--suite", "jets-core", "--points", "5"]) == 0
    capsys.readouterr()
    assert main(["run", "--suite", "does-not-exist"]) == 2
    assert "unknown suite 'does-not-exist'" in capsys.readouterr().err
    # failing tolerance forces exit 1
    assert main(["run", "--suite", "jets-core", "--points", "5",
                 "--tol", "1e-30"]) == 1
    capsys.readouterr()


def test_tol_override_applies(capsys):
    assert main(["run", "--suite", "sigma-plus-algebra", "--points", "5",
                 "--tol", "0.5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["tolerance"] == 0.5 for c in doc["checks"])


def test_param_passthrough(capsys):
    code = main(["run", "--suite", "euclid-hm", "--points", "5",
                 "--param", "f=0,1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["params"] == {"f": "0,1"}


def test_custom_suite_dir(tmp_path, monkeypatch, capsys):
    (tmp_path / "mini.suite").write_text(
        "name: mini-demo\n"
        "description: two borrowed checks\n"
        "check: jets-core:pairing-laws points=5\n"
        "check: sigma-plus-algebra:mj-dimension\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["list"]) == 0
    assert "mini-demo" in capsys.readouterr().out
    assert main(["run", "--suite", "mini-demo", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in doc["checks"]} == {"pairing-laws", "mj-dimension"}
    assert doc["overall_pass"] is True


def test_internal_error_exit_code(monkeypatch, capsys):
    import twistorkit.suites as su

    def boom(config):
        raise RuntimeError("synthetic evaluation failure")

    monkeypatch.setitem(su.SUITES, "broken-suite", ("always raises", [boom]))
    assert main(["run", "--suite", "broken-suite"]) == 3
    err = capsys.readouterr().err
    assert "internal evaluation error" in err and "synthetic" in err


def test_unknown_check_in_custom_suite(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.suite").write_text(
        "name: broken\ncheck: nowhere:nothing\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["list"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_points_below_one_is_a_usage_error(capsys):
    for n in ("0", "-3"):
        assert main(["run", "--suite", "jets-core", "--points", n]) == 2
        assert "--points" in capsys.readouterr().err


def test_keyerror_inside_a_check_is_internal(monkeypatch, capsys):
    import twistorkit.suites as su

    def lookup_bug(config):
        return {}["missing"]

    monkeypatch.setitem(su.SUITES, "jets-core", ("raises KeyError", [lookup_bug]))
    assert main(["run", "--suite", "jets-core"]) == 3
    err = capsys.readouterr().err
    assert "internal evaluation error" in err and "unknown suite" not in err



@pytest.mark.parametrize("line, fragment", [
    ("check:", "unknown check ''"),                                        # empty
    ("check: jets-core:pairing-laws tol=abc", "'abc'"),                    # not a number
    ("check: jets-core:pairing-laws tolerance=1e-30", "'tolerance'"),      # unknown key
    ("check: jets-core:pairing-laws points=0", "points= must be at least 1"),
    ("chek: jets-core:pairing-laws", "unknown key 'chek'"),
])
def test_malformed_suite_file_line_is_a_usage_error(line, fragment, tmp_path, monkeypatch,
                                                     capsys):
    path = tmp_path / "bad.suite"
    path.write_text(f"name: bad\ncheck: jets-core:pairing-laws\n\n{line}\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["run", "--suite", "bad"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:4: " in err and fragment in err

def test_suite_file_named_like_a_builtin_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "shadow.suite"
    path.write_text("name: jets-core\ncheck: jets-core:pairing-laws\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    for argv in (["list"], ["run", "--suite", "jets-core", "--points", "2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'jets-core'" in err


def test_suite_file_without_name_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "anonymous.suite"
    path.write_text("description: no name\ncheck: jets-core:pairing-laws\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["list"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "no name" in err


def test_custom_suites_reload_and_stay_out_of_builtins(tmp_path, monkeypatch, capsys):
    import twistorkit.suites as su

    (tmp_path / "mini.suite").write_text(
        "name: mini-reload\ncheck: jets-core:pairing-laws points=2\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    for _ in range(2):
        assert main(["run", "--suite", "mini-reload", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["points"] == 6
    assert "mini-reload" not in su.SUITES
    assert [n for n, _ in list_suites()].count("mini-reload") == 1

def test_jet_order_flag_is_gone(capsys):
    try:
        code = main(["run", "--suite", "jets-core", "--points", "2", "--jet-order", "6"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert main(["run", "--suite", "jets-core", "--points", "2", "--format", "json"]) == 0
    assert set(json.loads(capsys.readouterr().out)["config"]) == {
        "params", "points", "seed", "tol"}

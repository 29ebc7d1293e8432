"""Command-line runner: determinism, exit codes, custom suites."""

import json

import numpy as np
import pytest

from twistorkit.cli import main, report_document
from twistorkit.suites import CheckSpec, SuiteConfig, run_suite


def _listed(capsys):
    """The suite names that ``list`` prints."""
    assert main(["list"]) == 0
    return [line.partition(":")[0] for line in capsys.readouterr().out.splitlines()]


def test_list_suites_contents(capsys):
    names = _listed(capsys)
    assert "euclid-hm" in names and "cp3-data" in names and "sigma-plus-algebra" in names
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


def test_a_param_does_not_reach_the_next_call(capsys):
    # main parses every call with one parser, built on the first
    for params, expected in ((["--param", "f=0,1,0.3"], {"f": "0,1,0.3"}), ([], {})):
        assert main(["run", "--suite", "euclid-hm", "--points", "2", "--format", "json",
                     *params]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["params"] == expected


@pytest.mark.parametrize("param", ["Q=0", "R=0.5"])
def test_constant_param_polynomial_gives_a_report(param, capsys):
    # constant data is a report, not an internal error (exit 3); its
    # Jacobian pattern degenerates, so that check alone fails
    code = main(["run", "--suite", "cp3-data", "--points", "3", "--param", param,
                 "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["cp3-jacobian-pattern"]


@pytest.mark.parametrize("suite, param, fragment", [
    ("euclid-hm", "f=abc", "could not convert"),   # not a number
    ("euclid-hm", "f=", "could not convert"),      # empty list
    ("euclid-hm", "F=0,1", "reads f"),             # keys are case-sensitive
    ("lifts-r4", "bogus=1", "reads no parameters"),
    ("cp3-data", "f=0,1", "reads P, Q, R"),
    ("euclid-hm", "f=nan,1", "not finite"),
    ("cp3-data", "R=inf", "not finite"),
])
def test_bad_param_is_a_usage_error_before_any_check(suite, param, fragment, monkeypatch,
                                                     capsys):
    import twistorkit.cli as cli

    def no_run(config):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert main(["run", "--suite", suite, "--points", "2", "--param", param]) == 2
    captured = capsys.readouterr()
    key = param.partition("=")[0]
    assert f"--param {key}" in captured.err and fragment in captured.err
    assert "internal" not in captured.err and captured.out == ""


def test_param_without_equals_is_a_usage_error(capsys):
    assert main(["run", "--suite", "euclid-hm", "--param", "f"]) == 2
    captured = capsys.readouterr()
    assert "usage error: --param needs k=v, got 'f'" in captured.err and captured.out == ""


def test_no_subcommand_prints_the_usage_line(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: twistorkit") and captured.out == ""


def test_custom_suite_reads_the_params_of_its_checks(tmp_path, monkeypatch, capsys):
    (tmp_path / "mixed.suite").write_text(
        "name: mixed-params\n"
        "check: euclid-hm:horizontality points=2\n"
        "check: jets-core:pairing-laws points=2\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["run", "--suite", "mixed-params", "--param", "f=0,1,0.5",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["params"] == {"f": "0,1,0.5"}
    assert main(["run", "--suite", "mixed-params", "--param", "P=0,1"]) == 2
    assert "--param P: suite 'mixed-params' reads f" in capsys.readouterr().err


def test_param_keys_are_those_of_the_checks_that_read_them(tmp_path, monkeypatch, capsys):
    # euclid-hm reads f, but not in its closed-form checks
    (tmp_path / "closed.suite").write_text(
        "name: closed-only\n"
        "check: euclid-hm:closed-form-harmonicity points=2\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["run", "--suite", "closed-only", "--param", "f=0,2"]) == 2
    captured = capsys.readouterr()
    assert "--param f: suite 'closed-only' reads no parameters" in captured.err
    assert captured.out == ""


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

    def boom(config, rng):
        raise RuntimeError("synthetic evaluation failure")

    spec = CheckSpec("broken-suite", "boom", 1e-9, (), boom)
    monkeypatch.setitem(su.SUITES, "broken-suite", ("always raises", [(spec, {})]))
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
        assert f"usage error: --points must be at least 1, got {n}" in capsys.readouterr().err
        with pytest.raises(ValueError, match=f"--points must be at least 1, got {n}"):
            SuiteConfig("jets-core", points=int(n))


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_suite_dir_that_is_not_a_directory_is_a_usage_error(kind, tmp_path, monkeypatch,
                                                            capsys):
    path = tmp_path / "nonexistent" / "dir"
    if kind == "file":
        path = tmp_path / "mine.suite"
        path.write_text("name: mine\ncheck: jets-core:pairing-laws\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(path))
    for argv in (["list"], ["run", "--suite", "mine", "--points", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error in TWISTOR_SUITE_DIR: {path}: not a directory\n"
        assert captured.out == ""
    # empty is unset: the built-in suites only
    monkeypatch.setenv("TWISTOR_SUITE_DIR", "")
    empty = _listed(capsys)
    monkeypatch.delenv("TWISTOR_SUITE_DIR")
    assert empty == _listed(capsys)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_that_is_not_finite_and_nonnegative_is_a_usage_error(tol, capsys):
    code = main(["run", "--suite", "jets-core", "--points", "2", "--tol", tol,
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "usage error: --tol must be a finite number >= 0" in err


def test_zero_tol_is_accepted(capsys):
    assert main(["run", "--suite", "sigma-plus-algebra", "--points", "2", "--tol", "0",
                 "--format", "json"]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert all(c["tolerance"] == 0.0 for c in doc["checks"])


def test_keyerror_inside_a_check_is_internal(monkeypatch, capsys):
    import twistorkit.suites as su

    def lookup_bug(config, rng):
        return {}["missing"]

    spec = CheckSpec("jets-core", "lookup-bug", 1e-9, (), lookup_bug)
    monkeypatch.setitem(su.SUITES, "jets-core", ("raises KeyError", [(spec, {})]))
    assert main(["run", "--suite", "jets-core"]) == 3
    err = capsys.readouterr().err
    assert "internal evaluation error" in err and "unknown suite" not in err



@pytest.mark.parametrize("line, fragment", [
    ("check:", "unknown check ''"),                                        # empty
    ("check: jets-core:pairing-laws tol=abc", "'abc'"),                    # not a number
    ("check: jets-core:pairing-laws tolerance=1e-30", "'tolerance'"),      # unknown key
    ("check: jets-core:pairing-laws points=0", "points= must be at least 1"),
    ("check: jets-core:pairing-laws tol=nan", "tol= must be a finite number >= 0, got nan"),
    ("check: jets-core:pairing-laws tol=-1e-3", "tol= must be a finite number >= 0"),
    ("check: jets-core:pairing-laws tol=inf", "tol= must be a finite number >= 0, got inf"),
    ("chek: jets-core:pairing-laws", "unknown key 'chek'"),
    ("check: jets-core:pairing-laws points=3 tol=1e-30",                  # repeated
     "check 'jets-core:pairing-laws' is already named on line 2"),
    ("check: jets-core:product-convolution tol=1e-30 tol=1", "override tol= given twice"),
    ("check: jets-core:product-convolution points=2 points=7",
     "override points= given twice"),
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


def test_suite_file_without_checks_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "empty.suite"
    path.write_text("name: empty-one\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    for argv in (["list"], ["run", "--suite", "empty-one"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().endswith(f"{path}: name: but no check: lines")


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_suite_file_is_a_usage_error(kind, tmp_path, monkeypatch, capsys):
    path = tmp_path / "x.suite"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"name: bad\xff\ncheck: jets-core:pairing-laws\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    for argv in (["list"], ["run", "--suite", "bad", "--points", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{path}: not a readable UTF-8 text file" in captured.err
        assert captured.out == ""


def test_two_suite_files_with_one_name_are_a_usage_error(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "a.suite", tmp_path / "b.suite"
    first.write_text("name: dup\ncheck: jets-core:pairing-laws points=2\n")
    second.write_text("name: dup\ncheck: sigma-plus-algebra:mj-dimension\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    for argv in (["list"], ["run", "--suite", "dup", "--points", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{second}: suite name 'dup' is also that of {first}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("line", ["name: other", "description: again"])
def test_second_name_or_description_line_is_a_usage_error(line, tmp_path, monkeypatch,
                                                           capsys):
    path = tmp_path / "twice.suite"
    path.write_text(f"name: twice\ndescription: once\ncheck: jets-core:pairing-laws\n{line}\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    assert main(["run", "--suite", "twice", "--points", "2"]) == 2
    key = line.partition(":")[0]
    assert f"{path}:4: second {key}: line" in capsys.readouterr().err


def test_repeated_param_is_a_usage_error(monkeypatch, capsys):
    import twistorkit.cli as cli

    def no_run(config):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert main(["run", "--suite", "euclid-hm", "--points", "2",
                 "--param", "f=0,1", "--param", "f=0,2"]) == 2
    captured = capsys.readouterr()
    assert "--param f: given twice, '0,1' and '0,2'" in captured.err
    assert captured.out == ""


def test_custom_suites_reload_and_stay_out_of_builtins(tmp_path, monkeypatch, capsys):
    import twistorkit.suites as su

    (tmp_path / "mini.suite").write_text(
        "name: mini-reload\ncheck: jets-core:pairing-laws points=2\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    for _ in range(2):
        assert main(["run", "--suite", "mini-reload", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["points"] == 6
    assert "mini-reload" not in su.SUITES
    assert _listed(capsys).count("mini-reload") == 1


def test_suite_dir_is_read_again_on_every_call(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    (first / "only.suite").write_text("name: only-in-a\ncheck: jets-core:pairing-laws points=2\n")
    (first / "shared.suite").write_text(
        "name: shared\ncheck: jets-core:pairing-laws points=2 tol=1e-30\n")
    (second / "only.suite").write_text("name: only-in-b\ncheck: jets-core:pairing-laws points=2\n")
    (second / "shared.suite").write_text("name: shared\ncheck: sigma-plus-algebra:mj-dimension\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(first))
    assert {"only-in-a", "shared"} <= set(_listed(capsys))
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(second))
    names = _listed(capsys)
    assert "only-in-b" in names and "only-in-a" not in names
    assert main(["run", "--suite", "only-in-a", "--points", "2"]) == 2
    assert "unknown suite 'only-in-a'" in capsys.readouterr().err
    # the later file of the same name is the whole suite
    assert main(["run", "--suite", "shared", "--points", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["tolerance"]) for c in doc["checks"]] == [("mj-dimension", 0.0)]
    monkeypatch.delenv("TWISTOR_SUITE_DIR")
    names = _listed(capsys)
    assert not {"only-in-a", "only-in-b", "shared"} & set(names)
    assert main(["run", "--suite", "only-in-b", "--points", "2"]) == 2
    assert "unknown suite 'only-in-b'" in capsys.readouterr().err


def test_suite_file_tol_takes_precedence_over_the_tol_flag(tmp_path, monkeypatch, capsys):
    import twistorkit.suites as su

    def residuals(phi, P, R):
        # the full residual is 1e-2 and the diagonal one 0 at every point, so
        # they agree exactly when the body's threshold is at least 1e-2
        full = np.full(len(P), 1e-2)
        return full, 0 * full

    (tmp_path / "iso.suite").write_text(
        "name: iso\ncheck: isotropy-reduction:full-vs-diagonal tol=1e-3\n")
    monkeypatch.setenv("TWISTOR_SUITE_DIR", str(tmp_path))
    argv = ["run", "--suite", "iso", "--points", "2", "--tol", "0.5", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["tol"] == 0.5
    assert [(c["tolerance"], c["pass"]) for c in doc["checks"]] == [(1e-3, True)]
    # the body compares with the file's 1e-3, not with --tol 0.5
    monkeypatch.setattr(su, "real_isotropy_residuals", residuals)
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["tol"] == 0.5
    check, = doc["checks"]
    assert (check["tolerance"], check["max_residual"], check["pass"]) == (1e-3, 1.0, False)

def test_jet_order_flag_is_gone(capsys):
    try:
        code = main(["run", "--suite", "jets-core", "--points", "2", "--jet-order", "6"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert main(["run", "--suite", "jets-core", "--points", "2", "--format", "json"]) == 0
    assert set(json.loads(capsys.readouterr().out)["config"]) == {
        "params", "points", "seed", "tol"}

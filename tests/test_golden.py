"""Golden-report lock: every built-in suite at the default configuration must
reproduce its committed JSON report byte for byte, and so must a few
non-default configurations under ``golden/variants/``.

A golden file may change only with a note in CHANGES.md saying why (for
example low-order digits that move after a reassociated sum, with pass/fail
and all counts equal).  To regenerate one::

    twistorkit run --suite S --seed 42 --points 50 --format json > tests/golden/S.json
    twistorkit run --seed 42 --points 10 --format json ARGV > tests/golden/variants/NAME.json

with NAME and ARGV from ``VARIANTS`` below; ARGV comes last, so a variant may
override the fixed flags (a ``--seed`` of its own, for example).
"""

from pathlib import Path

import pytest

from twistorkit.cli import main
from twistorkit.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"

# variant file stem -> the argv it was produced with, after the fixed flags
VARIANTS = {
    "euclid-hm-f-quadratic": ["--suite", "euclid-hm", "--param", "f=0,1,0.5"],
    "cp3-data-pqr": ["--suite", "cp3-data", "--param", "P=0,2", "--param", "Q=0,1.5",
                     "--param", "R=0,0.5"],
    "jets-core-tol-1e-6": ["--suite", "jets-core", "--tol", "1e-6"],
    "flat-connection-seed-7": ["--suite", "flat-connection", "--seed", "7"],
}


def test_every_suite_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(SUITES)


def test_every_variant_has_an_argv():
    assert sorted(p.stem for p in (GOLDEN / "variants").glob("*.json")) == sorted(VARIANTS)


@pytest.mark.parametrize("suite", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_report_matches_golden(suite, monkeypatch, capsys):
    monkeypatch.delenv("TWISTOR_SUITE_DIR", raising=False)
    main(["run", "--suite", suite, "--seed", "42", "--points", "50", "--format", "json"])
    assert capsys.readouterr().out == (GOLDEN / f"{suite}.json").read_text()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_matches_golden(name, monkeypatch, capsys):
    monkeypatch.delenv("TWISTOR_SUITE_DIR", raising=False)
    main(["run", "--seed", "42", "--points", "10", "--format", "json", *VARIANTS[name]])
    assert capsys.readouterr().out == (GOLDEN / "variants" / f"{name}.json").read_text()

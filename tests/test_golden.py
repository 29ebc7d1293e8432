"""Golden-report lock: every built-in suite at the default configuration must
reproduce its committed JSON report byte for byte.

A golden file may change only with a note in CHANGES.md saying why (for
example low-order digits that move after a reassociated sum, with pass/fail
and all counts equal).  To regenerate one::

    twistorkit run --suite S --seed 42 --points 50 --format json > tests/golden/S.json
"""

from pathlib import Path

import pytest

from twistorkit.cli import main
from twistorkit.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"


def test_every_suite_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_report_matches_golden(suite, monkeypatch, capsys):
    monkeypatch.delenv("TWISTOR_SUITE_DIR", raising=False)
    main(["run", "--suite", suite, "--seed", "42", "--points", "50", "--format", "json"])
    assert capsys.readouterr().out == (GOLDEN / f"{suite}.json").read_text()

"""Demo-output lock: each script under ``demos/`` must print exactly its
committed output in ``golden/demos/``.

The demos print residuals to full precision, so this lock sees last-ulp
changes that the suite reports (a max over many residuals) can hide.  The
scripts run in-process, so the lock adds no interpreter start-up.  A lock
file may change only with a note in CHANGES.md saying why.  To regenerate
one::

    PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt

The bytes hold on the numeric path recorded in ``golden/PATH``; a failing
lock says whether this host runs it (``numeric_path.py``).
"""

import runpy
from pathlib import Path

import pytest

from numeric_path import path_note

DEMOS = Path(__file__).parent.parent / "demos"
LOCKS = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_lock():
    assert sorted(p.stem for p in LOCKS.glob("*.txt")) == sorted(p.stem for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_matches_lock(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out == (LOCKS / f"{demo}.txt").read_text(), path_note()

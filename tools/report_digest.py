"""SHA-256 digests of the suite reports over a fixed grid.

Runs ``twistorkit.cli.main`` in-process, with ``TWISTOR_SUITE_DIR`` unset,
for every built-in suite x seeds 1, 2, 3, 42 x ``--points`` 3, 10, 25 x
``--format`` json and text.  Prints one line per report, with its exit code
and the SHA-256 of its bytes, and last a total over all those lines.  Two
checkouts whose totals agree produce the same reports on the grid::

    python3 tools/report_digest.py

It imports ``twistorkit`` from the ``src`` directory next to ``tools``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistorkit.cli import main  # noqa: E402
from twistorkit.suites import SUITES  # noqa: E402

SEEDS = (1, 2, 3, 42)
POINTS = (3, 10, 25)
FORMATS = ("json", "text")


def report_lines():
    """``suite seed points format exit sha256`` for each report of the grid."""
    os.environ.pop("TWISTOR_SUITE_DIR", None)
    for suite in sorted(SUITES):
        for seed in SEEDS:
            for points in POINTS:
                for fmt in FORMATS:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main(["run", "--suite", suite, "--seed", str(seed),
                                     "--points", str(points), "--format", fmt])
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    yield f"{suite} {seed} {points} {fmt} {code} {digest}"


if __name__ == "__main__":
    total = hashlib.sha256()
    for line in report_lines():
        total.update(line.encode() + b"\n")
        print(line)
    print(f"total {total.hexdigest()}")

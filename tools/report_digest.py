"""SHA-256 digests of the suite reports over a fixed grid.

Runs ``twistorkit.cli.main`` in-process, with ``TWISTOR_SUITE_DIR`` unset,
for every built-in suite x seeds 1, 2, 3, 42 x ``--points`` 3, 10, 25 x
``--format`` json and text.  Prints one line per report, with its exit code
and the SHA-256 of its bytes, then a total over all those lines.  Two
checkouts whose totals agree produce the same reports on the grid::

    python3 tools/report_digest.py

The last seven lines are kept out of the total.  ``path openblas=<core>
baseline=<targets> dispatch=<targets>`` names the numeric path the reports
were made on, which their bits depend on: the OpenBLAS core that numpy's
BLAS runs (``unknown`` where its library has no
``scipy_openblas_get_corename64_``), numpy's baseline SIMD targets and the
dispatch targets enabled on this CPU.  ``morphism <sha256>`` hashes
the residual bytes of ``perfbench/workloads.morphism_request(seed)`` for
seeds 1-40, the library-call pipeline that no suite report covers.
``euclid-hm-seeds <sha256>`` hashes the euclid-hm JSON reports at
``--points 10`` for seeds 1-1100: the grid's four seeds seldom make its
samplers reject a draw, and seeds 686, 866 and 1052 are among those that
make fibre-invariance reject one.  ``lifts-r4-seeds <sha256>`` hashes the
lifts-r4 JSON reports at ``--points 10`` for seeds 1-300, which put many
more points through the batched lift than the grid does.
``flat-connection-seeds <sha256>`` hashes the flat-connection JSON reports
at ``--points 10`` for seeds 1-200, which draw far more Maurer-Cartan forms
through the stacked exponential than the grid does.
``sigma-plus-algebra-seeds <sha256>`` hashes the sigma-plus-algebra JSON
reports at ``--points 10`` for seeds 1-500, which put far more structures
of each k through the stacked structure functions than the grid does.
``cp3-data-seeds <sha256>`` hashes the cp3-data JSON reports at
``--points 10`` for seeds 1-500, which put far more points through the
batched CP^3 coordinates than the grid does.

It imports ``twistorkit`` from the ``src`` directory next to ``tools``, and
the workloads module from ``perfbench`` beside it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from twistorkit.cli import main  # noqa: E402
from twistorkit.suites import SUITES  # noqa: E402

SEEDS = (1, 2, 3, 42)
POINTS = (3, 10, 25)
FORMATS = ("json", "text")
MORPHISM_SEEDS = range(1, 41)
EUCLID_SEEDS = range(1, 1101)
LIFTS_SEEDS = range(1, 301)
FLAT_SEEDS = range(1, 201)
SIGMA_SEEDS = range(1, 501)
CP3_SEEDS = range(1, 501)


def report_line(suite, seed, points, fmt):
    """``suite seed points format exit sha256`` of one report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--suite", suite, "--seed", str(seed),
                     "--points", str(points), "--format", fmt])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{suite} {seed} {points} {fmt} {code} {digest}"


def report_lines():
    """The :func:`report_line` of each report of the grid."""
    os.environ.pop("TWISTOR_SUITE_DIR", None)
    for suite in sorted(SUITES):
        for seed in SEEDS:
            for points in POINTS:
                for fmt in FORMATS:
                    yield report_line(suite, seed, points, fmt)


def seeds_digest(suite, seeds):
    """SHA-256 over the :func:`report_line` of the ``suite`` JSON report at
    ``--points 10`` of each seed, each followed by a newline."""
    os.environ.pop("TWISTOR_SUITE_DIR", None)
    digest = hashlib.sha256()
    for seed in seeds:
        digest.update(report_line(suite, seed, 10, "json").encode() + b"\n")
    return digest.hexdigest()


def path_line():
    """``path openblas=<core> baseline=<targets> dispatch=<targets>``."""
    from numpy._core import _multiarray_umath as umath

    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (OSError, AttributeError):
        core = "unknown"
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"path openblas={core} baseline={','.join(umath.__cpu_baseline__) or 'none'} "
            f"dispatch={','.join(enabled) or 'none'}")


def morphism_digest():
    """SHA-256 over the residual bytes of the morphism request of each seed,
    each followed by a newline."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digest = hashlib.sha256()
    for seed in MORPHISM_SEEDS:
        digest.update(workloads.morphism_request(seed)[0] + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    total = hashlib.sha256()
    for line in report_lines():
        total.update(line.encode() + b"\n")
        print(line)
    print(f"total {total.hexdigest()}")
    print(path_line())
    print(f"morphism {morphism_digest()}")
    print(f"euclid-hm-seeds {seeds_digest('euclid-hm', EUCLID_SEEDS)}")
    print(f"lifts-r4-seeds {seeds_digest('lifts-r4', LIFTS_SEEDS)}")
    print(f"flat-connection-seeds {seeds_digest('flat-connection', FLAT_SEEDS)}")
    print(f"sigma-plus-algebra-seeds {seeds_digest('sigma-plus-algebra', SIGMA_SEEDS)}")
    print(f"cp3-data-seeds {seeds_digest('cp3-data', CP3_SEEDS)}")

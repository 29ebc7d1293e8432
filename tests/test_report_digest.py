"""The numeric-path line of tools/report_digest.py."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _PATH)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)

TARGETS = r"([A-Z0-9_]+(?:,[A-Z0-9_]+)*|none)"
LINE = re.compile(rf"path openblas=(\S+) baseline={TARGETS} dispatch={TARGETS}")


def test_path_line_names_the_blas_core_and_the_simd_targets():
    assert LINE.fullmatch(report_digest.path_line())


def test_path_line_reads_unknown_without_the_corename_symbol(monkeypatch):
    monkeypatch.setattr(report_digest.ctypes, "CDLL", lambda name: object())
    match = LINE.fullmatch(report_digest.path_line())
    assert match and match[1] == "unknown"

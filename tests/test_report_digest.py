"""The numeric-path line of tools/report_digest.py, and its record in
tests/golden/PATH."""

import re

from numeric_path import RECORDED, path_note, report_digest

TARGETS = r"([A-Z0-9_]+(?:,[A-Z0-9_]+)*|none)"
LINE = re.compile(rf"path openblas=(\S+) baseline={TARGETS} dispatch={TARGETS}")


def test_path_line_names_the_blas_core_and_the_simd_targets():
    assert LINE.fullmatch(report_digest.path_line())


def test_path_line_reads_unknown_without_the_corename_symbol(monkeypatch):
    monkeypatch.setattr(report_digest.ctypes, "CDLL", lambda name: object())
    match = LINE.fullmatch(report_digest.path_line())
    assert match and match[1] == "unknown"


def test_the_recorded_path_is_one_path_line():
    assert LINE.fullmatch(RECORDED.read_text().rstrip("\n"))
    assert RECORDED.read_text().count("\n") == 1


def test_path_note_says_whether_this_host_runs_the_recorded_path(monkeypatch):
    recorded = RECORDED.read_text().strip()
    monkeypatch.setattr(report_digest, "path_line", lambda: recorded)
    assert path_note() == (
        f"this host runs the recorded numeric path ({recorded}), so the path is not the cause")
    other = "path openblas=Haswell baseline=X86_V2 dispatch=X86_V3"
    monkeypatch.setattr(report_digest, "path_line", lambda: other)
    note = path_note()
    assert note.startswith("this host's numeric path differs from the one the locks were made on")
    assert f"recorded '{recorded}'" in note and f"here '{other}'" in note

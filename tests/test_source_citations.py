"""Every test that a comment or docstring under src/ cites is defined under
tests/: a kept workaround names the test that pins it, so a renamed or
deleted test must not leave the name behind."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\btest_\w+")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _prose(source):
    """The comments and docstrings of a module's source."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False):
            yield ast.get_docstring(node, clean=False)


def _cited():
    """(module file name, test name) of each test named in src/ prose."""
    return {(path.name, name) for path in sorted((ROOT / "src").rglob("*.py"))
            for text in _prose(path.read_text()) for name in CITED.findall(text)}


def _defined():
    """The names of the test functions under tests/."""
    return {node.name for path in (ROOT / "tests").rglob("test_*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_prose_finds_comments_and_docstrings_only():
    source = ('"""test_a"""\n# test_b\ndef f():\n    """test_c\n    test_d"""\n'
              '    test_e = "test_f"  # test_g\n')
    assert sorted(name for text in _prose(source) for name in CITED.findall(text)) == [
        "test_a", "test_b", "test_c", "test_d", "test_g"]


def test_every_test_cited_in_src_is_defined_in_tests():
    cited = _cited()
    assert cited
    defined = _defined()
    assert sorted(c for c in cited if c[1] not in defined) == []

"""Command-line front end: run verification suites, list what exists.

Reports are deterministic: for a fixed configuration and seed two runs
produce byte-identical documents.  Wall time is therefore not part of the
report; it goes to stderr with the human summary.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage error,
3 internal evaluation error.  A ``--param`` key that no check of the suite
reads or that is given twice, or a value that is not a comma-separated list
of finite numbers, is a usage error found before any check runs.

Custom suites: point TWISTOR_SUITE_DIR at a directory of ``*.suite`` files,
each a key-value document (unset or empty, it means the built-in suites
only; set to anything that is not a directory, it is a usage error)::

    name: my-suite
    description: what it verifies
    check: euclid-hm:closed-form-harmonicity tol=1e-8 points=10
    check: jets-core:product-convolution

Overrides are ``tol=<finite number >= 0>`` and ``points=<integer >= 1>``
and win over ``--tol`` and ``--points``.  Any other key, override or value,
an override given twice on one line, an empty ``check:`` line, a second
``check:`` line of one check and a second ``name:`` or ``description:``
line, is a usage error (exit 2) that names the file and line; so is a file
that is not readable UTF-8 text, one with ``check:`` lines but no ``name:``,
and one whose name is that of a built-in suite or of another file.
:func:`load_suites` reads the directory again on each call of :func:`main`,
which lists, validates and runs suites from the table it returns; nothing of
that table outlives the call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .suites import CHECK_INDEX, SUITES, SuiteConfig, check_params, run_suite


def _fmt_float(x):
    return repr(float(x))


def report_document(config, reports, fmt):
    """Serialize a suite run; wall time deliberately excluded for
    byte-identical reruns."""
    overall = all(r.passed for r in reports)
    checks = [
        {
            "name": r.name,
            "points": len(r.points),
            "max_residual": float(r.max_residual),
            "tolerance": float(r.tolerance),
            "pass": bool(r.passed),
            "aux": {k: _json_safe(v) for k, v in sorted(r.aux.items())},
        }
        for r in reports
    ]
    doc = {
        "suite": config.suite,
        "version": __version__,
        "config": {
            "points": config.points,
            "seed": config.seed,
            "tol": None if config.tol is None else float(config.tol),
            "params": {k: str(v) for k, v in sorted(config.params.items())},
        },
        "checks": checks,
        "overall_pass": overall,
    }
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"suite: {doc['suite']}", f"version: {doc['version']}", "config:"]
    for k in ("points", "seed", "tol"):
        lines.append(f"  {k}: {doc['config'][k]}")
    lines.append(f"  params: {json.dumps(doc['config']['params'], sort_keys=True)}")
    lines.append("checks:")
    for c in checks:
        lines.append(f"  - name: {c['name']}")
        lines.append(f"    points: {c['points']}")
        lines.append(f"    max_residual: {_fmt_float(c['max_residual'])}")
        lines.append(f"    tolerance: {_fmt_float(c['tolerance'])}")
        lines.append(f"    pass: {str(c['pass']).lower()}")
        if c["aux"]:
            lines.append(f"    aux: {json.dumps(c['aux'], sort_keys=True)}")
    lines.append(f"overall_pass: {str(overall).lower()}")
    return "\n".join(lines) + "\n"


def _json_safe(v):
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return float(v)


class SuiteFileError(ValueError):
    """A malformed line in a ``.suite`` file; the message names file and line."""


# override key -> (parser, what the value must be)
_OVERRIDES = {"tol": (float, "a number"), "points": (int, "an integer")}


def _parse_check(value, where):
    """(check key, overrides) of one ``check:`` line."""
    key, *tokens = value.split() or [""]
    if key not in CHECK_INDEX:
        raise SuiteFileError(f"{where}: unknown check {key!r}")
    overrides = {}
    for tok in tokens:
        k, _, v = tok.partition("=")
        if k not in _OVERRIDES:
            raise SuiteFileError(f"{where}: unknown override {k!r} (tol or points)")
        if k in overrides:
            raise SuiteFileError(f"{where}: override {k}= given twice")
        parse, kind = _OVERRIDES[k]
        try:
            overrides[k] = parse(v)
        except ValueError:
            raise SuiteFileError(f"{where}: {k}= needs {kind}, got {v!r}") from None
    if overrides.get("points", 1) < 1:
        raise SuiteFileError(f"{where}: points= must be at least 1, got {overrides['points']}")
    if not 0 <= overrides.get("tol", 0.0) < math.inf:
        raise SuiteFileError(f"{where}: tol= must be a finite number >= 0, got {overrides['tol']}")
    return key, overrides


def load_suites(directory):
    """The suite table: the built-in suites and those of the ``*.suite``
    files in ``directory``, which is read on every call; the built-in suites
    alone when ``directory`` is unset or empty.  A ``directory`` that is set
    but is not a directory raises :class:`SuiteFileError`."""
    table = dict(SUITES)
    if not directory:
        return table
    if not os.path.isdir(directory):
        raise SuiteFileError(f"{directory}: not a directory")
    origin = dict.fromkeys(SUITES, "a built-in suite")  # suite name -> its source
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".suite"):
            continue
        path = os.path.join(directory, fname)
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeError) as exc:
            raise SuiteFileError(f"{path}: not a readable UTF-8 text file ({exc})") from None
        fields, refs = {}, {}  # refs: check key -> (line number, overrides)
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key == "check":
                ref, overrides = _parse_check(value, f"{path}:{lineno}")
                if ref in refs:
                    raise SuiteFileError(f"{path}:{lineno}: check {ref!r} is already "
                                         f"named on line {refs[ref][0]}")
                refs[ref] = lineno, overrides
            elif key not in ("name", "description"):
                raise SuiteFileError(f"{path}:{lineno}: unknown key {key!r}")
            elif key in fields:
                raise SuiteFileError(f"{path}:{lineno}: second {key}: line")
            else:
                fields[key] = value
        name = fields.get("name")
        if not name and not refs:
            continue
        if not refs:
            raise SuiteFileError(f"{path}: name: but no check: lines")
        if not name:
            raise SuiteFileError(f"{path}: check: lines but no name: line")
        if name in origin:
            raise SuiteFileError(f"{path}: suite name {name!r} is also that of {origin[name]}")
        origin[name] = path
        table[name] = (fields.get("description", ""),
                       [(CHECK_INDEX[ref], overrides) for ref, (_, overrides) in refs.items()])
    return table


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param needs k=v, got {item!r}")
        k, _, v = item.partition("=")
        if k in params:
            raise ValueError(f"--param {k}: given twice, {params[k]!r} and {v!r}")
        params[k] = v
    return params


@functools.cache
def build_parser():
    """The parser of :func:`main`, built once, on its first call: argparse
    makes a new namespace per parse and copies an ``append`` default before
    adding to it, so no call sees the arguments of another."""
    parser = argparse.ArgumentParser(
        prog="twistorkit", description="verification suites for the twistor toolkit")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run a named suite")
    run.add_argument("--suite", required=True)
    run.add_argument("--tol", type=float, default=None,
                     help="override every check tolerance (finite, >= 0)")
    run.add_argument("--points", type=int, default=50)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    run.add_argument("--param", action="append", default=[],
                     help="k=v parameter of the suite's examples; a key no "
                          "check reads, or a bad value, is a usage error")
    sub.add_parser("list", help="list available suites")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = load_suites(os.environ.get("TWISTOR_SUITE_DIR"))
    except SuiteFileError as exc:
        print(f"usage error in TWISTOR_SUITE_DIR: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        for name in sorted(table):
            print(f"{name}: {table[name][0]}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = SuiteConfig(
            suite=args.suite, tol=args.tol, points=args.points, seed=args.seed,
            params=_parse_params(args.param))
        if args.suite not in table:
            raise ValueError(f"unknown suite {args.suite!r}")
        check_params(config, table[args.suite][1])
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        reports = run_suite(config, table)
    except Exception as exc:  # noqa: BLE001 - surfaced with context, distinct exit code
        print(f"internal evaluation error in suite {args.suite!r}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed = time.time() - t0
    sys.stdout.write(report_document(config, reports, args.fmt))
    for r in reports:
        print(r.summary(), file=sys.stderr)
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())

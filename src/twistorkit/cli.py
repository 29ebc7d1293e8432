"""Command-line front end: run verification suites, list what exists.

Reports are deterministic: for a fixed configuration and seed two runs
produce byte-identical documents.  Wall time is therefore not part of the
report; it goes to stderr with the human summary.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage error,
3 internal evaluation error.

Custom suites: point TWISTOR_SUITE_DIR at a directory of ``*.suite`` files,
each a key-value document::

    name: my-suite
    description: what it verifies
    check: euclid-hm:closed-form-harmonicity tol=1e-8 points=10
    check: jets-core:product-convolution

Overrides are ``tol=<number>`` and ``points=<integer >= 1>``.  Any other key,
override or value, and an empty ``check:`` line, is a usage error (exit 2)
that names the file and line; so is a file with ``check:`` lines but no
``name:``, or whose name is that of a built-in suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .suites import CHECK_INDEX, SuiteConfig, list_suites, register_custom_suite, run_suite


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
        parse, kind = _OVERRIDES[k]
        try:
            overrides[k] = parse(v)
        except ValueError:
            raise SuiteFileError(f"{where}: {k}= needs {kind}, got {v!r}") from None
    if overrides.get("points", 1) < 1:
        raise SuiteFileError(f"{where}: points= must be at least 1, got {overrides['points']}")
    return key, overrides


def load_custom_suites(directory):
    """Parse *.suite files (key-value lines) and register their suites."""
    if not directory or not os.path.isdir(directory):
        return
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".suite"):
            continue
        path = os.path.join(directory, fname)
        name, description, refs = None, "", []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "name":
                    name = value
                elif key == "description":
                    description = value
                elif key == "check":
                    refs.append(_parse_check(value, f"{path}:{lineno}"))
                else:
                    raise SuiteFileError(f"{path}:{lineno}: unknown key {key!r}")
        if not refs:
            continue
        if not name:
            raise SuiteFileError(f"{path}: check: lines but no name: line")
        try:
            register_custom_suite(name, description, refs)
        except ValueError as exc:
            raise SuiteFileError(f"{path}: {exc}") from None


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param needs k=v, got {item!r}")
        k, _, v = item.partition("=")
        params[k] = v
    return params


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistorkit", description="verification suites for the twistor toolkit")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run a named suite")
    run.add_argument("--suite", required=True)
    run.add_argument("--tol", type=float, default=None,
                     help="override every check tolerance")
    run.add_argument("--points", type=int, default=50)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    run.add_argument("--param", action="append", default=[],
                     help="k=v parameter override for the suite's examples")
    sub.add_parser("list", help="list available suites")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        load_custom_suites(os.environ.get("TWISTOR_SUITE_DIR"))
    except SuiteFileError as exc:
        print(f"usage error in TWISTOR_SUITE_DIR: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        for name, desc in list_suites():
            print(f"{name}: {desc}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2
    if args.points < 1:
        print(f"usage error: --points must be at least 1, got {args.points}",
              file=sys.stderr)
        return 2
    if args.suite not in {name for name, _ in list_suites()}:
        print(f"usage error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    try:
        config = SuiteConfig(
            suite=args.suite, tol=args.tol, points=args.points, seed=args.seed,
            params=_parse_params(args.param))
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        reports = run_suite(config)
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

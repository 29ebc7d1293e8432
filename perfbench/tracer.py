"""Span tracer that wraps the public functions of every twistorkit layer.

A span is one call into a public function or method of a layer module.  The
tracer keeps, per span name, the call count and the self time (span duration
minus the time covered by its child spans).  Spans are aggregated as they
close instead of being stored: the jet layer opens hundreds of thousands of
spans per request, and keeping each one would dominate the traced run.

Installing the tracer replaces each traced function by a wrapper wherever
the package holds a reference to it: the defining module, every module that
imported the name (``from .jets import dz``) and the package namespace.
Methods are replaced on their class.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

PACKAGE = "twistorkit"
LAYERS = ("cli", "suites", "checkers", "lifts", "factory", "variations",
          "connections", "structures", "pairings", "jets")

# Jet arithmetic operators are the jet layer's interface even though they are
# dunders; SmoothMap.__call__ evaluates a map.
TRACED_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__call__"})

# Leaf helpers that only copy or index coefficients inside other jet
# operations; a span around each would cost about as much as the call and
# shift time from the callers into the jet layer.
UNTRACED = frozenset({
    "jets.Jet.truncated", "jets.Jet.constant", "jets.Jet.variable",
    "jets.Jet.coefficient"})

# Constructors that validate their input, so their calls count work.
TRACED_CONSTRUCTORS = frozenset({
    "structures.HermitianStructure", "structures.IsotropicSubspace"})

MUL = "jets.Jet.__mul__"
INVERT_H = "factory.invert_h"
JACOBIAN = "jets.SmoothMap.jacobian"
INTEGRATE_PATH = "connections.integrate_path"
FORM_VALUES = "connections.LieValuedForm.values"
EXPM = "connections.expm"

# (outer span, inner span): inner calls made while an outer span is open.
NESTED = ((INVERT_H, JACOBIAN), (INTEGRATE_PATH, FORM_VALUES), (INTEGRATE_PATH, EXPM))

WRAPPED_MARK = "__perfbench_span__"


def _traced_members(module):
    """Yield (span name, owner, attribute, raw callable) for one layer."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in sorted(vars(obj).items()):
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                public = not attr.startswith("_") or attr in TRACED_DUNDERS
                if attr == "__init__":
                    public = f"{layer}.{name}" in TRACED_CONSTRUCTORS
                span = f"{layer}.{name}.{fn.__name__}"
                if public and span not in UNTRACED:
                    yield span, obj, attr, raw


@functools.cache
def mul_macs(nvars, order):
    """Multiply-adds of a jet x jet product: C(2n + d, d) in n variables at
    order d, the number of index pairs with total degree <= d."""
    return math.comb(2 * nvars + order, order)


class Tracer:
    """Per-span call counts and self times for the twistorkit layers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._stack = []  # open spans as [span id, child time]
        self._restore = []
        self.reset()

    # -- aggregation ---------------------------------------------------
    def reset(self):
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.top_s = 0.0
        self.macs = 0
        self.nested = dict.fromkeys(NESTED, 0)
        self._stack.clear()

    def snapshot(self):
        """Calls and self time keyed by span name, with the derived counters."""
        calls = {n: c for n, c in zip(self.names, self.calls) if c}
        self_s = {n: s for n, s, c in zip(self.names, self.self_s, self.calls) if c}
        return {"calls": calls, "self_s": self_s, "top_s": self.top_s,
                "macs": self.macs, "nested": dict(self.nested)}

    def _make_wrapper(self, fn, sid, name):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        outers = [(o, self._ids[o]) for o, i in NESTED if i == name]
        is_mul = name == MUL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for outer, oid in outers:
                if any(f[0] == oid for f in stack):
                    tracer.nested[(outer, name)] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                tracer.calls[sid] += 1
                tracer.self_s[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s += dur
            if is_mul and type(args[1]) is type(args[0]):
                tracer.macs += mul_macs(result.table.nvars, result.table.order)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        package = importlib.import_module(PACKAGE)
        wrappers = {}  # id(original function) -> wrapper
        members = [m for module in modules for m in _traced_members(module)]
        self.names = sorted({m[0] for m in members})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.reset()
        for name, owner, attr, raw in members:
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = wrappers[id(fn)] = self._make_wrapper(fn, self._ids[name], name)
            if inspect.isclass(owner):
                new = type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod)) else wrapper
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
        originals = {id(raw): raw for _name, owner, _attr, raw in members
                     if not inspect.isclass(owner)}
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)]:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def wrapped_names():
    """Span names of every wrapper currently reachable from the package."""
    found = set()
    for layer in ("", *LAYERS):
        module = importlib.import_module(f"{PACKAGE}.{layer}" if layer else PACKAGE)
        for value in vars(module).values():
            targets = [value]
            if inspect.isclass(value):
                targets = [getattr(r, "__func__", r) for r in vars(value).values()]
            for t in targets:
                mark = getattr(t, WRAPPED_MARK, None)
                if mark:
                    found.add(mark)
    return found


# Named groups of spans in the jet, factory, lifts and connections layers.
SPAN_GROUPS = {
    "jets.mul": (MUL,),
    "jets.addsub": ("jets.Jet.__add__", "jets.Jet.__sub__", "jets.Jet.__rsub__",
                    "jets.Jet.__neg__"),
    "jets.partial": ("jets.Jet.partial",),
    "jets.series": ("jets.Jet.reciprocal", "jets.Jet.sqrt", "jets.Jet.exp", "jets.Jet.log",
                    "jets.Jet.__truediv__", "jets.Jet.__rtruediv__", "jets.Jet.__pow__"),
    "jets.smoothmap_jets": ("jets.SmoothMap.jets",),
    "jets.jacobian": (JACOBIAN,),
    "jets.invert_jet_map": ("jets.invert_jet_map",),
    "jets.compose": ("jets.compose",),
    "factory.invert_h": (INVERT_H,),
    "lifts.lift": ("lifts.strictly_compatible_lift_r4",),
    "lifts.structure_jets": ("lifts.TwistorLift.structure_jets",),
    "connections.expm": (EXPM,),
    "connections.integrate_path": (INTEGRATE_PATH,),
}


def layer_metrics(snap, wall):
    """Per-layer metrics of one traced unit whose wall time was ``wall``."""
    calls, self_s = snap["calls"], snap["self_s"]
    out = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
        out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / wall
    for group, names in SPAN_GROUPS.items():
        out[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        out[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
    nested = snap["nested"]
    solves = calls.get(INVERT_H, 0)
    steps = nested[(INTEGRATE_PATH, FORM_VALUES)]
    out["jets.mul.macs"] = snap["macs"]
    out["factory.newton_iters_per_solve"] = nested[(INVERT_H, JACOBIAN)] / solves if solves else 0.0
    out["connections.steps"] = steps
    out["connections.expm_per_step"] = nested[(INTEGRATE_PATH, EXPM)] / steps if steps else 0.0
    out["structures.hermitian_init.calls"] = calls.get("structures.HermitianStructure.__init__", 0)
    out["cli.report_document.self_s"] = self_s.get("cli.report_document", 0.0)
    out["trace.unattributed_share"] = (wall - snap["top_s"]) / wall
    return out

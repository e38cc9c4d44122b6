"""Span tracer for the truncops layers, installed from outside the package.

`Tracer.install` wraps the public functions and methods of each layer module
and rebinds every name under which any truncops module holds them, so calls
made inside the package are caught as well as calls from the benchmark.
`numpy.linalg.lstsq` is wrapped too, as the `linalg` pseudo-layer.  Each
call records one span `[name, start, end, parent, op]` in memory; self times
are derived from the spans after the run, never while it is timed.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("blaschke", "ratfun", "quadrature", "modelspace", "operators",
          "classify", "products", "harness")
# dunder methods that do work worth a span; comparison and hashing do not
TRACED_DUNDERS = frozenset({
    "__init__", "__post_init__", "__call__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__", "__matmul__",
})
# spans whose inclusive time is reported (outermost call only)
INCLUSIVE = ("classify.is_tho", "classify.is_tto", "classify.sedlock_class")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0                   # id of the op in progress, 0 between ops
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        # harness._reset_state clears the lru caches through the module names
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer, cls):
        skip_init = dataclasses.is_dataclass(cls)   # generated field copying
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            if attr == "__init__" and skip_init:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, val.__func__)))
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, val.__func__)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self._wrap(name, val))

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "truncops" or n.startswith("truncops.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"truncops.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for name, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, name, wrapped)
        self._set(np.linalg, "lstsq", self._wrap("linalg.lstsq", np.linalg.lstsq))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- derived figures -----------------------------------------------------

    def summary(self) -> dict:
        """Self time per span name and per layer, call counts and inclusive times from the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)     # per span name
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if name in INCLUSIVE:
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    inclusive[name] += end - start
        layer_self_s: dict[str, float] = defaultdict(float)
        for name, secs in self_s.items():
            layer_self_s[name.split(".", 1)[0]] += secs
        return {"self_s": dict(self_s), "layer_self_s": dict(layer_self_s),
                "calls": dict(calls), "inclusive_s": dict(inclusive)}

    def write(self, path):
        """Gzipped, one JSON array per span: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")

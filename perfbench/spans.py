"""Span and call-count recording around the package's public functions.

``Tracer.install`` replaces every public function of ``inertia_market``
(a plain function named in its defining module's ``__all__``) at every
module attribute that binds it, including the package namespace the
benchmark itself calls through and, for example,
``inertia_market.auction.solve_centralized_hard``. Calls between modules
go through those attributes, so each call becomes one span. Calls a
module makes to its own private helpers are not spans.

A span is (op, name, start, end, parent): ``op`` is the operation the
span belongs to, ``name`` is ``<module>.<function>`` of the defining
module, ``parent`` the index of the enclosing span or -1. Spans stay in
memory and are written out once, at the end of a run. Tracing is never
installed while end-to-end metrics are measured.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import types
from collections import defaultdict
from time import perf_counter

PACKAGE = "inertia_market"


def load_all_modules() -> None:
    """Import every package module, so functions loaded lazily are wrapped too."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")


def _public_functions() -> dict:
    """Map id(function) -> (span name, function) for every public function."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        short = mod_name.rsplit(".", 1)[-1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod_name:
                found[id(fn)] = (f"{short}.{fn.__name__}", fn)
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every public function; undo with ``uninstall``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        functions = _public_functions()
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in functions.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in functions and functions[id(value)][1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path, offset: int) -> list:
    """Spans written by ``dump``, with parent indices shifted by ``offset``.

    Pass the length of the list they will be appended to, so spans read
    from several processes can be aggregated as one list.
    """
    with open(path, encoding="utf-8") as fh:
        return [
            (op, name, start, end, parent + offset if parent >= 0 else -1)
            for op, name, start, end, parent in json.load(fh)
        ]


def aggregate(spans) -> dict:
    """Per span name: calls, total duration and total self time.

    Self time is a span's duration minus that of its direct children;
    spans nest on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for idx, (_, name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[idx]
    return dict(stats)

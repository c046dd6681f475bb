"""Span tracer that wraps cflearn's public functions from outside the package.

Every public function of a layer module is replaced, at every name in the
``cflearn`` package that binds it, by a wrapper that records one span:
(name, start, end, parent).  Spans are kept in flat in-memory columns while
the workload runs and written out once at the end.  A layer's self time is
the summed duration of its spans minus the part covered by their direct
children; private helpers such as ``cflearn._packed`` have no spans, so
their work lands in the self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "serialize",
    "training",
    "gradients",
    "estimators",
    "reward",
    "simulator",
    "degeneracy",
    "domain",
)


class Tracer:
    def __init__(self, package: str = "cflearn") -> None:
        self.package = package
        self.span_names: list[str] = []
        self.span_layer: list[int] = []
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self._active = [False]
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for layer, short in enumerate(LAYERS):
            module = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[obj] = self._wrap(obj, f"{short}.{attr}", layer)

    def _wrap(self, func, name: str, layer: int):
        name_id = len(self.span_names)
        self.span_names.append(name)
        self.span_layer.append(layer)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        stack, active = self._stack, self._active

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not active[0]:
                return func(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            began = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = began
                stack.pop()

        return traced

    def install(self) -> None:
        """Put the wrappers in place of every public function of every layer,
        at every name in the package that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        self._active[0] = False

    def active(self, on: bool) -> None:
        """Record spans (True) or pass calls straight through (False)."""
        self._active[0] = on

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """layer -> (self seconds, calls)."""
        names = np.frombuffer(self.name_col, dtype=np.int64)
        parents = np.frombuffer(self.parent_col, dtype=np.int64)
        dur = np.frombuffer(self.end_col, dtype=float) - np.frombuffer(self.start_col, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        layer = np.asarray(self.span_layer, dtype=np.int64)[names]
        self_s = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        return {short: (float(self_s[i]), int(calls[i])) for i, short in enumerate(LAYERS)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name_col, dtype=np.int64),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            start=np.frombuffer(self.start_col, dtype=float),
            end=np.frombuffer(self.end_col, dtype=float),
        )

"""In-memory span recorder for the traced run.

Spans are taken at module boundaries from outside the package: every
function one hotlane module imports from another (for example the ``solve``
that ``design`` imported, or the ``latency_gap`` that ``equilibrium``
imported) is replaced in the importing module's namespace by a wrapper that
records a span, and put back afterwards. Calls inside one module are not
split, so each span's self time belongs to the callee's module. Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("latency", "population", "equilibrium", "oracle", "design", "cli")


class SpanRecorder:
    """Spans as parallel arrays: name id, start, end and parent index (-1 for a root)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, names, starts, ends, parents = self._stack, self.name, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every cross-module function reference inside the hotlane layers."""
        qualified = {f"hotlane.{layer}" for layer in LAYERS}
        for layer in LAYERS:
            module = importlib.import_module(f"hotlane.{layer}")
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ in qualified and value.__module__ != module.__name__:
                    callee = value.__module__.rsplit(".", 1)[1]
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self.wrap(f"{callee}.{value.__name__}", value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    child = spans["parent"] >= 0
    return dur - np.bincount(spans["parent"][child], weights=dur[child], minlength=len(dur))

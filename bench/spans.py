"""Span tracing at su3holo layer boundaries, installed at run time.

Every function of a layer module, wherever a su3holo module holds a
reference to it (its own namespace, another module's ``from .x import y``,
the package re-exports), and the methods of the layer's classes are
replaced by a wrapper for the duration of a traced run.  A wrapper opens a
span only when the call enters its layer from outside: a call nested inside
the same layer passes straight through, so it counts once.  Spans are kept
in memory with their parent id and written out when the run ends; nothing
under ``src/`` is edited.
"""
from __future__ import annotations

import enum
import functools
import importlib
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "algebra", "spectrum", "curvature", "tensors", "orbits",
          "kinematics", "limits", "holonomy")
# (layer, function) pairs whose entry spans get their own self time.
HOT_ENTRIES = (("algebra", "cubic_invariant"), ("spectrum", "_frames"),
               ("curvature", "_coeffs_from_frames"), ("holonomy", "from_function"))


def _units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.points": "count",
                      f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    units.update({f"{layer}.{name}.self_s": "s" for layer, name in HOT_ENTRIES})
    units.update({
        "spectrum.points_per_input_point": "ratio",
        "spectrum.points_per_call": "points/call",
        "curvature.points_per_call": "points/call",
        "limits.orders_per_flux": "orders/flux",
        "trace.overhead_frac": "ratio",
    })
    return units


# Every per-layer metric with its unit, in report order.
UNITS = _units()


class Span(NamedTuple):
    id: int
    parent: int          # 0 for a call from outside su3holo
    layer: str
    name: str
    t0: float
    t1: float
    points: int
    error: bool
    thread: int


def count_points(args, kwargs) -> int:
    """Leading-axis size of the first octet (..., 8) or matrix (..., 3, 3)
    argument; a patch or loop counts its grid or samples.  An 8 x 8 array
    is a coefficient tensor and counts as one point."""
    for arg in itertools.chain(args, kwargs.values()):
        arr = getattr(arg, "grid", getattr(arg, "samples", arg))
        if not isinstance(arr, np.ndarray) or arr.ndim == 0:
            continue
        if arr.shape == (8, 8):
            return 1
        if arr.shape[-1] == 8:
            return int(np.prod(arr.shape[:-1]))
        if arr.shape[-2:] == (3, 3):
            return int(np.prod(arr.shape[:-2]))
    return 0


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1][0] if stack else 0
            points = count_points(args, kwargs)
            stack.append((sid, layer))
            error = False
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, layer, fn.__name__, t0, t1,
                                       points, error, threading.get_ident()))

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _pool_class(self):
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            """Runs each submitted call under the submitting thread's span."""

            def submit(self, fn, /, *args, **kwargs):
                context = list(tracer._stack()[-1:])
                return super().submit(tracer._run_under, context, fn, *args, **kwargs)

        return ContextPool

    def _run_under(self, context, fn, *args, **kwargs):
        stack = self._stack()
        saved = stack[:]
        stack[:] = context
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"su3holo.{layer}") for layer in LAYERS}
        owners = [importlib.import_module("su3holo"), *modules.values()]
        layer_of = {f"su3holo.{layer}": layer for layer in LAYERS}
        pool = self._pool_class()
        for module in owners:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__module__ in layer_of:
                    self._set(module, name, self._wrap(value, layer_of[value.__module__]))
                elif value is ThreadPoolExecutor:
                    self._set(module, name, pool)
                elif (isinstance(value, type) and value.__module__ == module.__name__
                      and module.__name__ in layer_of and not issubclass(value, enum.Enum)):
                    self._wrap_methods(value, layer_of[module.__name__])

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name != "__post_init__":
                continue
            if isinstance(value, types.FunctionType):
                self._set(cls, name, self._wrap(value, layer))
            elif isinstance(value, (classmethod, staticmethod)):
                self._set(cls, name, type(value)(self._wrap(value.__func__, layer)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of a union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by child spans (which are
    in other layers by construction; children on pool threads may overlap)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        clipped = [(max(a, s.t0), min(b, s.t1)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.t1 - s.t0) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_metrics(spans: list[Span], input_points: int) -> dict[str, float]:
    """Per-layer counts, points, self times and errors, plus the ratios."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.points"] = sum(s.points for s in mine)
        out[f"{layer}.self_s"] = sum(own[s.id] for s in mine)
        out[f"{layer}.errors"] = sum(s.error for s in mine)
    for layer, name in HOT_ENTRIES:
        out[f"{layer}.{name}.self_s"] = sum(
            own[s.id] for s in spans if s.layer == layer and s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    out["spectrum.points_per_input_point"] = ratio(out["spectrum.points"], input_points)
    out["spectrum.points_per_call"] = ratio(out["spectrum.points"], out["spectrum.calls"])
    out["curvature.points_per_call"] = ratio(out["curvature.points"], out["curvature.calls"])
    fluxes = {s.id for s in spans if s.layer == "limits" and s.name == "monopole_flux"}
    orders = sum(1 for s in spans if s.name == "generic_mask" and s.parent in fluxes)
    out["limits.orders_per_flux"] = ratio(orders, len(fluxes))
    return out

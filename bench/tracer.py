"""Traced pass: wraps grazemap's public functions and methods from outside.

Every public function and public method of the layer modules is replaced by
a wrapper that records a span (function, start, end, parent span).  A module
that imports a function by name (``from .phases import xi_incoming``) looks
that name up in its own namespace at call time, so each wrapper replaces the
name in every grazemap namespace that binds it; otherwise those internal
calls would escape the count.  Spans live in flat arrays while the pass runs
and are written out once, at the end.

Self time is a span's duration minus the time its child spans cover, so
private helpers (``_flow_point``, ``_grid_seed``, ``_line_roots``, ...) land in
the self time of the public function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("specio", "diffgeo", "phases", "reflection", "grazing", "svgplot", "cli")

# Mechanism metrics: (metric, functions, what is summed).  "calls" counts
# calls, "self" sums self time, "inclusive" sums whole durations.
MECHANISMS = (
    ("diffgeo.obstacle_evals", ("diffgeo.Obstacle.value", "diffgeo.Obstacle.gradient",
                                "diffgeo.Obstacle.hessian", "diffgeo.Obstacle.boundary_point"),
     "calls"),
    ("diffgeo.poly_derivatives", ("diffgeo.MultiPoly.derivative",), "calls"),
    ("phases.xi_incoming.calls", ("phases.xi_incoming",), "calls"),
    ("reflection.xi_reflected.calls", ("reflection.xi_reflected",), "calls"),
    ("reflection.jacobian_analytic.self_s", ("reflection.jacobian_analytic",), "self"),
    ("reflection.jacobian_fd.self_s", ("reflection.jacobian_fd",), "self"),
    ("reflection.verify_rfm.self_s", ("reflection.verify_rfm",), "self"),
    ("reflection.invert_flow.self_s", ("reflection.invert_flow",), "self"),
    ("reflection.tangency_margin.calls", ("reflection.tangency_margin",), "calls"),
    ("grazing.gf_evals", tuple(f"grazing.{cls}.{m}"
                               for cls in ("SphericalGrazing", "PlanarGrazing", "SymmetricZeta")
                               for m in ("value", "gradient")), "calls"),
    ("grazing.trace_grazing_curve.s", ("grazing.trace_grazing_curve",), "inclusive"),
    ("grazing.slice_grazing_count.s", ("grazing.slice_grazing_count",), "inclusive"),
    ("grazing.check_u1ww.s", ("grazing.check_u1ww",), "inclusive"),
)


class Tracer:
    """Installs span-recording wrappers on grazemap and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module("grazemap")
        modules = {layer: importlib.import_module(f"grazemap.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._replace(ns, bound, wrapper)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{obj.__name__}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._replace(obj, meth, type(raw)(self._wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._replace(obj, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span once: function names plus parallel arrays."""
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def metrics(self) -> dict:
        """Per-layer calls and self time, and the mechanism metrics, from the spans."""
        nid = np.frombuffer(self.name_id, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        self_s = np.bincount(nid, weights=dur - child, minlength=n)
        incl_s = np.bincount(nid, weights=dur, minlength=n)
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for layer in LAYERS:
            ids = [i for name, i in index.items() if name.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (int(calls[ids].sum()), "calls")
            out[f"{layer}.self_s"] = (float(self_s[ids].sum()), "s")
        for metric, funcs, kind in MECHANISMS:
            missing = [f for f in funcs if f not in index]
            if missing:
                raise KeyError(f"{metric}: grazemap has no public {missing}")
            ids = [index[f] for f in funcs]
            if kind == "calls":
                out[metric] = (int(calls[ids].sum()), "calls")
            else:
                out[metric] = (float((self_s if kind == "self" else incl_s)[ids].sum()), "s")
        out["trace.spans"] = (len(dur), "spans")
        return out

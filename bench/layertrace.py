"""Per-layer spans recorded from outside the package.

A layer is one module of `coniclines`.  `Tracer.install` wraps every
public function of each layer, and every public method of the classes a
layer defines, and rebinds each wrapped function in every `coniclines.*`
namespace that holds it, so calls between modules go through the wrapper
too.  Private helpers are not wrapped: their time is self time of the
public function that called them.  Nor are generator functions, whose
body runs interleaved with their caller's; their time is the caller's.

Spans (name, parent, start, end) are kept in flat arrays while a pass
runs and summarised afterwards: a span's self time is its duration minus
the durations of its direct children.  The benchmark opens one root span
per job, so the part of a job's wall time that no layer accounts for is
the self time of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("cli", "arrangement", "poly", "linalg", "incidence", "splitting", "moduli", "render")
JOB = "job"


# span name -> key of a call's arguments, for counting distinct inputs per job
UNIQUE_KEYS = {
    "incidence.intersect_lines": lambda args: args,
    "incidence.intersect_line_conic": lambda args: args,
    "splitting.through_points": lambda args: (args[0], tuple(args[1])),
}
OBSERVED = {*UNIQUE_KEYS, "linalg.kernel_basis", "incidence.equivalences", "moduli.connectivity_certificate"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [JOB]
        self._name_ids = {JOB: 0}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.job_labels: list[str] = []
        self._seen: dict[str, set] = {name: set() for name in UNIQUE_KEYS}
        self.unique = {name: 0 for name in UNIQUE_KEYS}
        self.kernel_cells = 0
        self.equivalences_found = 0
        self.certificates = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def run_job(self, call, label: str):
        """Run `call()` under a root span labelled `label`; distinct-input counts are per job."""
        self.job_labels.append(label)
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)
            for name, seen in self._seen.items():
                self.unique[name] += len(seen)
                seen.clear()

    def _observe(self, name: str, args, result) -> None:
        if name in UNIQUE_KEYS:
            self._seen[name].add(UNIQUE_KEYS[name](args))
        elif name == "linalg.kernel_basis":
            self.kernel_cells += args[0].rows * args[0].cols
        elif name == "incidence.equivalences":
            self.equivalences_found += len(result)
        elif name == "moduli.connectivity_certificate":
            self.certificates += result is not None

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observed = name in OBSERVED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observed:
                tracer._observe(name, args, result)
            return result

        return traced

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "coniclines" or key.startswith("coniclines.")
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"coniclines.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._rebind(ns, key, wrapped)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, FunctionType) and not inspect.isgeneratorfunction(value):
                self._rebind(cls, attr, self._wrap(value, name))
            elif isinstance(value, (classmethod, staticmethod)):
                self._rebind(cls, attr, type(value)(self._wrap(value.__func__, name)))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Calls and self time per span name and per layer for the spans recorded."""
        n = len(self.span_name)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        by_name = {
            self.names[k]: {"calls": calls[k], "self_ms": self_s[k] * 1e3}
            for k in range(len(self.names))
            if calls[k]
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, rec in by_name.items():
            if name != JOB:
                layers[name.split(".", 1)[0]] += rec["self_ms"]
        roots = [i for i in range(n) if parents[i] < 0]
        # layer self time per job label, each span charged to its root's label
        label_of = dict(zip(roots, self.job_labels))
        root_of = [0] * n
        by_label: dict[str, dict[str, float]] = {}
        for i in range(n):
            root_of[i] = i if parents[i] < 0 else root_of[parents[i]]
            if parents[i] >= 0:
                layer = self.names[names[i]].split(".", 1)[0]
                per_layer = by_label.setdefault(label_of[root_of[i]], dict.fromkeys(LAYERS, 0.0))
                per_layer[layer] += (ends[i] - starts[i] - child[i]) * 1e3
        job_ms = sum(ends[i] - starts[i] for i in roots) * 1e3
        return {
            "spans": n,
            "by_name": by_name,
            "layer_self_ms": layers,
            "layer_self_ms_by_label": by_label,
            "job_ms": job_ms,
            "unaccounted_ms": by_name.get(JOB, {"self_ms": 0.0})["self_ms"],
            "unaccounted_max_job_ratio": max(
                ((ends[i] - starts[i] - child[i]) / (ends[i] - starts[i]) for i in roots),
                default=0.0,
            ),
            "intersections": sum(
                by_name.get(k, {"calls": 0})["calls"]
                for k in ("incidence.intersect_lines", "incidence.intersect_line_conic")
            ),
            "unique": dict(self.unique),
            "kernel_cells": self.kernel_cells,
            "equivalences_found": self.equivalences_found,
            "certificates": self.certificates,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t{(self.span_end[i] - t0) * 1e6:.1f}\n"
                )

"""Spans around splitxray's public functions, recorded from the benchmark.

Tracer.installed() wraps every function in TARGETS at each splitxray module
that binds it (``inversion`` imports ``xray_transform`` by name, the
package re-exports most functions) and the methods on their class, then
restores the originals.  Spans are kept in memory as parallel arrays of
start, end, name and parent, and written out with save().
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np
from splitxray import penrose, xray
from stats import self_times


def _suite_span_name(config, *args, **kwargs):
    return f"cli.{config.get('command')}"


# (module, attribute or Class.method, span name or a function of the call's
# arguments giving it)
TARGETS = [
    ("cli", "run", _suite_span_name),
    ("cli", "_validate_config", "cli.validate"),
    ("operators", "john_operator", "operators.john_operator"),
    ("operators", "dn_residual", "operators.dn_residual"),
    ("xray", "xray_transform", "xray.xray_transform"),
    ("xray", "xray_moments", "xray.xray_moments"),
    ("geometry", "Frame.__init__", "geometry.Frame"),
    ("geometry", "plane_from_chart", "geometry.plane_from_chart"),
    ("poly", "Poly4.__call__", "poly.Poly4.call"),
    ("fields", "HomogeneousFunction.__call__", "fields.HomogeneousFunction.call"),
    ("fields", "harmonic_basis", "fields.harmonic_basis"),
    ("inversion", "design_matrix", "inversion.design_matrix"),
    ("inversion", "injectivity_report", "inversion.injectivity_report"),
    ("penrose", "pole_safety", "penrose.pole_safety"),
    ("penrose", "contour_transform", "penrose.contour_transform"),
    ("penrose", "normalized_pole_margin", "penrose.normalized_pole_margin"),
    ("penrose", "factor_orientation", "penrose.factor_orientation"),
    ("instanton", "selfdual_residual", "instanton.selfdual_residual"),
]

# Layers reported as calls and self time.
TIMED_LAYERS = [
    "operators.john_operator", "operators.dn_residual",
    "xray.xray_transform", "xray.xray_moments",
    "geometry.Frame", "geometry.plane_from_chart",
    "poly.Poly4.call", "fields.HomogeneousFunction.call",
    "fields.harmonic_basis", "inversion.design_matrix",
    "penrose.pole_safety", "penrose.contour_transform",
    "penrose.normalized_pole_margin", "instanton.selfdual_residual",
]


def per_layer_units(suites):
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"cli.{s}_s": "s" for s in suites}
    units["cli.validate_s"] = "s"
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "xray.integrand_points": "count",
        "inversion.design_matrix.entries": "count",
        "inversion.injectivity_report.self_s": "s",
        "penrose.contour_transform.accepted": "count",
        "penrose.contour_transform.refused": "count",
        "penrose.refused_share": "share",
        "penrose.factor_orientation.calls": "count",
        "bench.self_s": "s",
        "trace.pass_s": "s",
        "trace.overhead_s": "s",
        "plain.pass_s": "s",
        "plain.wall_s": "s",
    })
    return units


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.counts = Counter()
        self._stack = []
        self.clear()

    def clear(self):
        """Drop recorded spans and counts; the name table stays."""
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.counts.clear()

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def spans(self):
        """(start, end, parent) of every recorded span."""
        return list(zip(self.start, self.end, self.parent))

    def layer_totals(self):
        """Span name -> (calls, self seconds, inclusive seconds)."""
        own = self_times(self.spans())
        totals = {}
        for i, nid in enumerate(self.name):
            calls, self_s, total_s = totals.get(self.names[nid], (0, 0.0, 0.0))
            totals[self.names[nid]] = (calls + 1, self_s + own[i],
                                       total_s + self.end[i] - self.start[i])
        return totals

    def save(self, path):
        np.savez_compressed(path, start=self.start, end=self.end,
                            name=self.name, parent=self.parent,
                            names=np.array(self.names))

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name(*args, **kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                if hook:
                    hook(tracer.counts, args, kwargs, None, exc)
                raise
            tracer.close(idx)
            if hook:
                hook(tracer.counts, args, kwargs, out, None)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap TARGETS for the duration of the block."""
        undo = []
        targets = [(importlib.import_module(f"splitxray.{modname}"), attr, name)
                   for modname, attr, name in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "splitxray" or n.startswith("splitxray.")]
        try:
            for module, attr, name in targets:
                hook = _HOOKS.get(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, name, hook))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, name, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def layer_metrics(self, suites):
        """Per-layer metrics of the spans recorded so far (without the
        trace.* entries, which need the untraced run)."""
        totals = self.layer_totals()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def total_s(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        out = {f"cli.{s}_s": total_s(f"cli.{s}") for s in suites}
        out["cli.validate_s"] = total_s("cli.validate")
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.self_s"] = self_s(layer)
        accepted = self.counts["penrose.contour_transform.accepted"]
        refused = self.counts["penrose.contour_transform.refused"]
        out.update({
            "xray.integrand_points": self.counts["xray.integrand_points"],
            "inversion.design_matrix.entries":
                self.counts["inversion.design_matrix.entries"],
            "inversion.injectivity_report.self_s":
                self_s("inversion.injectivity_report"),
            "penrose.contour_transform.accepted": accepted,
            "penrose.contour_transform.refused": refused,
            "penrose.refused_share":
                refused / (accepted + refused) if accepted + refused else 0.0,
            "penrose.factor_orientation.calls":
                calls("penrose.factor_orientation"),
            "bench.self_s": sum(self_s(n) for n in totals
                                if n.startswith("bench.")),
        })
        return out


def _count_nodes(index):
    """Hook adding the quadrature node count of each call, the number of
    points at which the integrand is evaluated; q defaults to
    QuadratureSpec()."""
    def hook(counts, args, kwargs, out, exc):
        q = args[index] if len(args) > index else kwargs.get("q")
        counts["xray.integrand_points"] += (q or xray.QuadratureSpec()).n_nodes
    return hook


def _count_entries(counts, args, kwargs, out, exc):
    if out is not None:
        counts["inversion.design_matrix.entries"] += out.matrix.size


def _count_contour(counts, args, kwargs, out, exc):
    if exc is None:
        counts["penrose.contour_transform.accepted"] += 1
    elif isinstance(exc, penrose.PoleProximityError):
        counts["penrose.contour_transform.refused"] += 1


_HOOKS = {
    "xray.xray_transform": _count_nodes(2),
    "xray.xray_moments": _count_nodes(3),
    "inversion.design_matrix": _count_entries,
    "penrose.contour_transform": _count_contour,
}

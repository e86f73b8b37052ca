"""Per-layer tracing by wrapping tidalbundle's public functions from outside.

Each wrapped function is replaced at every module attribute that holds it
(``connection.field_frame`` is also bound in ``verify``, ``curvature`` and
``dynamics``), and ``MetricField.pack`` / ``PotentialField.pack`` on their
classes.  Nothing under ``src/`` changes: the wrappers are installed for a
traced pass and removed afterwards, so untraced passes run the original
code.

A span is ``(name, start_ns, end_ns, parent_index)`` kept in a list in
memory.  Spans only record while ``recording`` is true, which the harness
sets around the timed operation, so gate checks leave no spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of each wrapped function, and the span name it gets.
# The module named first owns the function; the wrapper is installed at
# every tidalbundle module attribute bound to the same object.
FUNCTIONS = (
    ("fields", "christoffel", "fields.christoffel"),
    ("fields", "base_riemann", "fields.base_riemann"),
    ("jets", "jeinsum", "jets.jeinsum"),
    ("connection", "field_frame", "connection.field_frame"),
    ("connection", "fiber_parts", None),   # split by fiber argument type
    ("connection", "phase_context", "connection.phase_context"),
    ("connection", "strong_torsion", "connection.strong_torsion"),
    ("connection", "d_covariant_derivative", "connection.d_covariant_derivative"),
    ("connection", "connection_data", "connection.connection_data"),
    ("curvature", "trace_decomposition", "curvature.trace_decomposition"),
    ("curvature", "tidal_packet", "curvature.tidal_packet"),
    ("dynamics", "worldline_rhs", "dynamics.worldline_rhs"),
    ("dynamics", "integrate_worldline", "dynamics.integrate_worldline"),
    ("dynamics", "integrate_deviation_tidal", "dynamics.integrate_deviation_tidal"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "sample_phase_points", "verify.sample_phase_points"),
    ("verify", "report_json", "verify.report_json"),
    ("scenario", "builtin_scenario", "scenario.resolve"),
)

# MetricField.pack and PotentialField.pack share one span name.
METHODS = (
    ("fields", "MetricField", "pack", "fields.pack"),
    ("fields", "PotentialField", "pack", "fields.pack"),
)

INTEGRATORS = ("dynamics.integrate_worldline", "dynamics.integrate_deviation_tidal")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.base_points = set()
        self.recording = False
        self._undo = []

    # ---- installation -------------------------------------------------

    def install(self):
        pkg = {name[len("tidalbundle."):]: mod for name, mod in sys.modules.items()
               if name.startswith("tidalbundle.")}
        pkg[""] = sys.modules["tidalbundle"]
        jet_type = pkg["jets"].Jet
        for owner, attr, span in FUNCTIONS:
            original = getattr(pkg[owner], attr)
            if attr == "fiber_parts":
                wrapper = self._fiber_parts_wrapper(original, jet_type)
            elif attr == "field_frame":
                wrapper = self._field_frame_wrapper(original)
            else:
                wrapper = self._wrapper(span, original)
            for mod in pkg.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))
        for owner, cls_name, attr, span in METHODS:
            cls = getattr(pkg[owner], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(span, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # ---- wrappers -----------------------------------------------------

    def _call(self, span, fn, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (span, start, end, parent)

    def _wrapper(self, span, fn):
        def traced(*args, **kwargs):
            return self._call(span, fn, args, kwargs)
        return traced

    def _fiber_parts_wrapper(self, fn, jet_type):
        def traced(frame, alpha, y, *args, **kwargs):
            span = ("connection.fiber_parts_jet" if isinstance(y, jet_type)
                    else "connection.fiber_parts_plain")
            return self._call(span, fn, (frame, alpha, y) + args, kwargs)
        return traced

    def _field_frame_wrapper(self, fn):
        def traced(metric, potential, x, *args, **kwargs):
            if self.recording:
                self.base_points.add(np.asarray(x, dtype=float).tobytes())
            return self._call("connection.field_frame", fn,
                              (metric, potential, x) + args, kwargs)
        return traced

    # ---- aggregation --------------------------------------------------

    def reset(self):
        self.spans = []
        self.stack = []
        self.base_points = set()

    def summary(self):
        """Per span name: calls, total ns and self ns; plus the integrator split.

        Self time is a span's duration minus the durations of its direct
        children (children never overlap: the run has one thread).
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        rhs_ns = [0] * len(spans)     # per integrator span: time in its RHS
        rhs_calls = 0
        for name, start, end, parent in spans:
            if parent < 0:
                continue
            dur = end - start
            child_ns[parent] += dur
            pname = spans[parent][0]
            if pname == "dynamics.integrate_worldline":
                if name == "dynamics.worldline_rhs":
                    rhs_ns[parent] += dur
                    rhs_calls += 1
            elif pname == "dynamics.integrate_deviation_tidal":
                # the deviation RHS is a closure that makes one field_frame
                # and one plain fiber_parts call per evaluation
                if name in ("connection.field_frame", "connection.fiber_parts_plain"):
                    rhs_ns[parent] += dur
                if name == "connection.fiber_parts_plain":
                    rhs_calls += 1
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        driver_ns = 0
        trajectories = 0
        for i, (name, start, end, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - child_ns[i]
            if name in INTEGRATORS:
                driver_ns += dur - rhs_ns[i]
                trajectories += 1
        return {"calls": dict(calls), "total_ns": dict(total),
                "self_ns": dict(self_ns), "driver_ns": driver_ns,
                "rhs_calls": rhs_calls, "trajectories": trajectories,
                "base_points": len(self.base_points)}

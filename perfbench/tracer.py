"""Span tracing of fleetcharge's public functions, installed from outside.

Every layer is a public function of one fleetcharge module.  ``Tracer.install``
replaces that function, in every fleetcharge module that imported it by name,
with a wrapper that records one span per call: layer, start, end, the span
that was open when the call began (its parent) and the id of the event being
handled.  Spans live in compact in-memory arrays and are written out once, at
the end of the run.  Self time is derived from the spans: a span's duration
minus the durations of its direct children.

The event id advances after each reschedule returns, so the admission check,
the slot ledger and the solve that one arrival or departure causes share an id.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from contextlib import contextmanager

# (layer name, module, attribute).  The layer name is "<module>.<function>".
LAYERS = [
    ("solver.solve", "fleetcharge.solver", "solve"),
    ("solver.feasibility_check", "fleetcharge.solver", "feasibility_check"),
    ("solver.single_objective_minimizer", "fleetcharge.solver",
     "single_objective_minimizer"),
    ("problem.compute_normalization_points", "fleetcharge.problem",
     "compute_normalization_points"),
    ("problem.objective_components", "fleetcharge.problem", "objective_components"),
    ("problem.build_instance", "fleetcharge.problem", "build_instance"),
    ("problem.build_constraints", "fleetcharge.problem", "build_constraints"),
    ("scheduler.proposed_schedule", "fleetcharge.scheduler", "proposed_schedule"),
    ("scheduler.admit_task", "fleetcharge.scheduler", "admit_task"),
    ("scheduler.baseline_schedule", "fleetcharge.scheduler", "baseline_schedule"),
    ("scheduler.apply_slot", "fleetcharge.scheduler", "apply_slot"),
    ("fade.cyclic_fade_exact", "fleetcharge.fade", "cyclic_fade_exact"),
    ("fade.cyclic_fade_approx", "fleetcharge.fade", "cyclic_fade_approx"),
    ("simulator.run", "fleetcharge.simulator", "run"),
    ("ingest.parse_sessions", "fleetcharge.ingest", "parse_sessions"),
    ("ingest.sessions_to_events", "fleetcharge.ingest", "sessions_to_events"),
    ("ingest.parse_prices", "fleetcharge.ingest", "parse_prices"),
    ("cli.main", "fleetcharge.cli", "main"),
]
LAYER_NAMES = [name for name, _, _ in LAYERS]
RESCHEDULE_LAYERS = {"scheduler.proposed_schedule", "scheduler.baseline_schedule"}


class Tracer:
    """Records spans while installed and active; a pass-through otherwise."""

    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.event = array("i")
        self.active = False
        self.event_id = 0
        self._stack = []
        self._patches = []       # (module, attribute, original)
        self.solve_iterations = 0
        self.solve_converged = 0
        self.admit_accepted = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "fleetcharge" or name.startswith("fleetcharge.")]
        for layer_id, (name, module_name, attr) in enumerate(LAYERS):
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer_id, name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        """Let the benchmark's own checks call layers without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, layer_id: int, name: str, fn):
        on_result = {
            "solver.solve": self._on_solve,
            "scheduler.admit_task": self._on_admit,
        }.get(name)
        reschedule = name in RESCHEDULE_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.event.append(self.event_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            if reschedule:
                self.event_id += 1
            return result

        return traced

    def _on_solve(self, result):
        _, rep = result
        self.solve_iterations += rep.iterations
        self.solve_converged += rep.status == "optimal-local"

    def _on_admit(self, admission):
        self.admit_accepted += bool(admission.accepted)

    # -- analysis -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: calls, busy seconds, self seconds and longest call."""
        n = len(LAYERS)
        count = [0] * n
        busy = [0.0] * n
        child = [0.0] * len(self.layer)
        longest = [0.0] * n
        for i in range(len(self.layer)):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
        selfs = [0.0] * n
        for i in range(len(self.layer)):
            k = self.layer[i]
            dur = self.end[i] - self.start[i]
            count[k] += 1
            busy[k] += dur
            selfs[k] += dur - child[i]
            longest[k] = max(longest[k], dur)
        return {
            LAYER_NAMES[k]: {"count": count[k], "busy_s": busy[k],
                             "self_s": selfs[k], "max_s": longest[k]}
            for k in range(n)
        }

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "layer", "start_s", "end_s", "parent", "event"])
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.layer)):
                writer.writerow([i, LAYER_NAMES[self.layer[i]],
                                 f"{self.start[i] - t0:.9f}",
                                 f"{self.end[i] - t0:.9f}",
                                 self.parent[i], self.event[i]])

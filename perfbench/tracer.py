"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: each public function of a layer
is wrapped at the module attribute its callers read, for the duration of one
traced invocation, and the original is put back afterwards. The program's
source is not touched.

A span is (name, invocation, parent span, start, end). Spans live in flat
arrays in memory and are written out once, at the end of the run.
"""

import functools
import importlib
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (owner, attribute, span name). ``from .x import f`` binds f into the
# importing module, so a function is wrapped at every module that calls it:
# patching only its defining module would time nothing. ``module:Class``
# wraps a method on the class, which covers every call site at once.
TARGETS = (
    ("memgrid.cli", "main", "cli.main"),
    ("memgrid.cli", "parse_config", "config.parse"),
    ("memgrid.config", "parse_config", "config.parse"),
    ("memgrid.cli", "build_grid", "topology.build_grid"),
    ("memgrid.experiments", "build_grid", "topology.build_grid"),
    ("memgrid.topology", "build_grid", "topology.build_grid"),
    ("memgrid.solver:NodalStamper", "__init__", "solver.init"),
    ("memgrid.solver:NodalStamper", "build_system", "solver.stamp"),
    ("memgrid.solver:NodalStamper", "solve_raw", "solver.solve"),
    ("memgrid.measure", "effective_resistance", "solver.effective_resistance"),
    ("memgrid.engine", "step_resistance", "device.step"),
    ("memgrid.experiments", "step_resistance", "device.step"),
    ("memgrid.cli", "simulate", "engine.simulate"),
    ("memgrid.experiments", "simulate", "engine.simulate"),
    ("memgrid.engine", "simulate", "engine.simulate"),
    ("memgrid.engine:Trace", "to_csv", "engine.to_csv"),
    ("memgrid.cli", "remnant_series", "measure.remnant"),
    ("memgrid.experiments", "remnant_series", "measure.remnant"),
    ("memgrid.measure", "remnant_series", "measure.remnant"),
    ("memgrid.cli", "remnant_to_csv", "measure.csv"),
    ("memgrid.cli", "map_to_csv", "measure.csv"),
    ("memgrid.cli", "run_single_device", "experiments.single_device"),
    ("memgrid.cli", "run_sensitization", "experiments.sensitization"),
    ("memgrid.experiments", "run_uniform_array", "experiments.raster_run"),
    ("memgrid.experiments", "_raster_job", "experiments.raster_run"),
    ("memgrid.cli", "sensitization_to_csv", "experiments.csv"),
    ("memgrid.cli", "flags_to_csv", "experiments.csv"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def wrapped(targets, make):
    """For the duration, replace each ``(owner, attribute, ...)`` target with
    ``make(original, target)``; ``owner`` is ``module`` or ``module:Class``."""
    saved = []
    try:
        for target in targets:
            obj, attr = _resolve(target[0]), target[1]
            original = getattr(obj, attr)
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original, target))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


class Tracer:
    """In-memory span store plus the counters read off traced results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.invocation = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current = -1
        self.invocations = 0
        self.counters = {
            "engine_steps": 0, "single_device_steps": 0,
            "device_steps": 0, "device_moved": 0,
            "trace_bytes_max": 0, "fit_samples_min": math.inf,
        }

    def _wrap(self, span: str, fn, on_result):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, invs, parents = self.name, self.invocation, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            invs.append(self._current)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextmanager
    def active(self):
        """Wrap every target for the duration of one traced invocation."""
        hooks = {
            "engine.simulate": self._on_trace,
            "experiments.single_device": self._on_single_device,
            "measure.remnant": self._on_remnants,
        }
        with wrapped(TARGETS, lambda fn, t: self._wrap(t[2], fn, hooks.get(t[2]))):
            self._current = self.invocations
            try:
                yield
            finally:
                self._current = -1
                self.invocations += 1

    def _on_trace(self, trace, single=False):
        c = self.counters
        steps = len(trace.t)
        c["single_device_steps" if single else "engine_steps"] += steps
        c["device_steps"] += (steps - 1) * trace.x.shape[1]
        c["device_moved"] += int(np.count_nonzero(np.diff(trace.x, axis=0)))
        nbytes = sum(a.nbytes for a in (trace.t, trace.v_src, trace.i_src, trace.v_m, trace.x))
        c["trace_bytes_max"] = max(c["trace_bytes_max"], nbytes)

    def _on_single_device(self, run):
        self._on_trace(run.trace, single=True)

    def _on_remnants(self, points):
        fitted = [p.n_samples for p in points if p.crossing_index > 0]
        self.counters["fit_samples_min"] = min([self.counters["fit_samples_min"], *fitted])

    def spans(self) -> dict:
        """Flat span arrays plus per-span self time (duration minus the part
        covered by its direct children)."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32),
            "parent": parent,
            "start": start,
            "duration": dur,
            "self": dur - covered,
        }

    def layer_totals(self) -> dict:
        """Per span name: (calls, total seconds, self seconds)."""
        s = self.spans()
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        total = np.bincount(s["name"], weights=s["duration"], minlength=k)
        own = np.bincount(s["name"], weights=s["self"], minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def per_layer(self) -> dict:
        """The per-layer metrics, averaged over the traced invocations."""
        totals = self.layer_totals()
        n = max(self.invocations, 1)
        c = self.counters

        def calls(span):
            return totals.get(span, (0, 0.0, 0.0))[0]

        def seconds(span, own=False):
            return totals.get(span, (0, 0.0, 0.0))[2 if own else 1]

        def per(num, den, scale=1e6):
            return num / den * scale if den else 0.0

        steps = c["engine_steps"]
        return {
            "config.parse_s": seconds("config.parse") / n,
            "topology.build_grid_s": seconds("topology.build_grid") / n,
            "solver.init_s": seconds("solver.init") / n,
            "solver.stamp_us": per(seconds("solver.stamp"), calls("solver.stamp")),
            "solver.solve_us": per(seconds("solver.solve", own=True), calls("solver.solve")),
            "solver.calls": calls("solver.solve") / n,
            "device.step_us": per(seconds("device.step"), calls("device.step")),
            "device.moved_frac": per(c["device_moved"], c["device_steps"], scale=1.0),
            "engine.step_us": per(seconds("engine.simulate"), steps),
            "engine.self_us": per(seconds("engine.simulate", own=True), steps),
            "engine.steps": steps / n,
            "engine.trace_mb": c["trace_bytes_max"] / 1e6,
            "engine.to_csv_s": seconds("engine.to_csv") / n,
            "measure.remnant_s": seconds("measure.remnant") / n,
            "measure.csv_s": seconds("measure.csv") / n,
            "measure.thevenin_calls": calls("solver.effective_resistance") / n,
            "measure.fit_samples_min": 0 if math.isinf(c["fit_samples_min"])
                                       else c["fit_samples_min"],
            "experiments.single_device_us": per(seconds("experiments.single_device"),
                                                c["single_device_steps"]),
            "experiments.raster_runs": calls("experiments.raster_run") / n,
        }

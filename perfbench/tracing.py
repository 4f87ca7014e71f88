"""Outside-in layer tracing for the lmmpf benchmark.

Nothing under ``src/`` is edited. The tracer replaces public names at the
module boundaries where callers resolve them (module globals, or methods on
a class) with timing wrappers, and puts every original back on ``close()``.
Spans live in memory as ``[name, start, end, parent, run_id]`` and are
written out once, at the end of the benchmark.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children. Work the tracer does to read counts
out of results runs inside a ``trace.observe`` child span, so it is charged
to the tracer and not to the layer being observed.
"""

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

OBSERVE_SPAN = "trace.observe"


def _rows(tracer, args, kwargs, result):
    tracer.counts["ode_models.rhs_rows"] += len(result)


def _ancestors(tracer, args, kwargs, result):
    idx = np.asarray(result)
    tracer.samples["particle_filter.unique_ancestor_frac"].append(
        np.unique(idx).size / max(idx.size, 1)
    )


def _ess(tracer, args, kwargs, result):
    w = np.asarray(result.weights)
    tracer.samples["particle_filter.ess_frac"].append(1.0 / (w.size * float(np.sum(w * w))))


def _retained(tracer, args, kwargs, result):
    seen = {}
    for ens in result:
        for arr in vars(ens).values():
            if isinstance(arr, np.ndarray):
                seen[id(arr)] = arr.nbytes
    tracer.samples["particle_filter.retained_mb"].append(sum(seen.values()) / 2**20)


def _emitted(tracer, args, kwargs, result):
    tracer.counts["experiment.emit_bytes"] += sum(os.path.getsize(p) for p in result)


class Target(NamedTuple):
    """A public name to wrap: ``path`` inside ``module``, as callers resolve it.

    ``observe(tracer, args, kwargs, result)`` reads counts out of each call.
    It runs in a ``trace.observe`` span unless ``inline``, which is for
    observers as cheap as the span bookkeeping itself.
    """

    module: str
    path: str
    span: str
    observe: Optional[Callable] = None
    inline: bool = False


TARGETS = (
    Target("lmmpf.ode_models", "OdeSystem.rhs_batch", "ode_models.rhs", _rows, inline=True),
    Target("lmmpf.experiment", "synthesize_observations", "ode_models.synthesize"),
    Target("lmmpf.integrators", "implicit_step_batch", "integrators.implicit"),
    Target("lmmpf.particle_filter", "startup_states_batch", "integrators.startup"),
    Target("lmmpf.particle_filter", "propagate_ensemble", "homec.propagate"),
    Target(
        "lmmpf.state_space", "EvolutionObservationModel.log_likelihood_batch", "state_space.loglik"
    ),
    Target("lmmpf.particle_filter", "inverse_cdf_indices", "kernels.inverse_cdf", _ancestors),
    Target("lmmpf.particle_filter", "initialize", "particle_filter.init"),
    Target("lmmpf.particle_filter", "survival_of_the_fittest", "particle_filter.resample"),
    Target("lmmpf.particle_filter", "innovation_step", "particle_filter.innovation"),
    Target("lmmpf.particle_filter", "weight_update", "particle_filter.reweight", _ess),
    Target("lmmpf.particle_filter", "run_filter", "particle_filter.loop", _retained),
    Target("lmmpf.experiment", "run_filter", "particle_filter.loop", _retained),
    Target("lmmpf.metrics", "diagnostics", "metrics.diagnostics"),
    Target("lmmpf.experiment", "diagnostics", "metrics.diagnostics"),
    Target("lmmpf.experiment", "run_replicate", "experiment.replicate"),
    Target("lmmpf.experiment", "emit_outputs", "experiment.emit", _emitted),
)

# Per-layer metric -> (unit, how it is computed). Self times and call counts
# come from the named span; the rest from counts or samples the observers take.
# Times and counts are per traced filter run.
LAYER_METRICS = {
    "ode_models.rhs_s": ("s", ("self", "ode_models.rhs")),
    "ode_models.rhs_calls": ("count", ("calls", "ode_models.rhs")),
    "ode_models.rhs_rows": ("count", ("count", "ode_models.rhs")),
    "ode_models.synthesize_s": ("s", ("self", "ode_models.synthesize")),
    "integrators.implicit_s": ("s", ("self", "integrators.implicit")),
    "integrators.implicit_rhs_calls": ("count", ("nested", "integrators.implicit")),
    "integrators.startup_s": ("s", ("self", "integrators.startup")),
    "homec.propagate_s": ("s", ("self", "homec.propagate")),
    "homec.propagate_calls": ("count", ("calls", "homec.propagate")),
    "state_space.loglik_s": ("s", ("self", "state_space.loglik")),
    "state_space.loglik_calls": ("count", ("calls", "state_space.loglik")),
    "kernels.inverse_cdf_s": ("s", ("self", "kernels.inverse_cdf")),
    "particle_filter.resample_s": ("s", ("self", "particle_filter.resample")),
    "particle_filter.innovation_s": ("s", ("self", "particle_filter.innovation")),
    "particle_filter.reweight_s": ("s", ("self", "particle_filter.reweight")),
    "particle_filter.init_s": ("s", ("self", "particle_filter.init")),
    "particle_filter.loop_s": ("s", ("self", "particle_filter.loop")),
    "particle_filter.unique_ancestor_frac": ("1", ("mean", "kernels.inverse_cdf")),
    "particle_filter.ess_frac": ("1", ("mean", "particle_filter.reweight")),
    "particle_filter.retained_mb": ("MiB", ("mean", "particle_filter.loop")),
    "metrics.diagnostics_s": ("s", ("self", "metrics.diagnostics")),
    "experiment.overhead_s": ("s", ("self", "experiment.replicate")),
    "experiment.emit_s": ("s", ("self", "experiment.emit")),
    "experiment.emit_bytes": ("B", ("count", "experiment.emit")),
}


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    """Records spans around the public names in ``targets``; a context manager."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.run_id = -1
        self._stack = []
        self._restore = []
        present = set()
        for target in targets:
            found = _resolve(target.module, target.path)
            if found is None:
                continue
            owner, attr = found
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, target))
            self._restore.append((owner, attr, original))
            present.add(target.span)
        self.missing = {t.span for t in targets} - present

    def close(self):
        """Put every wrapped name back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, target):
        name, observe, inline = target.span, target.observe, target.inline
        clock, stack, tracer = time.perf_counter, self._stack, self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is None:
                return result
            if inline:
                observe(tracer, args, kwargs, result)
                return result
            inner = tracer._open(OBSERVE_SPAN)
            inner[1] = clock()
            try:
                observe(tracer, args, kwargs, result)
            finally:
                inner[2] = clock()
                stack.pop()
            return result

        return functools.wraps(fn)(traced)

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span of its own run id."""
        self.run_id += 1
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ reduction

    def self_times(self):
        """Self time summed by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def call_counts(self):
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def nested_rhs_calls(self, outer):
        """Number of ``ode_models.rhs`` spans that have an ``outer`` ancestor."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                inside[i] = inside[parent] or self.spans[parent][0] == outer
            if name == "ode_models.rhs" and inside[i]:
                total += 1
        return total

    def layer_metrics(self, n_runs):
        """Every metric of ``LAYER_METRICS``; times and counts per run."""
        selfs = self.self_times()
        calls = self.call_counts()
        out = {}
        for metric, (unit, (kind, span)) in LAYER_METRICS.items():
            if span in self.missing:
                out[metric] = {"value": 0.0, "unit": unit, "missing": True}
                continue
            if kind == "self":
                value = selfs.get(span, 0.0) / n_runs
            elif kind == "calls":
                value = calls.get(span, 0) / n_runs
            elif kind == "count":
                value = self.counts[metric] / n_runs
            elif kind == "nested":
                value = self.nested_rhs_calls(span) / n_runs
            else:
                values = self.samples[metric]
                value = float(np.mean(values)) if values else 0.0
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def write_spans(self, path):
        """One JSON line per span: [name, start_us, end_us, parent, run_id].

        Times are microseconds from the first span's start; parent is the
        line index (0-based) of the enclosing span, -1 for a root.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                start_us = round((start - origin) * 1e6, 1)
                end_us = round((end - origin) * 1e6, 1)
                fh.write(json.dumps([name, start_us, end_us, parent, run_id]) + "\n")
        return path

"""Per-layer spans and counters for the benchmark's traced runs (--trace 1).

Wrappers are installed from this file around the package's public callables,
at the attribute their callers look up: ``pipeline`` reaches the Fock and
Wigner engines through module attributes (``fk.loss_on_branch``), but it
imports ``concurrence_xstate`` and ``success_probability`` by name, so those
two are wrapped on ``micromacro.pipeline``.  The wrappers are removed again
after every traced pass, so untraced passes run the package unmodified.

A span's self time is its duration minus the durations of the spans it
contains.  The self times of all spans, plus the benchmark's own code outside
every span (``trace.glue_s``), add up to the traced wall time.

A target whose public name no longer exists is skipped, and the metrics only
it feeds are reported as absent; so are those of a counter that fails on a
changed argument or result type.  An API cleanup does not stop the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.top_s = 0.0
        self.broken: set = set()  # targets whose counter hook failed
        self._stack: list[float] = []

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            children = self._stack.pop()
            self.total_s[name] += dt
            self.self_s[name] += dt - children
            if self._stack:
                self._stack[-1] += dt
            else:
                self.top_s += dt

    def note_time(self, name: str, seconds: float) -> None:
        """Record an inclusive timing taken by the benchmark itself (no span)."""
        self.total_s[name] += seconds


# ---------------------------------------------------------------------------
# hooks: counters read from arguments and results, never from private state
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _squeeze_span(args, kwargs):
    sign = _arg(args, kwargs, 2, "sign", +1)
    return "fock.squeeze" if sign == +1 else "fock.unsqueeze"


def _count_columns(tracer, args, kwargs, result):
    prop, cols = args[0], _arg(args, kwargs, 1, "cols")
    n_cols = cols.shape[1] if getattr(cols, "ndim", 1) == 2 else 1
    tracer.counts["fock.propagated_columns"] += n_cols
    # computed from shapes, not measured: per parity sector of length m, two
    # dense (m, m) @ (m, n_cols) complex products at 8 real flops per
    # multiply-add
    n_max = getattr(prop, "n_max", None)
    if n_max is not None:
        m_even, m_odd = n_max // 2 + 1, (n_max + 1) // 2
        flops = 2 * 8 * (m_even**2 + m_odd**2) * n_cols
        tracer.counts["fock.squeeze_gflop"] += flops / 1e9


def _count(key, amount=1.0):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += amount

    return hook


def _count_len(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += len(result)

    return hook


def _track_n_max(tracer, args, kwargs, result):
    tracer.maxima["fock.n_max"] = max(tracer.maxima["fock.n_max"], float(result))


def _count_prune(tracer, args, kwargs, result):
    tracer.counts["fock.prune_offered"] += len(_arg(args, kwargs, 0, "branches"))
    tracer.counts["fock.prune_kept"] += len(result[0])


def _count_sample(tracer, args, kwargs, result):
    tracer.counts["tomography.branches"] += len(_arg(args, kwargs, 0, "state"))
    tracer.counts["tomography.samples"] += len(result)


def _count_csv(tracer, args, kwargs, result):
    tracer.counts["io.csv_bytes"] += len(result.encode("utf-8"))


@dataclass(frozen=True)
class Target:
    """One public callable to wrap, and the metrics that depend on it."""

    module: str
    attr: str  # "name" or "Class.name"
    span: str | Callable | None  # None: count only, no span
    metrics: tuple[str, ...]
    hook: Callable | None = None


TARGETS = (
    Target("micromacro.fock", "choose_n_max", "fock.choose_n_max",
           ("fock.choose_n_max_s", "fock.n_max"), _track_n_max),
    Target("micromacro.fock", "get_propagator", None,
           ("fock.propagator_requests",), _count("fock.propagator_requests")),
    Target("micromacro.fock", "SqueezePropagator.__init__", "fock.propagator_build",
           ("fock.propagator_build_s", "fock.propagator_builds"),
           _count("fock.propagator_builds")),
    Target("micromacro.fock", "SqueezePropagator.apply_columns", _squeeze_span,
           ("fock.squeeze_s", "fock.unsqueeze_s", "fock.propagated_columns",
            "fock.squeeze_gflop"), _count_columns),
    Target("micromacro.fock", "loss_on_branch", "fock.loss_expand",
           ("fock.loss_expand_s", "fock.kraus_branches"),
           _count_len("fock.kraus_branches")),
    Target("micromacro.fock", "loss_on_spectator", "fock.loss_expand",
           ("fock.loss_expand_s", "fock.kraus_branches"),
           _count_len("fock.kraus_branches")),
    Target("micromacro.fock", "prune_branches", "fock.prune",
           ("fock.prune_s", "fock.prune_kept_ratio"), _count_prune),
    Target("micromacro.fock", "project_through_loss", "fock.project",
           ("fock.project_s",)),
    Target("micromacro.fock", "branches_to_projected", "fock.project",
           ("fock.project_s",)),
    Target("micromacro.wigner", "initial_wigner", "wigner.initial",
           ("wigner.initial_s",)),
    Target("micromacro.wigner", "squeeze_rescale", "wigner.rescale",
           ("wigner.rescale_s",)),
    Target("micromacro.wigner", "loss_convolve", "wigner.convolve",
           ("wigner.convolve_s",)),
    Target("micromacro.wigner", "extract_projected", "wigner.extract",
           ("wigner.extract_s",)),
    Target("micromacro.pipeline", "concurrence_xstate", "entanglement.concurrence",
           ("entanglement.concurrence_s",)),
    Target("micromacro.pipeline", "success_probability", "entanglement.success",
           ("entanglement.success_s",)),
    Target("micromacro.pipeline", "run", "pipeline.run",
           ("pipeline.run_s", "pipeline.self_s", "pipeline.points"),
           _count("pipeline.points")),
    Target("micromacro.pipeline", "sweep", "pipeline.sweep",
           ("pipeline.sweep_self_s",)),
    Target("micromacro.tomography", "sample", "tomography.sample",
           ("tomography.sample_s", "tomography.sample_self_s",
            "tomography.branches", "tomography.samples"), _count_sample),
    Target("micromacro.tomography", "hermite_functions", "tomography.hermite",
           ("tomography.hermite_s",)),
    Target("micromacro.tomography", "reconstruct", "tomography.reconstruct",
           ("tomography.reconstruct_s", "tomography.reconstruct_self_s")),
    Target("micromacro.tomography", "pattern_function", "tomography.pattern",
           ("tomography.pattern_s",)),
    Target("micromacro.tomography", "concurrence_with_uncertainty",
           "tomography.errorbar", ("tomography.errorbar_s",)),
    Target("micromacro.io", "ResultRow.from_result", "io.rows", ("io.rows_s",)),
    Target("micromacro.io", "result_rows_csv_text", "io.rows",
           ("io.rows_s", "io.csv_bytes"), _count_csv),
)


def _resolve(target: Target):
    """(owner, attribute name, raw attribute), or None if the name is gone."""
    try:
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, inspect.getattr_static(owner, name)
    except (ImportError, AttributeError):
        return None


def _wrapped(tracer: Tracer, target: Target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = target.span(args, kwargs) if callable(target.span) else target.span
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(span, fn, args, kwargs)
        if target.hook is not None and target not in tracer.broken:
            try:
                target.hook(tracer, args, kwargs, result)
            except Exception:  # noqa: BLE001 - an API change must not stop the run
                tracer.broken.add(target)
        return result

    return wrapper


class Installer:
    """Installs and removes the wrappers; remembers which targets are missing."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing = [t for t in TARGETS if _resolve(t) is None]
        self._saved: list[tuple] = []

    def __enter__(self):
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                continue
            owner, name, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrapped(self.tracer, target, raw.__func__))
            else:
                new = _wrapped(self.tracer, target, raw)
            setattr(owner, name, new)
            self._saved.append((owner, name, raw))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
        return False

    def absent_metrics(self) -> set[str]:
        """Metrics whose every feeding target is missing or has a failed hook."""
        lost = set(self.missing) | self.tracer.broken
        fed = {m for t in TARGETS if t not in lost for m in t.metrics}
        return {m for t in lost for m in t.metrics} - fed


#: per-layer metric -> (unit, better); every value is per traced unit of work
PER_LAYER = {
    "fock.choose_n_max_s": ("s", "lower"),
    "fock.n_max": ("count", "lower"),
    "fock.propagator_requests": ("count", "lower"),
    "fock.propagator_builds": ("count", "lower"),
    "fock.propagator_build_s": ("s", "lower"),
    "fock.squeeze_s": ("s", "lower"),
    "fock.unsqueeze_s": ("s", "lower"),
    "fock.propagated_columns": ("count", "lower"),
    "fock.squeeze_gflop": ("GFLOP_computed", "lower"),
    "fock.loss_expand_s": ("s", "lower"),
    "fock.kraus_branches": ("count", "lower"),
    "fock.prune_s": ("s", "lower"),
    "fock.prune_kept_ratio": ("ratio", "higher"),
    "fock.project_s": ("s", "lower"),
    "wigner.initial_s": ("s", "lower"),
    "wigner.rescale_s": ("s", "lower"),
    "wigner.convolve_s": ("s", "lower"),
    "wigner.extract_s": ("s", "lower"),
    "entanglement.concurrence_s": ("s", "lower"),
    "entanglement.success_s": ("s", "lower"),
    "pipeline.run_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.sweep_self_s": ("s", "lower"),
    "pipeline.points": ("count", "lower"),
    "tomography.state_s": ("s", "lower"),
    "tomography.sample_s": ("s", "lower"),
    "tomography.sample_self_s": ("s", "lower"),
    "tomography.hermite_s": ("s", "lower"),
    "tomography.reconstruct_s": ("s", "lower"),
    "tomography.reconstruct_self_s": ("s", "lower"),
    "tomography.pattern_s": ("s", "lower"),
    "tomography.errorbar_s": ("s", "lower"),
    "tomography.branches": ("count", "lower"),
    "tomography.samples": ("count", "lower"),
    "io.rows_s": ("s", "lower"),
    "io.csv_bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.glue_s": ("s", "lower"),
}

#: metric -> span whose self time it reports
_SELF = {
    "fock.choose_n_max_s": "fock.choose_n_max",
    "fock.propagator_build_s": "fock.propagator_build",
    "fock.squeeze_s": "fock.squeeze",
    "fock.unsqueeze_s": "fock.unsqueeze",
    "fock.loss_expand_s": "fock.loss_expand",
    "fock.prune_s": "fock.prune",
    "fock.project_s": "fock.project",
    "wigner.initial_s": "wigner.initial",
    "wigner.rescale_s": "wigner.rescale",
    "wigner.convolve_s": "wigner.convolve",
    "wigner.extract_s": "wigner.extract",
    "entanglement.concurrence_s": "entanglement.concurrence",
    "entanglement.success_s": "entanglement.success",
    "pipeline.self_s": "pipeline.run",
    "pipeline.sweep_self_s": "pipeline.sweep",
    "tomography.sample_self_s": "tomography.sample",
    "tomography.hermite_s": "tomography.hermite",
    "tomography.reconstruct_self_s": "tomography.reconstruct",
    "tomography.pattern_s": "tomography.pattern",
    "tomography.errorbar_s": "tomography.errorbar",
    "io.rows_s": "io.rows",
}

#: metric -> inclusive timing
_TOTAL = {
    "pipeline.run_s": "pipeline.run",
    "tomography.state_s": "tomography.state",
    "tomography.sample_s": "tomography.sample",
    "tomography.reconstruct_s": "tomography.reconstruct",
}

#: metric -> counter
_COUNTS = (
    "fock.propagator_requests",
    "fock.propagator_builds",
    "fock.propagated_columns",
    "fock.squeeze_gflop",
    "fock.kraus_branches",
    "pipeline.points",
    "tomography.branches",
    "tomography.samples",
    "io.csv_bytes",
)


def layer_metrics(tracer: Tracer, traced_wall: list[float],
                  untraced_wall: list[float], absent: set[str]) -> dict:
    """Per-layer values per traced unit of work (totals over the traced passes
    divided by their number), plus the tracing overhead: median traced pass
    against median untraced pass."""
    n = len(traced_wall)
    wall = sum(traced_wall) / n
    values = {name: tracer.self_s[span] / n for name, span in _SELF.items()}
    values.update({name: tracer.total_s[key] / n for name, key in _TOTAL.items()})
    values.update({name: tracer.counts[name] / n for name in _COUNTS})
    values["fock.n_max"] = tracer.maxima["fock.n_max"]
    offered = tracer.counts["fock.prune_offered"]
    # nothing offered to the pruner means nothing was wasted
    values["fock.prune_kept_ratio"] = (
        tracer.counts["fock.prune_kept"] / offered if offered else 1.0
    )
    values["trace.wall_s"] = wall
    values["trace.glue_s"] = wall - tracer.top_s / n
    if untraced_wall:
        base = statistics.median(untraced_wall)
        values["trace.untraced_wall_s"] = base
        values["trace.overhead_frac"] = statistics.median(traced_wall) / base - 1.0
    return {
        name: {"value": values[name], "unit": PER_LAYER[name][0]}
        for name in PER_LAYER
        if name in values and name not in absent
    }


def self_time_sum(tracer: Tracer, n_passes: int) -> float:
    """Sum of all spans' self times per traced pass (equals the time spent
    inside top-level spans)."""
    return sum(tracer.self_s.values()) / n_passes

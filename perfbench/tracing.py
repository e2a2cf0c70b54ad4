"""Layer spans recorded from outside the program.

A traced worker replaces public functions (module attributes, or
methods on their classes) with wrappers that record one span per call:
name, start, end and the span open when the call began.  Spans stay in
memory and are folded into per-layer seconds when the run ends; a
layer's self time is its span's duration minus its direct child spans.
The program under test is not modified on disk.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]`` per span (parent -1).
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self.active = False
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _child_seconds(self) -> list[float]:
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return children

    def seconds(self, name: str, under: int | None = None) -> float:
        """Summed duration of spans called ``name`` (optionally those
        whose direct parent is span ``under``)."""
        return sum(end - start for span_name, start, end, parent in self.spans
                   if span_name == name
                   and (under is None or parent == under))

    def self_seconds(self, name: str) -> float:
        """Summed self time (duration minus direct children) of ``name``."""
        children = self._child_seconds()
        return sum(end - start - children[i]
                   for i, (span_name, start, end, _) in enumerate(self.spans)
                   if span_name == name)

    def dump(self) -> list[dict[str, Any]]:
        """Spans as JSON-ready records, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start_s": start - origin,
                 "end_s": end - origin, "parent": parent}
                for name, start, end, parent in self.spans]


#: Every per-layer metric a traced run reports, with its unit.  Every
#: workload reports all of them, so one result format serves all; a
#: metric whose layer a workload never enters reads 0 there (e.g.
#: ``obs.fleet.*`` on ``serve-dispatch``).  Per-layer figures carry no
#: regression bound, so such a 0 is a statement about the workload, not
#: a measurement a later change could be judged against.
LAYER_UNITS = {
    "serve.job.generate_trace_arrays.s": "s",
    "serve.budget.admit_batch.s": "s",
    "serve.budget.admitted": "count",
    "serve.budget.truncated": "count",
    "serve.budget.rejected": "count",
    "serve.budget.admit_ratio": "ratio",
    "serve.scheduler.simulate.self_s": "s",
    "serve.scheduler.dispatches": "count",
    "serve.scheduler.self_us_per_dispatch": "us",
    "serve.scheduler.predict_step_seconds_batch.s": "s",
    "serve.scheduler.step_configs": "count",
    "serve.metrics.build_streaming_report.s": "s",
    "serve.faults.failed": "count",
    "serve.faults.retries": "count",
    "serve.faults.degradations": "count",
    "serve.faults.goodput": "ratio",
    "obs.fleet.export.s": "s",
    "obs.fleet.events": "count",
    "obs.fleet.export.rss_delta_mb": "MB",
    "experiments.runner.cached_batch.cold_s": "s",
    "experiments.runner.cached_batch.warm_s": "s",
    "experiments.runner.cold.lookup_s": "s",
    "experiments.runner.cold.compute_s": "s",
    "experiments.runner.cold.write_s": "s",
    "experiments.runner.warm.lookup_s": "s",
    "experiments.runner.cache_hits": "count",
    "experiments.runner.cache_misses": "count",
    "training.batch.sharded_step_batch.self_s": "s",
    "training.batch.training_step_batch.self_s": "s",
    "training.simulate.step_vector_runs.s": "s",
    "training.simulate.step_gemm_ops.s": "s",
    "training.batch.grid_points": "count",
    "training.batch.step_specs": "count",
    "arch.batch.gemm_stats_batch.s": "s",
    "arch.batch.unique_gemm_shapes": "count",
    "arch.batch.collectives.s": "s",
    "training.parallel.build_pipeline_schedule.s": "s",
    "training.parallel.build_pipeline_schedule.calls": "count",
    "bench.trace_overhead": "ratio",
}
#: Per-layer counts that must repeat exactly between runs of the same
#: code on the same seed.
EXACT_COUNTERS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit == "count"
) + ("serve.budget.admit_ratio", "serve.faults.goodput")


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the spans and counts, plus the workload's
    own ``extra`` figures (every name in :data:`LAYER_UNITS` except the
    overhead, which needs the untraced run)."""
    seconds, own = tracer.seconds, tracer.self_seconds
    counts = tracer.counts
    decided = sum(counts.get(f"serve.budget.{status}", 0)
                  for status in ("admitted", "truncated", "rejected"))
    granted = decided - counts.get("serve.budget.rejected", 0)
    simulate_self = own("serve.scheduler.simulate")
    dispatches = counts.get("serve.scheduler.dispatches", 0)
    values = {
        "serve.job.generate_trace_arrays.s":
            seconds("serve.job.generate_trace_arrays"),
        "serve.budget.admit_batch.s": seconds("serve.budget.admit_batch"),
        "serve.budget.admit_ratio": granted / decided if decided else 0.0,
        "serve.scheduler.simulate.self_s": simulate_self,
        "serve.scheduler.self_us_per_dispatch":
            simulate_self / dispatches * 1e6 if dispatches else 0.0,
        "serve.scheduler.predict_step_seconds_batch.s":
            seconds("serve.scheduler.predict_step_seconds_batch"),
        "serve.metrics.build_streaming_report.s":
            seconds("serve.metrics.build_streaming_report"),
        "obs.fleet.export.s": seconds("obs.fleet.export"),
        "training.batch.sharded_step_batch.self_s":
            own("training.batch.sharded_step_batch"),
        "training.batch.training_step_batch.self_s":
            own("training.batch.training_step_batch"),
        "training.simulate.step_vector_runs.s":
            seconds("training.simulate.step_vector_runs"),
        "training.simulate.step_gemm_ops.s":
            seconds("training.simulate.step_gemm_ops"),
        "arch.batch.gemm_stats_batch.s": seconds("arch.batch.gemm_stats_batch"),
        "arch.batch.collectives.s": seconds("arch.batch.collectives"),
        "training.parallel.build_pipeline_schedule.s":
            seconds("training.parallel.build_pipeline_schedule"),
    }
    values.update(counts)
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name in LAYER_UNITS
            if name != "bench.trace_overhead"}


def wrap(tracer: Tracer, owner: Any, attr: str, name: str,
         after: Callable[[Tracer, tuple, dict, Any], None] | None = None,
         ) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``after(tracer, args, kwargs, result)`` runs once the call returns
    (outside the span) to record counts derived from the call.
    Calls made while the tracer is inactive pass straight through.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return original(*args, **kwargs)
        with tracer.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    setattr(owner, attr, traced)


def _count_admission(tracer: Tracer, args: tuple, kwargs: dict,
                     decisions: Any) -> None:
    status = decisions.status
    tracer.count("serve.budget.admitted",
                 int((status == decisions.ADMITTED).sum()))
    tracer.count("serve.budget.truncated",
                 int((status == decisions.TRUNCATED).sum()))
    tracer.count("serve.budget.rejected",
                 int((status == decisions.REJECTED).sum()))


def _count_dispatches(tracer: Tracer, args: tuple, kwargs: dict,
                      report: Any) -> None:
    # Every admitted job is dispatched once and ends completed or
    # failed; each retry is one more dispatch.
    tracer.count("serve.scheduler.dispatches",
                 report.completed + report.failed + report.retries)


def _counter(name: str, size: Callable[[tuple], int]) -> Callable:
    def after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(name, size(args))
    return after


def install(tracer: Tracer) -> None:
    """Wrap every public entry point whose layer the benchmark reports.

    Each replacement is made where callers look the name up: the
    scheduler reaches ``predict_step_seconds_batch`` and
    ``build_streaming_report`` through its own module globals, the
    batched engine reaches the vector, GEMM and collective kernels
    through ``repro.training.batch``'s imports, and sweeps reach the
    cache through the ``runner`` module.
    """
    from repro.experiments import runner
    from repro.obs import fleet
    from repro.serve import budget, job, scheduler
    from repro.training import batch, parallel

    wrap(tracer, job, "generate_trace_arrays",
         "serve.job.generate_trace_arrays")
    wrap(tracer, budget.AdmissionController, "admit_batch",
         "serve.budget.admit_batch", _count_admission)
    wrap(tracer, scheduler, "simulate_fleet_streaming",
         "serve.scheduler.simulate", _count_dispatches)
    wrap(tracer, scheduler, "predict_step_seconds_batch",
         "serve.scheduler.predict_step_seconds_batch",
         _counter("serve.scheduler.step_configs", lambda a: len(a[1])))
    wrap(tracer, scheduler, "build_streaming_report",
         "serve.metrics.build_streaming_report")
    wrap(tracer, fleet.FleetObs, "export", "obs.fleet.export")
    wrap(tracer, runner, "cached_batch", "experiments.runner.cached_batch")
    wrap(tracer, batch, "sharded_step_batch",
         "training.batch.sharded_step_batch",
         _counter("training.batch.grid_points", lambda a: len(a[0])))
    wrap(tracer, batch, "training_step_batch",
         "training.batch.training_step_batch",
         _counter("training.batch.step_specs", lambda a: len(a[0])))
    wrap(tracer, batch, "step_vector_runs", "training.simulate.step_vector_runs")
    wrap(tracer, batch, "step_gemm_ops", "training.simulate.step_gemm_ops")
    wrap(tracer, batch, "gemm_stats_batch", "arch.batch.gemm_stats_batch",
         _counter("arch.batch.unique_gemm_shapes", lambda a: len(a[1])))
    for attr in ("allreduce_seconds_batch", "first_bucket_seconds_batch",
                 "link_bytes_per_chip_batch"):
        wrap(tracer, batch, attr, "arch.batch.collectives")
    wrap(tracer, parallel, "build_pipeline_schedule",
         "training.parallel.build_pipeline_schedule",
         _counter("training.parallel.build_pipeline_schedule.calls",
                  lambda a: 1))

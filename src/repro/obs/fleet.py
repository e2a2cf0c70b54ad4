"""Fleet-simulator observability: job-lifecycle spans + windowed metrics.

One :class:`FleetObs` observes one fleet simulation.  The contract is
split in three, to keep the event loop fast and the answers cheap:

* **During the run** the simulator touches only O(1) surfaces: one
  first-start store per job in a preallocated slot column, one
  finish-time store per completion under fault injection, and one
  :meth:`~FleetObs.sample` call per elapsed metrics window.  Nothing
  else runs in-loop, which is what keeps the measured
  enabled-vs-disabled overhead inside the ``check_bench`` ceiling.
* **At the end of the run** the simulator attaches its raw materials
  (:meth:`~FleetObs.attach` — references, no copies), and the caller
  runs :meth:`~FleetObs.export`.  Export is column work only: it
  rebuilds per-job NumPy columns (:func:`job_columns`), hands the
  recorder the job lifecycles as column blocks (``_JobSpans``, cut
  where each tenant's thread is first named) plus the load counters
  as one block (``_LoadCounters``) and the few autoscaler and fault
  events as dicts, and folds the metrics with array operations
  (:meth:`~repro.obs.metrics.TimeSeries.add_many`).  It builds no
  per-event dict.  Benchmarks time it on its own
  (``export_seconds``, ``obs.fleet.export.s``).
* **On write** :meth:`~repro.obs.trace.TraceRecorder.write` and
  :meth:`~repro.obs.metrics.MetricsRegistry.write` stream the blocks
  through per-event-kind templates in fixed-size chunks, byte for
  byte ``json.dumps(to_dict(), indent=1) + "\\n"``.  Only
  ``recorder.events`` / ``to_dict`` build the event dicts, on demand.

A multi-policy comparison can share one
:class:`~repro.obs.trace.TraceRecorder` (each run gets its own trace
process, named after its policy).  Under faults a job's ``wait`` span
runs from arrival to its *first* dispatch and its ``run`` span from
there to its final finish; an abandoned job gets the wait span only.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np
# ``np.unique`` (``_fold_metrics``) reads ``np.ma``: load it here, not
# lazily inside the first export.
import numpy.ma  # noqa: F401
from numpy.typing import NDArray

from repro.obs.jsonstream import BATCH_ROWS, numbers, template
from repro.obs.trace import US_PER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder
    from repro.serve.autoscale import AutoscalerState, ScaleEvent
    from repro.serve.budget import BatchAdmissionDecisions
    from repro.serve.faults import FaultEvent, FaultRun
    from repro.serve.job import TraceArrays

_OUTCOMES = ("admitted", "truncated", "rejected")


@dataclass(frozen=True)
class JobColumns:
    """Per-job lifecycle columns, one entry per job in arrival order.

    Rebuilt by :func:`job_columns` from one run.  ``status`` uses
    :class:`~repro.serve.budget.BatchAdmissionDecisions`'s codes
    (0 admitted, 1 truncated, 2 rejected); ``tenant`` / ``model`` index
    the ``tenants`` / ``models`` vocabularies.  ``start_s`` is the
    *first* dispatch (NaN if the job never ran) and ``finish_s`` the
    final completion (NaN if it never completed: rejected or
    abandoned).
    """

    job_id: NDArray[np.int64]
    tenant: NDArray[np.int64]
    tenants: Sequence[str]
    model: NDArray[np.int64]
    models: Sequence[str]
    arrival_s: NDArray[np.float64]
    status: NDArray[np.int64]
    granted: NDArray[np.int64]
    requested: NDArray[np.int64]
    epsilon_after: NDArray[np.float64]
    start_s: NDArray[np.float64]
    finish_s: NDArray[np.float64]


class FleetObs:
    """Observability bundle for one fleet-simulation run.

    Pass the same ``recorder`` to several ``FleetObs`` instances to
    collect a multi-policy comparison into one trace file; metrics
    registries are typically per-run (per-policy).
    """

    def __init__(self, *,
                 recorder: "TraceRecorder | None" = None,
                 metrics: "MetricsRegistry | None" = None,
                 window_s: float = 60.0) -> None:
        if recorder is None and metrics is None:
            raise ValueError(
                "FleetObs needs a recorder, a metrics registry, or both")
        self.recorder = recorder
        self.metrics = metrics
        self.window_s = metrics.window_s if metrics is not None \
            else window_s
        #: Per-job first-dispatch slots (:meth:`start_sink`).
        self.starts: "array[float]" = array("d")
        #: Faulty-loop completion sink (:meth:`finish_sink`).
        self.finishes: "array[float] | None" = None
        #: Windowed load samples: ``(t, queued, idle, active, pending)``.
        self.samples: list[tuple[float, int, int, int, int]] = []
        #: Next simulated time at which the scheduler should sample.
        self.next_sample_s = 0.0
        self._run: dict[str, Any] | None = None
        self._exported = False

    # -- in-loop surface ---------------------------------------------------

    def sample(self, now: float, queued: int, idle: int, active: int,
               pending: int) -> None:
        """Record one load sample; advances the next window boundary."""
        self.samples.append((now, queued, idle, active, pending))
        self.next_sample_s = (int(now // self.window_s) + 1) \
            * self.window_s

    def start_sink(self, jobs: int) -> "array[float]":
        """Per-job first-dispatch slots (NaN until the job first runs).

        The simulator stores each job's first start at its job id — one
        O(1) store per dispatch, 8 bytes per job; a retry leaves it.
        """
        self.starts = array("d", [math.nan]) * jobs
        return self.starts

    def finish_sink(self, jobs: int) -> "array[float]":
        """Per-job final-finish slots (NaN until the job completes).

        Under fault injection the simulator stores each completion's
        finish time at its job id — one O(1) store, 8 bytes per job.
        """
        self.finishes = array("d", [math.nan]) * jobs
        return self.finishes

    # -- end-of-run attachment (references only, O(1)) ---------------------

    def attach(self, *, policy: str, trace: "TraceArrays",
               decisions: "BatchAdmissionDecisions", service: Any,
               state: "AutoscalerState | None",
               faults: "FaultRun | None" = None) -> None:
        if self._run is not None:
            raise RuntimeError(
                "FleetObs already observed a run; use one instance per "
                "simulate_fleet_streaming call")
        self._run = {"policy": policy, "trace": trace,
                     "decisions": decisions, "service": service,
                     "state": state, "faults": faults}

    # -- export ------------------------------------------------------------

    def export(self) -> None:
        """Build spans / fold metrics from the attached run (once)."""
        if self._run is None:
            raise RuntimeError("no run attached; simulate first")
        if self._exported:
            return
        self._exported = True
        run = self._run
        policy: str = run["policy"]
        state: "AutoscalerState | None" = run["state"]
        faults: "FaultRun | None" = run["faults"]
        scale_events: "tuple[ScaleEvent, ...]" = \
            tuple(state.events) if state is not None else ()
        fault_events: "list[FaultEvent]" = \
            faults.events if faults is not None else []
        jobs = job_columns(run["trace"], run["decisions"], run["service"],
                           self.starts, self.finishes)
        if self.recorder is not None:
            _emit_spans(self.recorder, policy, jobs, self.samples,
                        scale_events, fault_events)
        if self.metrics is not None:
            _fold_metrics(self.metrics, policy, jobs, self.samples,
                          scale_events, fault_events)


def job_columns(trace: "TraceArrays",
                decisions: "BatchAdmissionDecisions",
                service: NDArray[np.float64],
                starts: "array[float]",
                finishes: "array[float] | None") -> JobColumns:
    """Columns rebuilt from one run's arrays and sinks.

    The event loop never materializes job records, so lifecycles are
    rebuilt here: arrival and admission from the trace and the
    batched decisions, the first dispatch from the start slots.  Under
    faults the finish sink gives each job's final finish; without
    faults every job runs exactly once, so its finish is
    ``start + service`` — bitwise the float the loop pushed onto its
    capacity-return heap.
    """
    n = len(trace)
    start = np.frombuffer(starts, dtype=float)
    if finishes is None:
        finish = start + service
    else:
        finish = np.frombuffer(finishes, dtype=float)
    return JobColumns(
        job_id=np.arange(n, dtype=np.int64),
        tenant=np.asarray(trace.tenant, dtype=np.int64),
        tenants=trace.tenants,
        model=np.asarray(trace.model, dtype=np.int64),
        models=trace.models,
        arrival_s=np.asarray(trace.arrival_s, dtype=float),
        status=np.asarray(decisions.status, dtype=np.int64),
        granted=np.asarray(decisions.granted_steps, dtype=np.int64),
        requested=np.asarray(trace.steps, dtype=np.int64),
        epsilon_after=np.asarray(decisions.epsilon_after, dtype=float),
        start_s=start,
        finish_s=finish)


#: The fleet's event layouts, one template per event kind, as items of
#: the ``traceEvents`` list.
_REJECTED = template({
    "name": "job-%d rejected", "ph": "i", "cat": "admission", "s": "t",
    "ts": "%s", "pid": "%s", "tid": "%s",
    "args": {"model": "%s", "requested_steps": "%s",
             "epsilon_after": "%s"}}, 2)
_WAIT = template({
    "name": "job-%d wait", "ph": "X", "cat": "queue", "ts": "%s",
    "dur": "%s", "pid": "%s", "tid": "%s"}, 2)
_RUN_SHAPE = {
    "name": "job-%d run", "ph": "X", "cat": "run", "ts": "%s",
    "dur": "%s", "pid": "%s", "tid": "%s",
    "args": {"model": "%s", "granted_steps": "%s",
             "requested_steps": "%s", "epsilon_after": "%s"}}
_RUN = template(_RUN_SHAPE, 2)
_RUN_TRUNCATED = template(
    {**_RUN_SHAPE, "args": {**_RUN_SHAPE["args"], "truncated": True}}, 2)
_QUEUE_DEPTH = template({
    "name": "queue depth", "ph": "C", "cat": "metrics", "ts": "%s",
    "pid": "%s", "tid": 0, "args": {"queued": "%s"}}, 2)
_CLUSTERS = template({
    "name": "clusters", "ph": "C", "cat": "metrics", "ts": "%s",
    "pid": "%s", "tid": 0,
    "args": {"running": "%s", "idle": "%s", "pending": "%s"}}, 2)


class _JobSpans:
    """Job-lifecycle events of consecutive jobs, kept as columns.

    Per job: a rejected job is one ``admission`` instant at arrival; a
    dispatched job gets a ``wait`` span (arrival to first dispatch)
    and, if it completed, a ``run`` span (first dispatch to final
    finish).  ``columns`` hold, per job: id, tid, model index, kind
    (0 rejected, 1 wait only, 2 wait and run), admission status,
    granted and requested steps, epsilon after admission, and the
    arrival, wait, first-dispatch and run times in microseconds.
    """

    def __init__(self, pid: int, models: Sequence[str],
                 columns: "list[NDArray[Any]]") -> None:
        self.pid = pid
        self.models = models
        self.columns = columns
        kind = columns[3]
        self._len = len(kind) + int(np.count_nonzero(kind == 2))

    def __len__(self) -> int:
        return self._len

    def texts(self) -> "Iterator[list[str]]":
        pid = self.pid
        models = [json.dumps(model) for model in self.models]
        for lo in range(0, len(self.columns[0]), BATCH_ROWS):
            rows = [column[lo:lo + BATCH_ROWS] for column in self.columns]
            ints = [column.tolist() for column in rows[:7]]
            floats = [numbers(column) for column in rows[7:]]
            texts: list[str] = []
            append = texts.append
            for (job, tid, model, what, status, granted, requested,
                 eps_after, ts, wait, run_ts, run) in zip(*ints, *floats):
                if what == 0:
                    append(_REJECTED % (job, ts, pid, tid, models[model],
                                        requested, eps_after))
                    continue
                append(_WAIT % (job, ts, wait, pid, tid))
                if what == 2:
                    append((_RUN_TRUNCATED if status == 1 else _RUN)
                           % (job, run_ts, run, pid, tid, models[model],
                              granted, requested, eps_after))
            yield texts


class _LoadCounters:
    """The windowed load samples as ``queue depth`` and ``clusters``
    counter events, two per sample."""

    def __init__(self, pid: int,
                 samples: "list[tuple[float, int, int, int, int]]"
                 ) -> None:
        self.pid = pid
        self.samples = samples

    def __len__(self) -> int:
        return 2 * len(self.samples)

    def texts(self) -> "Iterator[list[str]]":
        pid = self.pid
        for lo in range(0, len(self.samples), BATCH_ROWS):
            t, queued, idle, active, pending = zip(
                *self.samples[lo:lo + BATCH_ROWS])
            columns = (numbers(np.array(t) * US_PER_S), queued,
                       [a - i for a, i in zip(active, idle)], idle,
                       pending)
            texts: list[str] = []
            for ts, depth, *clusters in zip(*columns):
                texts.append(_QUEUE_DEPTH % (ts, pid, depth))
                texts.append(_CLUSTERS % (ts, pid, *clusters))
            yield texts


def _emit_spans(recorder: "TraceRecorder", policy: str,
                jobs: JobColumns,
                samples: "list[tuple[float, int, int, int, int]]",
                scale_events: "tuple[ScaleEvent, ...]",
                fault_events: "list[FaultEvent]") -> None:
    """Job-lifecycle spans, autoscaler / fault instants, load counters.

    The jobs go to the recorder as :class:`_JobSpans` column blocks,
    cut where a tenant first appears: its thread is named (a metadata
    event) right before its first job, as a per-job loop would.  The
    few autoscaler and fault events are plain dicts; the load samples
    are one :class:`_LoadCounters` block.
    """
    pid = recorder.pid(f"fleet: {policy}")
    start, finish = jobs.start_s, jobs.finish_s
    rejected = (jobs.status == 2) | np.isnan(start)
    # 0: rejected instant, 1: wait span only (abandoned), 2: wait + run.
    kind = np.where(rejected, 0, np.where(np.isnan(finish), 1, 2))
    tenants, firsts = np.unique(jobs.tenant, return_index=True)
    order = np.argsort(firsts)
    tenants, firsts = tenants[order].tolist(), firsts[order].tolist()
    tid_of = np.zeros(len(jobs.tenants), dtype=np.int64)
    tids = np.empty(len(jobs.job_id), dtype=np.int64)  # set per range
    columns = [
        jobs.job_id, tids, jobs.model, kind, jobs.status,
        jobs.granted, jobs.requested, jobs.epsilon_after,
        jobs.arrival_s * US_PER_S, (start - jobs.arrival_s) * US_PER_S,
        start * US_PER_S, (finish - start) * US_PER_S]
    for tenant, lo, hi in zip(tenants, firsts,
                              [*firsts[1:], len(jobs.job_id)]):
        tid_of[tenant] = recorder.tid(pid, jobs.tenants[tenant])
        tids[lo:hi] = tid_of[jobs.tenant[lo:hi]]
        recorder.add_block(_JobSpans(
            pid, jobs.models, [column[lo:hi] for column in columns]))
    scale_tid = recorder.tid(pid, "autoscaler")
    for event in scale_events:
        recorder.instant(
            event.label, event.time_s, pid=pid, tid=scale_tid,
            cat="autoscale", args=event.to_dict())
    if fault_events:
        fault_tid = recorder.tid(pid, "faults")
        # A "retry" is the backoff wait that began at the matching
        # failure instant — render it as a span, the rest as instants.
        crash_at = {(e.job_id, e.attempt): e.time_s
                    for e in fault_events if e.kind == "failure"}
        for fault in fault_events:
            fault_args = {"job": fault.job_id, "attempt": fault.attempt}
            if fault.kind == "retry":
                crash_s = crash_at[(fault.job_id, fault.attempt)]
                recorder.span(
                    f"job-{fault.job_id} backoff", crash_s,
                    fault.time_s - crash_s, pid=pid, tid=fault_tid,
                    cat="fault", args=fault_args)
            else:
                recorder.instant(
                    f"job-{fault.job_id} {fault.kind}", fault.time_s,
                    pid=pid, tid=fault_tid, cat="fault", args=fault_args)
    if samples:
        recorder.add_block(_LoadCounters(pid, samples))


def _fold_metrics(metrics: "MetricsRegistry", policy: str,
                  jobs: JobColumns,
                  samples: "list[tuple[float, int, int, int, int]]",
                  scale_events: "tuple[ScaleEvent, ...]",
                  fault_events: "list[FaultEvent]") -> None:
    """Fold one run into counters / histograms / windowed series.

    One registry lookup per metric, not per job: counters from one
    ``bincount`` over (tenant, outcome), series through
    :meth:`~repro.obs.metrics.TimeSeries.add_many`.  Waits cover every
    dispatched job, service times every completed one.
    """
    waits = metrics.histogram("wait_s", policy=policy)
    service = metrics.histogram("service_s", policy=policy)
    outcomes = len(_OUTCOMES)
    counts = np.bincount(jobs.tenant * outcomes + jobs.status,
                         minlength=len(jobs.tenants) * outcomes)
    for key in np.flatnonzero(counts).tolist():
        tenant, status = divmod(key, outcomes)
        metrics.counter("jobs", policy=policy,
                        tenant=jobs.tenants[tenant],
                        outcome=_OUTCOMES[status]).inc(int(counts[key]))
    arrival = jobs.arrival_s
    for status in np.unique(jobs.status).tolist():
        times = arrival[jobs.status == status]
        metrics.series("arrival_rate", policy=policy,
                       outcome=_OUTCOMES[status]).add_many(
            times, np.ones(len(times)))
    for tenant in np.unique(jobs.tenant).tolist():
        mine = jobs.tenant == tenant
        metrics.series("tenant_epsilon_spent", policy=policy,
                       tenant=jobs.tenants[tenant]).add_many(
            arrival[mine], jobs.epsilon_after[mine])
    dispatched = ~np.isnan(jobs.start_s)
    waits.observe_many(
        (jobs.start_s - arrival)[dispatched].tolist())
    completed = ~np.isnan(jobs.finish_s)
    service.observe_many(
        (jobs.finish_s - jobs.start_s)[completed].tolist())
    if samples:
        times_s, queued, idle, active, _ = (
            np.array(column) for column in zip(*samples))
        running = active - idle
        metrics.series("queue_depth", policy=policy).add_many(
            times_s, queued)
        metrics.series("running_jobs", policy=policy).add_many(
            times_s, running)
        metrics.series("active_clusters", policy=policy).add_many(
            times_s, active)
        # r / a of two ints is the correctly rounded quotient either way.
        metrics.series("utilization", policy=policy).add_many(
            times_s, np.where(active > 0,
                              running / np.maximum(active, 1), 0.0))
        metrics.gauge("peak_queue_depth", policy=policy).set(
            int(queued.max()))
    for (action, reason), count in Counter(
            (event.action, event.reason) for event in scale_events).items():
        metrics.counter("scale_decisions", policy=policy,
                        action=action, reason=reason).inc(count)
    for kind, count in Counter(
            fault.kind for fault in fault_events).items():
        metrics.counter("fault_events", policy=policy, kind=kind).inc(count)

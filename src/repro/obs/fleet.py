"""Fleet-simulator observability: job-lifecycle spans + windowed metrics.

One :class:`FleetObs` observes one fleet simulation.  The contract is
split to keep the event loops fast:

* **During the run** the simulator touches only O(1) surfaces: an
  inline ``(job_id, start_s)`` append per dispatch, one finish-time
  store per completion in the faulty loop, and one
  :meth:`~FleetObs.sample` call per elapsed metrics window.  Nothing
  else runs in-loop, which is what keeps the measured
  enabled-vs-disabled overhead inside the ``check_bench`` ceiling.
* **At the end of the run** the simulator attaches its raw materials
  (:meth:`~FleetObs.attach` — references, no copies).  All
  span construction and metric folding happens in
  :meth:`~FleetObs.export`, which the caller runs after the
  simulation; it is a separate cost, not a free one — benchmarks time
  it on its own (``export_seconds``, ``obs.fleet.export.s``).

Export rebuilds per-job NumPy columns (:func:`job_columns`, which
:func:`~repro.serve.scheduler.simulate_fleet` also uses for its job
records) before emitting, and a multi-policy comparison can share one
:class:`~repro.obs.trace.TraceRecorder` (each run gets its own trace
process, named after its policy).  Under faults a job's ``wait`` span
runs from arrival to its *first* dispatch and its ``run`` span from
there to its final finish; an abandoned job gets the wait span only.
"""

from __future__ import annotations

import gc
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
from numpy.typing import NDArray

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
        #: Dispatch sink: ``(job_id, start_s)`` appended inline by the
        #: scheduler's dispatch loop.
        self.dispatches: list[tuple[int, float]] = []
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

    def finish_sink(self, jobs: int) -> "array[float]":
        """Per-job final-finish slots (NaN until the job completes).

        The faulty loop stores each completion's finish time
        at its job id — one O(1) store, 8 bytes per job.
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
                "simulate_fleet/simulate_fleet_streaming call")
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
        # Export allocates one dict per event and nothing cyclic, so the
        # cyclic collector would only rescan the growing event list
        # (about 45 % of a 1M-job export); pause it for the duration.
        collecting = gc.isenabled()
        gc.disable()
        try:
            jobs = job_columns(run["trace"], run["decisions"],
                               run["service"], self.dispatches,
                               self.finishes)
            if self.recorder is not None:
                _emit_spans(self.recorder, policy, jobs, self.samples,
                            scale_events, fault_events)
            if self.metrics is not None:
                _fold_metrics(self.metrics, policy, jobs, self.samples,
                              scale_events, fault_events)
        finally:
            if collecting:
                gc.enable()


def job_columns(trace: "TraceArrays",
                decisions: "BatchAdmissionDecisions",
                service: NDArray[np.float64],
                dispatches: "list[tuple[int, float]]",
                finishes: "array[float] | None") -> JobColumns:
    """Columns rebuilt from one run's arrays and sinks.

    The event loops never materialize job records, so lifecycles are
    rebuilt here: arrival and admission from the trace and the
    batched decisions, the first dispatch from the dispatch sink.  The
    faulty loop's finish sink gives each job's final finish; the
    zero-fault loop runs every job exactly once, so its finish is
    ``start + service`` — bitwise the float the loop pushed onto its
    completion heap.
    """
    n = len(trace)
    start = np.full(n, np.nan)
    if dispatches:
        sink = np.array(dispatches)  # job ids stay exact below 2**53
        ids = sink[:, 0].astype(np.int64)
        _, first = np.unique(ids, return_index=True)
        start[ids[first]] = sink[first, 1]
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


def _emit_spans(recorder: "TraceRecorder", policy: str,
                jobs: JobColumns,
                samples: "list[tuple[float, int, int, int, int]]",
                scale_events: "tuple[ScaleEvent, ...]",
                fault_events: "list[FaultEvent]") -> None:
    """Job-lifecycle spans, autoscaler / fault instants, load counters.

    Per job: a rejected job is one ``admission`` instant at arrival;
    a dispatched job gets a ``wait`` span (arrival to first dispatch)
    and, if it completed, a ``run`` span (first dispatch to final
    finish).  Event dicts are built inline with
    :meth:`~repro.obs.trace.TraceRecorder.span` /
    :meth:`~repro.obs.trace.TraceRecorder.instant`'s key layout, and
    each tenant's thread is named where it is first used.
    """
    pid = recorder.pid(f"fleet: {policy}")
    append = recorder.events.append
    start, finish = jobs.start_s, jobs.finish_s
    rejected = (jobs.status == 2) | np.isnan(start)
    # 0: rejected instant, 1: wait span only (abandoned), 2: wait + run.
    kind = np.where(rejected, 0, np.where(np.isnan(finish), 1, 2))
    arrival_us = (jobs.arrival_s * US_PER_S).tolist()
    wait_us = ((start - jobs.arrival_s) * US_PER_S).tolist()
    start_us = (start * US_PER_S).tolist()
    run_us = ((finish - start) * US_PER_S).tolist()
    models = [jobs.models[m] for m in jobs.model.tolist()]
    tenant_names = jobs.tenants
    tids: list[int | None] = [None] * len(tenant_names)
    for (job, tenant, model, what, status, granted, requested, eps_after,
         ts, wait, run_ts, run) in zip(
            jobs.job_id.tolist(), jobs.tenant.tolist(), models,
            kind.tolist(), jobs.status.tolist(), jobs.granted.tolist(),
            jobs.requested.tolist(), jobs.epsilon_after.tolist(),
            arrival_us, wait_us, start_us, run_us):
        tid = tids[tenant]
        if tid is None:
            tid = tids[tenant] = recorder.tid(pid, tenant_names[tenant])
        if what == 0:
            append({"name": f"job-{job} rejected", "ph": "i",
                    "cat": "admission", "s": "t", "ts": ts, "pid": pid,
                    "tid": tid,
                    "args": {"model": model, "requested_steps": requested,
                             "epsilon_after": eps_after}})
            continue
        append({"name": f"job-{job} wait", "ph": "X", "cat": "queue",
                "ts": ts, "dur": wait, "pid": pid, "tid": tid})
        if what == 2:
            args = {"model": model, "granted_steps": granted,
                    "requested_steps": requested,
                    "epsilon_after": eps_after}
            if status == 1:
                args["truncated"] = True
            append({"name": f"job-{job} run", "ph": "X", "cat": "run",
                    "ts": run_ts, "dur": run, "pid": pid, "tid": tid,
                    "args": args})
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
    for t, queued, idle, active, pending in samples:
        recorder.counter("queue depth", t, {"queued": queued}, pid=pid)
        recorder.counter("clusters", t,
                         {"running": active - idle, "idle": idle,
                          "pending": pending}, pid=pid)


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
            times, [1.0] * len(times))
    for tenant in np.unique(jobs.tenant).tolist():
        mine = jobs.tenant == tenant
        metrics.series("tenant_epsilon_spent", policy=policy,
                       tenant=jobs.tenants[tenant]).add_many(
            arrival[mine], jobs.epsilon_after[mine].tolist())
    dispatched = ~np.isnan(jobs.start_s)
    waits.observe_many(
        (jobs.start_s - arrival)[dispatched].tolist())
    completed = ~np.isnan(jobs.finish_s)
    service.observe_many(
        (jobs.finish_s - jobs.start_s)[completed].tolist())
    if samples:
        times_s, queued, idle, active, _ = (list(column)
                                            for column in zip(*samples))
        running = [a - i for a, i in zip(active, idle)]
        metrics.series("queue_depth", policy=policy).add_many(
            times_s, queued)
        metrics.series("running_jobs", policy=policy).add_many(
            times_s, running)
        metrics.series("active_clusters", policy=policy).add_many(
            times_s, active)
        metrics.series("utilization", policy=policy).add_many(
            times_s, [r / a if a > 0 else 0.0
                      for r, a in zip(running, active)])
        metrics.gauge("peak_queue_depth", policy=policy).set(max(queued))
    for (action, reason), count in Counter(
            (event.action, event.reason) for event in scale_events).items():
        metrics.counter("scale_decisions", policy=policy,
                        action=action, reason=reason).inc(count)
    for kind, count in Counter(
            fault.kind for fault in fault_events).items():
        metrics.counter("fault_events", policy=policy, kind=kind).inc(count)

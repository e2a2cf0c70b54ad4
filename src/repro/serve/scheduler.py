"""Discrete-event fleet scheduler for multi-tenant DP training.

:func:`simulate_fleet_streaming` replays an array trace
(:class:`~repro.serve.job.TraceArrays`) against a pool of identical
:class:`~repro.arch.cluster.Cluster`\\ s; :func:`simulate_fleet` is
its job-list front end, which adds one :class:`JobRecord` per job.

1. **Arrival** — the admission controller prices the job against its
   tenant's ``(epsilon, delta)`` budget (reject / truncate / admit) and
   reserves the grant immediately.
2. **Dispatch** — whenever a cluster is idle and jobs are queued, the
   scheduling policy picks the next job.  Service time is
   ``granted_steps x step latency``, where the step latency comes from
   the batched closed-form sharded step
   (:func:`predict_step_seconds_batch`) — one evaluation per unique
   workload configuration, optionally persisted through the
   experiment runner's JSON cache.
3. **Completion** — the cluster frees and the dispatch loop runs again.

Scheduling policies (:data:`POLICIES`):

``fifo``
    Arrival order.
``sjf``
    Shortest predicted service time first (the closed-form engine
    makes the prediction exact, so this is true SJF, not an estimate).
``budget``
    Tenants with the largest *remaining* budget fraction first — an
    incentive policy: tenants who have nearly exhausted their epsilon
    wait behind those still holding budget.

All ties break on ``(arrival, job_id)``, so a simulation is fully
deterministic given a trace and a policy.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.arch.batch import unique_rows
from repro.arch.interconnect import InterconnectConfig
from repro.experiments import runner
from repro.serve.autoscale import AutoscalerPolicy, AutoscalerState
from repro.serve.budget import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStatus,
    BatchAdmissionDecisions,
)
from repro.serve.faults import FaultModel, FaultRun
from repro.serve.job import TraceArrays, TrainingJob
from repro.serve.metrics import FleetReport, build_streaming_report
from repro.serve.stream import StreamingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fleet import FleetObs

#: Scheduling policies the fleet simulator understands.
POLICIES = ("fifo", "sjf", "budget")


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the serving fleet.

    ``chips`` total accelerators, grouped into
    ``chips / chips_per_cluster`` identical clusters; each job occupies
    one whole cluster for its lifetime (DP-SGD steps are synchronous,
    so fractional clusters would serialize anyway).  ``pp`` / ``tp``
    carve pipeline/tensor parallelism out of each cluster (jobs
    data-parallelize across the remaining ``dp`` factor) and
    ``fabric`` names a heterogeneous link preset.  ``chips_per_node``,
    ``bucket_bytes`` and ``overlap`` configure the overlap-aware
    intra-cluster communication model
    (:mod:`repro.arch.interconnect`); service-time predictions pick
    them up transparently through the memoized sharded step.
    """

    chips: int = 4
    chips_per_cluster: int = 1
    kind: str = "diva"
    topology: str = "ring"
    chips_per_node: int = 1
    bucket_bytes: int | None = None
    overlap: bool = True
    pp: int = 1
    tp: int = 1
    fabric: str | None = None

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ValueError(f"chips must be >= 1, got {self.chips}")
        if self.chips_per_cluster < 1:
            raise ValueError(
                f"chips_per_cluster must be >= 1, got "
                f"{self.chips_per_cluster}")
        if self.chips % self.chips_per_cluster:
            raise ValueError(
                f"{self.chips} chips do not group into clusters of "
                f"{self.chips_per_cluster}")
        if self.pp < 1 or self.tp < 1:
            raise ValueError(
                f"pp and tp must be >= 1, got pp={self.pp} tp={self.tp}")
        if self.chips_per_cluster % (self.pp * self.tp):
            raise ValueError(
                f"{self.chips_per_cluster} chips per cluster do not "
                f"factor into pp={self.pp} x tp={self.tp} stages")
        if self.fabric is not None:
            from repro.arch.interconnect import fabric_named

            fabric_named(self.fabric)  # validate the preset name
        # The fabric knobs (topology, bucket_bytes, chips_per_node)
        # validate themselves; only cluster divisibility is ours.
        InterconnectConfig(topology=self.topology,
                           bucket_bytes=self.bucket_bytes,
                           chips_per_node=self.chips_per_node)
        if self.topology == "hierarchical" and self.dp > 1 \
                and self.dp % self.chips_per_node:
            # Single-replica clusters are exempt: no DP collectives.
            raise ValueError(
                f"{self.dp} data-parallel chips per cluster do not "
                f"group into hierarchical nodes of {self.chips_per_node}")

    @property
    def n_clusters(self) -> int:
        return self.chips // self.chips_per_cluster

    @property
    def dp(self) -> int:
        """Data-parallel replicas per cluster (batch-rounding width)."""
        return self.chips_per_cluster // (self.pp * self.tp)


@dataclass
class JobRecord:
    """Lifecycle of one job through the fleet.

    ``service_s`` is the planned service time of the granted steps
    (checkpoint-amortized under fault injection).  ``start_s`` is the
    first dispatch and ``finish_s`` the final completion; both stay
    ``None`` for a rejected job, and a job abandoned after its retry
    cap keeps its ``start_s``, has no ``finish_s`` and is ``failed``.
    """

    job: TrainingJob
    decision: AdmissionDecision
    service_s: float = 0.0
    start_s: float | None = None
    finish_s: float | None = None
    #: Abandoned after exhausting its retries (fault injection only).
    failed: bool = False

    @property
    def wait_s(self) -> float:
        """Queueing delay between arrival and first dispatch."""
        if self.start_s is None:
            return 0.0
        return self.start_s - self.job.arrival_s


@lru_cache(maxsize=4096)
def _step_seconds(kind: str, chips_per_cluster: int, topology: str,
                  chips_per_node: int, bucket_bytes: int | None,
                  overlap: bool, model: str, algorithm: str,
                  batch: int, pp: int = 1, tp: int = 1,
                  fabric: str | None = None) -> float:
    """One sharded training step's latency, closed-form."""
    from repro.arch.cluster import ParallelPlan
    from repro.arch.interconnect import fabric_named
    from repro.core import build_cluster
    from repro.training import Algorithm, simulate_sharded_training_step
    from repro.workloads import build_model

    cluster = build_cluster(
        kind, n_chips=chips_per_cluster,
        interconnect=InterconnectConfig(
            topology=topology, bucket_bytes=bucket_bytes,
            chips_per_node=chips_per_node,
            fabric=fabric_named(fabric) if fabric else None))
    plan = ParallelPlan(dp=chips_per_cluster // (pp * tp), pp=pp, tp=tp) \
        if pp * tp > 1 else None
    report = simulate_sharded_training_step(
        build_model(model), Algorithm(algorithm), cluster, batch,
        overlap=overlap, plan=plan)
    return report.total_seconds


def predict_step_seconds(
    fleet: FleetConfig,
    job: TrainingJob,
    cache: "runner.ResultCache | None" = None,
) -> float:
    """Step latency for ``job`` on one of ``fleet``'s clusters.

    The batch is rounded up to the nearest multiple of the cluster
    width so the data-parallel shard divides evenly.  Results are
    memoized in-process (traces repeat configurations) and optionally
    persisted through the experiment runner's JSON cache.
    """
    batch = math.ceil(job.batch / fleet.dp) * fleet.dp
    key = {"experiment": "serve-step", "kind": fleet.kind,
           "chips_per_cluster": fleet.chips_per_cluster,
           "topology": fleet.topology,
           "chips_per_node": fleet.chips_per_node,
           "bucket_bytes": fleet.bucket_bytes,
           "overlap": fleet.overlap, "model": job.model,
           "algorithm": job.algorithm, "batch": batch,
           "pp": fleet.pp, "tp": fleet.tp, "fabric": fleet.fabric}
    return float(runner.run_cached(
        key,
        lambda: _step_seconds(fleet.kind, fleet.chips_per_cluster,
                              fleet.topology, fleet.chips_per_node,
                              fleet.bucket_bytes, fleet.overlap,
                              job.model, job.algorithm, batch,
                              fleet.pp, fleet.tp, fleet.fabric),
        cache=cache))


#: Same-timestamp order of the faulty loop's pending events:
#: completions, then repaired clusters rejoining, then retried jobs
#: requeueing.  Arrivals precede all three, and provisioned clusters
#: come online after arrivals and before any of them.
_PRIO_COMPLETION, _PRIO_REPAIR, _PRIO_RETRY = 0, 1, 2


def simulate_fleet(
    trace: Sequence[TrainingJob],
    fleet: FleetConfig = FleetConfig(),
    *,
    policy: str = "fifo",
    admission: AdmissionController | None = None,
    autoscaler: AutoscalerPolicy | None = None,
    faults: FaultModel | None = None,
    cache: "runner.ResultCache | None" = None,
    dispatch_log: "list[tuple[int, float]] | None" = None,
    obs: "FleetObs | None" = None,
) -> FleetReport:
    """Replay a list of jobs on ``fleet`` and report, with per-job records.

    The job-list front end of :func:`simulate_fleet_streaming`: the
    trace converts to :class:`~repro.serve.job.TraceArrays` (arrival
    order, ties on ``job_id``), runs through the array path, and the
    report gains one :class:`JobRecord` per job in that order.  The
    summary is therefore exactly the array path's, whichever entry
    point replays a trace.

    Records and ``dispatch_log`` carry the caller's job ids.
    Each record's ``decision`` is what :meth:`AdmissionController.admit`
    would have returned job by job; ``start_s`` is the first dispatch
    and ``finish_s`` the final finish.  Fault draws, and the job names
    ``obs`` exports, are keyed by arrival position, which equals
    ``job_id`` for every generated trace.
    """
    from repro.obs.fleet import job_columns

    if admission is None:
        admission = AdmissionController()
    jobs = sorted(trace, key=lambda j: (j.arrival_s, j.job_id))
    arrays = TraceArrays.from_jobs(jobs)
    spent = {name: admission.epsilon_spent(name) for name in arrays.tenants}
    decisions = admission.admit_batch(arrays)
    positions: list[tuple[int, float]] = []
    # The faulty loop's finish sink; obs brings its own when given.
    finishes = (array("d", [math.nan]) * len(jobs)
                if faults is not None and obs is None else None)
    report = simulate_fleet_streaming(
        arrays, fleet, policy=policy, admission=admission,
        decisions=decisions, autoscaler=autoscaler, faults=faults,
        cache=cache, dispatch_log=positions, obs=obs,
        _finishes=finishes)
    if obs is not None:
        finishes = obs.finishes
    if dispatch_log is not None:
        dispatch_log.extend((jobs[pos].job_id, now)
                            for pos, now in positions)
    _, service = _job_service_seconds(
        arrays, decisions, fleet, cache=cache,
        faults=(FaultRun(faults, fleet, admission, cache=cache)
                if faults is not None else None))
    columns = job_columns(arrays, decisions, service, positions, finishes)
    statuses = (AdmissionStatus.ADMITTED, AdmissionStatus.TRUNCATED,
                AdmissionStatus.REJECTED)
    records: list[JobRecord] = []
    for job, status, granted, eps_after, service_s, start, finish in zip(
            jobs, columns.status.tolist(), columns.granted.tolist(),
            columns.epsilon_after.tolist(), service.tolist(),
            columns.start_s.tolist(), columns.finish_s.tolist()):
        cost = eps_after - spent[job.tenant]
        spent[job.tenant] = eps_after
        ran, done = not math.isnan(start), not math.isnan(finish)
        records.append(JobRecord(
            job=job,
            decision=AdmissionDecision(statuses[status], granted, cost,
                                       eps_after),
            service_s=service_s,
            start_s=start if ran else None,
            finish_s=finish if done else None,
            failed=ran and not done))
    return dataclasses.replace(report, records=tuple(records))


def predict_step_seconds_batch(
    fleet: FleetConfig,
    models: Sequence[str],
    algorithms: Sequence[str],
    batches: Sequence[int],
    cache: "runner.ResultCache | None" = None,
) -> NDArray[Any]:
    """Step latencies for many (model, algorithm, batch) configs at once.

    The batched counterpart of :func:`predict_step_seconds`: one
    :func:`repro.training.sharded_step_batch` call prices every
    cache-missing config (``batches`` must already be rounded to the
    cluster width).  Cache keys are identical to the scalar path's, so
    the two share persisted entries — and the values are identical
    too, because the batched engine is pinned bitwise-equal to the
    scalar simulator.
    """
    from repro.training.batch import sharded_step_batch

    work = list(zip(models, algorithms, batches))

    def price(missing: list[tuple[str, str, int]]) -> list[float]:
        if not missing:
            return []
        miss_models, miss_algorithms, miss_batches = zip(*missing)
        result = sharded_step_batch(
            list(miss_models), list(miss_algorithms),
            np.array(miss_batches, dtype=np.int64),
            fleet.chips_per_cluster,
            topologies=fleet.topology,
            bucket_bytes=fleet.bucket_bytes,
            chips_per_node=(fleet.chips_per_node
                            if fleet.topology == "hierarchical" else 1),
            overlaps=fleet.overlap, kinds=fleet.kind,
            pps=fleet.pp, tps=fleet.tp, fabrics=fleet.fabric)
        return [float(value) for value in result.total_seconds]

    seconds = runner.cached_batch(
        price, work, cache=cache,
        key_fn=lambda item: {
            "experiment": "serve-step", "kind": fleet.kind,
            "chips_per_cluster": fleet.chips_per_cluster,
            "topology": fleet.topology,
            "chips_per_node": fleet.chips_per_node,
            "bucket_bytes": fleet.bucket_bytes,
            "overlap": fleet.overlap, "model": item[0],
            "algorithm": item[1], "batch": int(item[2]),
            "pp": fleet.pp, "tp": fleet.tp, "fabric": fleet.fabric})
    return np.array(seconds, dtype=float)


def _job_service_seconds(
    trace: TraceArrays,
    decisions: BatchAdmissionDecisions,
    fleet: FleetConfig,
    cache: "runner.ResultCache | None" = None,
    faults: FaultRun | None = None,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Per-job ``(base step latency, service time)`` from one table.

    One batched evaluation prices every unique
    (model, algorithm, rounded-batch) configuration of the trace; the
    service time is ``granted_steps x step latency``.  With ``faults``
    the step latency is checkpoint-amortized, through the same scalar
    helper (and memo) the fault model uses per attempt.
    """
    width = fleet.dp
    rounded = np.ceil(trace.batch / width).astype(np.int64) * width
    unique, inverse = unique_rows(trace.model, trace.algorithm, rounded)
    table = predict_step_seconds_batch(
        fleet,
        [trace.models[int(row[0])] for row in unique],
        [trace.algorithms[int(row[1])] for row in unique],
        unique[:, 2].tolist(),
        cache=cache)
    effective = table
    if faults is not None:
        effective = np.array([
            faults.effective_step_seconds(trace.models[int(row[0])],
                                          float(table[pos]))
            for pos, row in enumerate(unique)])
    return table[inverse], decisions.granted_steps * effective[inverse]


def simulate_fleet_streaming(
    trace: TraceArrays,
    fleet: FleetConfig = FleetConfig(),
    *,
    policy: str = "fifo",
    admission: AdmissionController | None = None,
    decisions: BatchAdmissionDecisions | None = None,
    autoscaler: AutoscalerPolicy | None = None,
    faults: FaultModel | None = None,
    cache: "runner.ResultCache | None" = None,
    dispatch_log: "list[tuple[int, float]] | None" = None,
    obs: "FleetObs | None" = None,
    _finishes: "array[float] | None" = None,
) -> FleetReport:
    """Replay an array trace on ``fleet`` with O(1) metric memory.

    The fleet simulator.  Admission decides the whole trace in one
    batched pass (decision-identical to
    :meth:`~repro.serve.budget.AdmissionController.admit` job by job),
    service times come from one precomputed batched step-latency
    table, the event loop walks the arrival arrays directly (the
    completion heap never exceeds the cluster count), and metrics fold
    into streaming accumulators.  No per-job record list is ever
    materialized, so the report's ``records`` are empty (use
    :func:`simulate_fleet` for records) and the wait percentiles are
    exact below the warmup size and P² estimates beyond it.  Job ids
    are array positions.  Deterministic: the same trace, fleet, policy
    and admission configuration always produce the identical report.

    Pass ``decisions`` to reuse one admission pass across policies
    (admission happens at arrival, so it is policy-invariant); the
    ``admission`` controller must then be the one that produced them.

    ``autoscaler`` turns the static cluster pool into a reactive one
    (see :mod:`repro.serve.autoscale`): after each event's dispatch
    loop settles, the policy may request new clusters (online after
    its provisioning delay) or retire idle ones, and the report gains
    scale events plus chip-hour cost.  ``dispatch_log``, when given,
    receives ``(job_id, start_s)`` per dispatch in dispatch order.

    ``faults`` (a :class:`~repro.serve.faults.FaultModel`) injects
    seeded failures: attempts crash mid-service, jobs requeue with
    capped backoff or continue degraded at a smaller ``dp'``, clusters
    repair after a downtime, and the admission ledger is re-priced per
    crash (see :mod:`repro.serve.faults`).  ``None`` (default) is the
    zero-failure loop, which the fault machinery never touches.

    ``obs`` (a :class:`repro.obs.fleet.FleetObs`) observes the run:
    each dispatch appends ``(job_id, start_s)`` to the observer's sink
    (and, with faults on, each completion stores its finish time), one
    windowed load sample is taken per elapsed metrics window, and
    ``obs.export()`` rebuilds job lifecycles afterwards.  ``None``
    (default) skips every hook.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; "
                         f"choose from {POLICIES}")
    if admission is None:
        admission = AdmissionController()
    if decisions is None:
        decisions = admission.admit_batch(trace)
    if faults is not None:
        # Fault injection restructures the event set (repairs, retries)
        # and the queues (requeued jobs re-sort by arrival), so it gets
        # its own loop; the zero-failure path below stays untouched.
        return _simulate_streaming_faulty(
            trace, fleet, policy=policy, admission=admission,
            decisions=decisions, autoscaler=autoscaler, faults=faults,
            cache=cache, dispatch_log=dispatch_log, obs=obs,
            finishes=_finishes)
    _, service = _job_service_seconds(trace, decisions, fleet, cache=cache)
    state = (AutoscalerState(autoscaler,
                             initial_clusters=fleet.n_clusters,
                             chips_per_cluster=fleet.chips_per_cluster)
             if autoscaler is not None else None)

    total = len(trace)
    arrival = trace.arrival_s
    admitted = decisions.admitted
    granted = decisions.granted_steps
    n_tenants = len(trace.tenants)
    # The budget policy reads each tenant's remaining fraction at
    # dispatch time; spend only moves at arrivals, so tracking the
    # decision stream's epsilon_after reproduces the live ledger.
    tenant_spent = np.zeros(n_tenants)
    budget_eps = np.array([admission.budget_for(name).epsilon
                           for name in trace.tenants], dtype=float)

    fifo: deque[int] = deque()
    sjf_heap: list[tuple[float, float, int]] = []
    tenant_queues: list[deque[int]] = [deque() for _ in range(n_tenants)]
    queued = 0

    def push(job: int) -> None:
        nonlocal queued
        queued += 1
        if policy == "fifo":
            fifo.append(job)
        elif policy == "sjf":
            heapq.heappush(sjf_heap,
                           (service[job], arrival[job], job))
        else:
            tenant_queues[trace.tenant[job]].append(job)

    def pop() -> int:
        nonlocal queued
        queued -= 1
        if policy == "fifo":
            return fifo.popleft()
        if policy == "sjf":
            return heapq.heappop(sjf_heap)[2]
        best: int | None = None
        best_key: tuple[float, float, int] | None = None
        for tenant, backlog in enumerate(tenant_queues):
            if not backlog:
                continue
            head = backlog[0]
            remaining = max(0.0, 1.0 - tenant_spent[tenant]
                            / budget_eps[tenant])
            key = (-remaining, float(arrival[head]), head)
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        assert best is not None  # callers guarantee a queued job
        return tenant_queues[best].popleft()

    # When autoscaling, the metric accumulator IS the autoscaler's p99
    # signal — one object, fed once per dispatch.
    waits = state.waits if state is not None else StreamingStats()
    # Pre-bound dispatch sink: one local-None check per dispatch when
    # observability is off, one list append when it is on.  The
    # sampling deadline is mirrored into a local for the same reason —
    # the per-event guard stays one float compare either way.
    obs_dispatch = obs.dispatches.append if obs is not None else None
    obs_next_sample_s = obs.next_sample_s if obs is not None else math.inf
    completions: list[float] = []
    idle = fleet.n_clusters
    busy_s = 0.0
    finished = 0
    truncated = 0
    makespan = 0.0
    index = 0
    now = 0.0

    while index < total or completions \
            or (state is not None and state.pending):
        # Same-time order: arrival, then provision, then completion
        # (arrivals win ties).
        t_arrival = arrival[index] if index < total else math.inf
        t_provision = (state.next_provision_s() if state is not None
                       else math.inf)
        t_completion = completions[0] if completions else math.inf
        if t_arrival <= t_provision and t_arrival <= t_completion:
            job = index
            now = float(t_arrival)
            index += 1
            tenant_spent[trace.tenant[job]] = \
                decisions.epsilon_after[job]
            if admitted[job]:
                push(job)
        elif t_provision <= t_completion:
            assert state is not None
            now = t_provision
            state.activate_one(now)
            idle += 1
        else:
            now = heapq.heappop(completions)
            idle += 1
        while idle and queued:
            job = pop()
            idle -= 1
            waits.add(float(now - arrival[job]))
            if dispatch_log is not None:
                dispatch_log.append((job, now))
            if obs_dispatch is not None:
                obs_dispatch((job, now))
            finish = float(now + service[job])
            heapq.heappush(completions, finish)
            busy_s += float(service[job])
            finished += 1
            if granted[job] < trace.steps[job]:
                truncated += 1
            if finish > makespan:
                makespan = finish
        if state is not None:
            delta = state.decide(now, queued, idle)
            if delta < 0:
                # Retired clusters leave the idle pool immediately;
                # scale-ups surface later as provision times.
                idle += delta
        if now >= obs_next_sample_s:
            assert obs is not None  # deadline is +inf otherwise
            obs.sample(now, queued, idle,
                       state.active if state is not None
                       else fleet.n_clusters,
                       len(state.pending) if state is not None else 0)
            obs_next_sample_s = obs.next_sample_s

    if state is not None:
        state.finalize(now)
    if obs is not None:
        obs.attach(policy=policy, trace=trace,
                   decisions=decisions, service=service,
                   state=state)
    return build_streaming_report(
        policy=policy,
        chips=fleet.chips,
        n_clusters=fleet.n_clusters,
        chips_per_cluster=fleet.chips_per_cluster,
        submitted=total,
        completed=finished,
        truncated=truncated,
        rejected=int((~admitted).sum()),
        makespan_s=makespan,
        busy_s=busy_s,
        waits=waits,
        admission=admission,
        autoscale=state,
    )


def _simulate_streaming_faulty(
    trace: TraceArrays,
    fleet: FleetConfig,
    *,
    policy: str,
    admission: AdmissionController,
    decisions: BatchAdmissionDecisions,
    autoscaler: AutoscalerPolicy | None,
    faults: FaultModel,
    cache: "runner.ResultCache | None",
    dispatch_log: "list[tuple[int, float]] | None",
    obs: "FleetObs | None",
    finishes: "array[float] | None",
) -> FleetReport:
    """The fault-injecting loop of :func:`simulate_fleet_streaming`.

    Differences from the zero-failure loop:

    - Completions, cluster repairs and job retries share one pending
      heap keyed ``(time, priority, seq)``; arrivals and provisioned
      clusters precede them at equal times.
    - Queues re-sort requeued jobs by their *original* arrival (and
      remaining service under SJF), so every policy keeps its
      ``min(queue, key)`` semantics; the budget policy reads the live
      ledger, which moves at crash time, not only at arrivals.
    - Every per-dispatch quantity is coerced to Python scalars before
      entering the :class:`~repro.serve.faults.FaultRun`, whose float
      arithmetic is pinned against a naive reference loop in the tests.
    - ``finishes`` (or ``obs``'s sink, when observing) receives each
      job's final finish time at its job id.
    """
    frun = FaultRun(faults, fleet, admission, cache=cache)
    frun.prime_first_failures(len(trace))
    step, service = _job_service_seconds(trace, decisions, fleet,
                                         cache=cache, faults=frun)
    state = (AutoscalerState(autoscaler,
                             initial_clusters=fleet.n_clusters,
                             chips_per_cluster=fleet.chips_per_cluster)
             if autoscaler is not None else None)

    total = len(trace)
    arrival = trace.arrival_s
    admitted = decisions.admitted
    granted = decisions.granted_steps
    steps_requested = trace.steps
    tenant_idx = trace.tenant
    tenant_names = trace.tenants
    model_idx = trace.model
    model_names = trace.models
    algo_idx = trace.algorithm
    algo_names = trace.algorithms
    batch_arr = trace.batch
    q_arr = trace.sampling_rate
    nm_arr = trace.noise_multiplier
    priv_arr = trace.is_private

    #: Live remaining-service predictions for the SJF key; retries
    #: shrink them to the remaining reservation's service time.
    service_live = [0.0] * total if policy == "sjf" else []
    if policy == "sjf":
        for job in range(total):
            service_live[job] = float(service[job])

    fifo_heap: list[tuple[float, int]] = []
    sjf_heap: list[tuple[float, float, int]] = []
    tenant_heaps: list[list[tuple[float, int]]] = \
        [[] for _ in range(len(tenant_names))]
    queued = 0

    def push(job: int) -> None:
        nonlocal queued
        queued += 1
        if policy == "fifo":
            heapq.heappush(fifo_heap, (float(arrival[job]), job))
        elif policy == "sjf":
            heapq.heappush(sjf_heap, (service_live[job],
                                      float(arrival[job]), job))
        else:
            heapq.heappush(tenant_heaps[int(tenant_idx[job])],
                           (float(arrival[job]), job))

    def pop() -> int:
        nonlocal queued
        queued -= 1
        if policy == "fifo":
            return heapq.heappop(fifo_heap)[1]
        if policy == "sjf":
            return heapq.heappop(sjf_heap)[2]
        best: int | None = None
        best_key: tuple[float, float, int] | None = None
        for tenant, backlog in enumerate(tenant_heaps):
            if not backlog:
                continue
            head_arrival, head = backlog[0]
            remaining = admission.remaining_fraction(tenant_names[tenant])
            key = (-remaining, head_arrival, head)
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        assert best is not None  # callers guarantee a queued job
        return heapq.heappop(tenant_heaps[best])[1]

    waits = state.waits if state is not None else StreamingStats()
    obs_dispatch = obs.dispatches.append if obs is not None else None
    obs_finish_s = obs.finish_sink(total) if obs is not None else finishes
    obs_next_sample_s = obs.next_sample_s if obs is not None else math.inf
    # Completions, repairs and retries in one heap; the priority slot
    # orders same-time events across kinds, the sequence within one.
    pending: list[tuple[float, int, int, int]] = []
    pseq = 0
    idle = fleet.n_clusters
    index = 0
    now = 0.0

    while index < total or pending \
            or (state is not None and state.pending):
        t_arrival = arrival[index] if index < total else math.inf
        t_provision = (state.next_provision_s() if state is not None
                       else math.inf)
        t_pending = pending[0][0] if pending else math.inf
        if t_arrival <= t_provision and t_arrival <= t_pending:
            job = index
            now = float(t_arrival)
            index += 1
            if admitted[job]:
                push(job)
        elif t_provision <= t_pending:
            assert state is not None
            now = t_provision
            state.activate_one(now)
            idle += 1
        else:
            now, prio, _, jid = heapq.heappop(pending)
            if prio == _PRIO_RETRY:
                push(jid)
            else:  # completion or repair: capacity returns either way
                idle += 1
        while idle and queued:
            job = pop()
            jid = int(job)
            idle -= 1
            waits.add(float(now - frun.ready_s(jid, float(arrival[job]))))
            outcome = frun.begin_attempt(
                jid, now,
                step_s=float(step[job]),
                granted=int(granted[job]),
                requested=int(steps_requested[job]),
                tenant=tenant_names[int(tenant_idx[job])],
                sampling_rate=float(q_arr[job]),
                noise_multiplier=float(nm_arr[job]),
                private=bool(priv_arr[job]),
                model_name=model_names[int(model_idx[job])],
                algorithm=algo_names[int(algo_idx[job])],
                batch=int(batch_arr[job]))
            if outcome.completed:
                heapq.heappush(pending, (outcome.free_s,
                                         _PRIO_COMPLETION, pseq, jid))
                pseq += 1
                if obs_finish_s is not None:
                    assert outcome.finish_s is not None  # completed
                    obs_finish_s[jid] = outcome.finish_s
            else:
                heapq.heappush(pending, (outcome.free_s, _PRIO_REPAIR,
                                         pseq, jid))
                pseq += 1
                if outcome.retry_s is not None:
                    if policy == "sjf":
                        service_live[jid] = frun.remaining_steps(
                            jid, int(granted[job])) * \
                            frun.effective_step_seconds(
                                model_names[int(model_idx[job])],
                                float(step[job]))
                    heapq.heappush(pending, (outcome.retry_s,
                                             _PRIO_RETRY, pseq, jid))
                    pseq += 1
            if dispatch_log is not None:
                dispatch_log.append((jid, now))
            if obs_dispatch is not None:
                obs_dispatch((jid, now))
        if state is not None:
            delta = state.decide(now, queued, idle)
            if delta < 0:
                idle += delta
        if now >= obs_next_sample_s:
            assert obs is not None  # deadline is +inf otherwise
            obs.sample(now, queued, idle,
                       state.active if state is not None
                       else fleet.n_clusters,
                       len(state.pending) if state is not None else 0)
            obs_next_sample_s = obs.next_sample_s

    if state is not None:
        state.finalize(now)
    if obs is not None:
        obs.attach(policy=policy, trace=trace,
                   decisions=decisions, service=service,
                   state=state, faults=frun)
    return build_streaming_report(
        policy=policy,
        chips=fleet.chips,
        n_clusters=fleet.n_clusters,
        chips_per_cluster=fleet.chips_per_cluster,
        submitted=total,
        completed=frun.completed,
        truncated=frun.truncated,
        rejected=int((~admitted).sum()),
        makespan_s=frun.makespan_s,
        busy_s=frun.busy_s,
        waits=waits,
        admission=admission,
        autoscale=state,
        faults=frun,
    )

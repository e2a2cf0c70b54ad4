"""Discrete-event fleet scheduler for multi-tenant DP training.

:func:`simulate_fleet` replays a job trace against a pool of identical
:class:`~repro.arch.cluster.Cluster`\\ s:

1. **Arrival** — the admission controller prices the job against its
   tenant's ``(epsilon, delta)`` budget (reject / truncate / admit) and
   reserves the grant immediately.
2. **Dispatch** — whenever a cluster is idle and jobs are queued, the
   scheduling policy picks the next job.  Service time is
   ``granted_steps x step latency``, where the step latency comes from
   :func:`repro.training.simulate.simulate_sharded_training_step` via
   the closed-form cycle engine — memoized in-process and optionally
   persisted through :func:`repro.experiments.runner.run_cached`,
   since traces repeat workload configurations.
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

import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.arch.interconnect import InterconnectConfig
from repro.experiments import runner
from repro.serve.autoscale import AutoscalerPolicy, AutoscalerState
from repro.serve.budget import (
    AdmissionController,
    AdmissionDecision,
    BatchAdmissionDecisions,
)
from repro.serve.faults import FaultModel, FaultRun
from repro.serve.job import TraceArrays, TrainingJob, unique_rows
from repro.serve.metrics import (
    FleetReport,
    build_report,
    build_streaming_report,
)
from repro.serve.stream import StreamingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fleet import FleetObs

#: Scheduling policies simulate_fleet understands.
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
    """Lifecycle of one job through the fleet."""

    job: TrainingJob
    decision: AdmissionDecision
    service_s: float = 0.0
    start_s: float | None = None
    finish_s: float | None = None
    cluster_index: int | None = None
    #: Abandoned after exhausting its retries (fault injection only).
    failed: bool = False

    @property
    def wait_s(self) -> float:
        """Queueing delay between arrival and dispatch."""
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


def _policy_select(
    policy: str, admission: AdmissionController,
) -> Callable[[list[JobRecord]], JobRecord]:
    """Dispatch selector: the queued record whose priority key is lowest."""
    if policy == "fifo":
        return lambda queue: min(
            queue, key=lambda rec: (rec.job.arrival_s, rec.job.job_id))
    if policy == "sjf":
        return lambda queue: min(
            queue, key=lambda rec: (rec.service_s, rec.job.arrival_s,
                                    rec.job.job_id))
    if policy == "budget":
        # remaining_fraction is read at dispatch time: each grant a
        # tenant burns pushes its queued jobs further back.  The ledger
        # cannot move during one selection, so read it once per tenant.
        def select(queue: list[JobRecord]) -> JobRecord:
            remaining = {tenant: admission.remaining_fraction(tenant)
                         for tenant in {rec.job.tenant for rec in queue}}
            return min(queue, key=lambda rec: (-remaining[rec.job.tenant],
                                               rec.job.arrival_s,
                                               rec.job.job_id))
        return select
    raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")


#: Same-timestamp event order: arrivals, then provisioned clusters
#: coming online, then completions, then repaired clusters rejoining,
#: then retried jobs requeueing.  Both simulators implement this
#: order, which keeps their schedules identical under autoscaling and
#: fault injection alike.
_PRIO_ARRIVAL, _PRIO_PROVISION, _PRIO_COMPLETION = 0, 1, 2
_PRIO_REPAIR, _PRIO_RETRY = 3, 4


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
    """Replay ``trace`` on ``fleet`` under ``policy`` and report.

    Deterministic: the same trace, fleet, policy and admission
    configuration always produce the identical report.

    ``autoscaler`` turns the static cluster pool into a reactive one
    (see :mod:`repro.serve.autoscale`): after each event's dispatch
    loop settles, the policy may request new clusters (online after
    its provisioning delay) or retire idle ones, and the report gains
    scale events plus chip-hour cost.  ``dispatch_log``, when given,
    receives ``(job_id, start_s)`` per dispatch in dispatch order —
    the observable the streaming-equivalence tests pin.

    ``obs`` (a :class:`repro.obs.fleet.FleetObs`) observes the run:
    one windowed load sample per elapsed metrics window in-loop, and
    the finished records attached at the end for span building /
    metric folding in ``obs.export()``.  ``None`` (default) is the
    exact pre-observability code path.

    ``faults`` (a :class:`~repro.serve.faults.FaultModel`) injects
    seeded failures: attempts crash mid-service, jobs requeue with
    capped backoff or continue degraded at a smaller ``dp'``, clusters
    repair after a downtime, and the admission ledger is re-priced per
    crash (see :mod:`repro.serve.faults`).  With faults on, the whole
    trace is admitted upfront in arrival order — decision-identical to
    the streaming loop's batched admission — so crash-time ledger
    transactions interleave identically in both simulators.  ``None``
    (default) is the exact zero-failure code path, byte-identical to
    the pre-fault-injection simulator.
    """
    if admission is None:
        admission = AdmissionController()
    select = _policy_select(policy, admission)
    state = (AutoscalerState(autoscaler,
                             initial_clusters=fleet.n_clusters,
                             chips_per_cluster=fleet.chips_per_cluster)
             if autoscaler is not None else None)
    frun = (FaultRun(faults, fleet, admission, cache=cache)
            if faults is not None else None)
    if frun is not None:
        frun.prime_first_failures(len(trace))

    # Event heap: (time, priority, seq, kind, payload).  priority
    # orders simultaneous events across kinds, seq within a kind;
    # payloads are never compared.
    events: list[tuple[float, int, int, str,
                       JobRecord | TrainingJob | int | None]] = []
    seq = 0
    predecided: dict[int, AdmissionDecision] = {}
    for job in sorted(trace, key=lambda j: (j.arrival_s, j.job_id)):
        heapq.heappush(events,
                       (job.arrival_s, _PRIO_ARRIVAL, seq, "arrival", job))
        seq += 1
        if frun is not None:
            # Upfront admission in arrival order — the scalar twin of
            # admit_batch, so retry re-pricing sees the same ledger in
            # both simulators.
            predecided[job.job_id] = admission.admit(job)

    idle: list[int] = list(range(fleet.n_clusters))
    heapq.heapify(idle)
    next_cluster = fleet.n_clusters
    queue: list[JobRecord] = []
    records: list[JobRecord] = []
    # With faults on, wait percentiles fold into the same streaming
    # accumulator the streaming loop uses (per-dispatch, retries
    # included), keeping the two reports identical.
    step_by_job: dict[int, float] = {}
    waits = (state.waits if state is not None else StreamingStats()) \
        if frun is not None else None
    # Local mirror of the observer's sampling deadline: the per-event
    # guard is one float compare whether observability is on or off.
    obs_next_sample_s = obs.next_sample_s if obs is not None else math.inf
    now = 0.0

    while events:
        now, _, _, kind, payload = heapq.heappop(events)
        if kind == "arrival":
            assert isinstance(payload, TrainingJob)
            job = payload
            decision = (predecided[job.job_id] if frun is not None
                        else admission.admit(job))
            record = JobRecord(job=job, decision=decision)
            records.append(record)
            if decision.admitted:
                step_s = predict_step_seconds(fleet, job, cache=cache)
                if frun is not None:
                    step_by_job[job.job_id] = step_s
                    record.service_s = decision.granted_steps * \
                        frun.effective_step_seconds(job.model, step_s)
                else:
                    record.service_s = decision.granted_steps * step_s
                queue.append(record)
        elif kind == "provision":
            assert state is not None
            state.activate_one(now)
            heapq.heappush(idle, next_cluster)
            next_cluster += 1
        elif kind == "repair":
            assert isinstance(payload, int)
            heapq.heappush(idle, payload)
        elif kind == "retry":
            assert isinstance(payload, JobRecord)
            queue.append(payload)
        else:  # completion
            assert isinstance(payload, JobRecord)
            record = payload
            assert record.cluster_index is not None
            heapq.heappush(idle, record.cluster_index)
        while idle and queue:
            nxt = select(queue)
            queue.remove(nxt)
            nxt.cluster_index = heapq.heappop(idle)
            if frun is None:
                nxt.start_s = now
                nxt.finish_s = now + nxt.service_s
                heapq.heappush(events, (nxt.finish_s, _PRIO_COMPLETION,
                                        seq, "completion", nxt))
                seq += 1
                if state is not None:
                    state.record_wait(nxt.wait_s)
            else:
                job_id = nxt.job.job_id
                if nxt.start_s is None:
                    nxt.start_s = now
                assert waits is not None
                waits.add(float(now - frun.ready_s(job_id,
                                                   nxt.job.arrival_s)))
                outcome = frun.begin_attempt(
                    job_id, now,
                    step_s=step_by_job[job_id],
                    granted=nxt.decision.granted_steps,
                    requested=nxt.job.steps,
                    tenant=nxt.job.tenant,
                    sampling_rate=nxt.job.sampling_rate,
                    noise_multiplier=nxt.job.noise_multiplier,
                    private=nxt.job.is_private,
                    model_name=nxt.job.model,
                    algorithm=nxt.job.algorithm,
                    batch=nxt.job.batch)
                if outcome.completed:
                    nxt.finish_s = outcome.finish_s
                    heapq.heappush(events, (outcome.free_s,
                                            _PRIO_COMPLETION, seq,
                                            "completion", nxt))
                    seq += 1
                else:
                    # The cluster goes down for repair; the job either
                    # requeues after its backoff or is abandoned.
                    assert nxt.cluster_index is not None
                    heapq.heappush(events, (outcome.free_s, _PRIO_REPAIR,
                                            seq, "repair",
                                            nxt.cluster_index))
                    seq += 1
                    if outcome.retry_s is not None:
                        nxt.service_s = frun.remaining_steps(
                            job_id, nxt.decision.granted_steps) * \
                            frun.effective_step_seconds(
                                nxt.job.model, step_by_job[job_id])
                        heapq.heappush(events, (outcome.retry_s,
                                                _PRIO_RETRY, seq,
                                                "retry", nxt))
                        seq += 1
                    else:
                        nxt.failed = outcome.failed
            if dispatch_log is not None:
                dispatch_log.append((nxt.job.job_id, now))
        if state is not None:
            delta = state.decide(now, len(queue), len(idle))
            if delta > 0:
                for _ in range(delta):
                    heapq.heappush(
                        events,
                        (now + state.policy.provision_delay_s,
                         _PRIO_PROVISION, seq, "provision", None))
                    seq += 1
            elif delta < 0:
                # Retire the newest idle clusters first, keeping the
                # base fleet's low indices stable.
                for _ in range(-delta):
                    idle.remove(max(idle))
                heapq.heapify(idle)
        if now >= obs_next_sample_s:
            assert obs is not None  # deadline is +inf otherwise
            obs.sample(now, len(queue), len(idle),
                       state.active if state is not None
                       else fleet.n_clusters,
                       len(state.pending) if state is not None else 0)
            obs_next_sample_s = obs.next_sample_s

    if state is not None:
        state.finalize(now)
    if obs is not None:
        obs.attach_scalar(policy=policy, records=records, state=state,
                          faults=frun)
    if frun is not None:
        # Fault metrics live in the FaultRun, fed by both loops in the
        # same dispatch order — so the faulty scalar report is built by
        # the same fold as the streaming one (plus the records).
        assert waits is not None
        return build_streaming_report(
            policy=policy,
            chips=fleet.chips,
            n_clusters=fleet.n_clusters,
            chips_per_cluster=fleet.chips_per_cluster,
            submitted=len(records),
            completed=frun.completed,
            truncated=frun.truncated,
            rejected=sum(1 for r in records if not r.decision.admitted),
            makespan_s=frun.makespan_s,
            busy_s=frun.busy_s,
            waits=waits,
            admission=admission,
            autoscale=state,
            faults=frun,
            records=tuple(records),
        )
    return build_report(
        policy=policy,
        chips=fleet.chips,
        n_clusters=fleet.n_clusters,
        chips_per_cluster=fleet.chips_per_cluster,
        records=records,
        admission=admission,
        autoscale=state,
    )


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


def _job_step_table(
    trace: TraceArrays,
    fleet: FleetConfig,
    cache: "runner.ResultCache | None" = None,
) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """``(unique configs, inverse, step table)`` over the trace.

    One batched evaluation prices every unique
    (model, algorithm, rounded-batch) configuration; ``table[inverse]``
    is the per-job base step latency.
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
    return unique, inverse, table


def _job_service_seconds(
    trace: TraceArrays,
    decisions: BatchAdmissionDecisions,
    fleet: FleetConfig,
    cache: "runner.ResultCache | None" = None,
) -> NDArray[Any]:
    """Per-job service times from one batched service-time table.

    Builds the (model, algorithm, rounded-batch) table with a single
    batched evaluation over the trace's unique configurations, then
    gathers ``granted_steps x step latency`` per job.
    """
    _, inverse, table = _job_step_table(trace, fleet, cache=cache)
    return decisions.granted_steps * table[inverse]


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
) -> FleetReport:
    """Replay an array trace on ``fleet`` with O(1) metric memory.

    The million-job counterpart of :func:`simulate_fleet`: admission
    decides the whole trace in one batched pass (decision-identical to
    the scalar controller), service times come from one precomputed
    batched step-latency table, the event loop walks the arrival
    arrays directly (the completion heap never exceeds the cluster
    count), and metrics fold into streaming accumulators — no per-job
    record list is ever materialized, so the report's ``records`` are
    empty and the wait percentiles are exact below the warmup size and
    P² estimates beyond it.

    Pass ``decisions`` to reuse one admission pass across policies
    (admission happens at arrival, so it is policy-invariant); the
    ``admission`` controller must then be the one that produced them.

    ``autoscaler`` and ``dispatch_log`` mirror :func:`simulate_fleet`
    exactly: the same :class:`~repro.serve.autoscale.AutoscalerState`
    drives both loops through the same observation sequence, so scale
    events, dispatch order and the chip-hour ledger are
    decision-identical between the two simulators.

    ``obs`` also mirrors :func:`simulate_fleet` — with one extra
    in-loop hook: since this loop keeps no per-job records, each
    dispatch appends ``(job_id, start_s)`` to the observer's sink (and,
    with faults on, each completion stores its finish time) so
    ``obs.export()`` can rebuild job lifecycles afterwards.  The
    sampling points are event-for-event identical to the scalar
    loop's, which makes the two simulators' exported span sets (and
    windowed metric series) identical too.
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
            cache=cache, dispatch_log=dispatch_log, obs=obs)
    service = _job_service_seconds(trace, decisions, fleet, cache=cache)
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
    # decision stream's epsilon_after reproduces the scalar ledger.
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
    # signal — one object, fed once per dispatch, exactly as the
    # scalar loop feeds it through record_wait.
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
        # Same-time order matches the scalar event heap: arrival,
        # then provision, then completion (arrivals win ties).
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
        obs.attach_streaming(policy=policy, trace=trace,
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
) -> FleetReport:
    """The fault-injecting twin of :func:`simulate_fleet_streaming`.

    Differences from the zero-failure loop, each mirroring the scalar
    simulator exactly:

    - Completions, cluster repairs and job retries share one pending
      heap keyed ``(time, priority, seq)`` — the same total order the
      scalar event heap imposes.
    - Queues re-sort requeued jobs by their *original* arrival (and
      remaining service under SJF), so every policy keeps the scalar
      ``min(queue, key)`` semantics; the budget policy reads the live
      ledger, which moves at crash time, not only at arrivals.
    - Every per-dispatch quantity is coerced to Python scalars before
      entering the shared :class:`~repro.serve.faults.FaultRun`, so
      both simulators execute bit-identical float arithmetic.
    """
    frun = FaultRun(faults, fleet, admission, cache=cache)
    frun.prime_first_failures(len(trace))
    unique, inverse, table = _job_step_table(trace, fleet, cache=cache)
    # Checkpoint-amortized step per unique config, through the same
    # scalar helper (and memo) the scalar loop uses per job.
    eff_table = np.array([
        frun.effective_step_seconds(trace.models[int(row[0])],
                                    float(table[pos]))
        for pos, row in enumerate(unique)])
    step = table[inverse]
    service = decisions.granted_steps * eff_table[inverse]
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
    #: shrink them exactly as the scalar loop rewrites ``service_s``.
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
    obs_finish_s = obs.finish_sink(total) if obs is not None else None
    obs_next_sample_s = obs.next_sample_s if obs is not None else math.inf
    # Completions, repairs and retries in one heap; the priority slot
    # reuses the scalar loop's constants, so popping order is the
    # scalar event heap's order restricted to these kinds.
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
        obs.attach_streaming(policy=policy, trace=trace,
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

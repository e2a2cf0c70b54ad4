"""Discrete-event fleet scheduler for multi-tenant DP training.

:func:`simulate_fleet_streaming` replays an array trace
(:class:`~repro.serve.job.TraceArrays`) against a pool of identical
:class:`~repro.arch.cluster.Cluster`\\ s.

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
3. **Completion** — the cluster frees and the dispatch loop runs again
   (under ``faults`` an attempt may crash instead, then requeue).

The event loop draws from four sources, and at one instant they fire
in this order: arrivals (a pointer into the arrival column), then
provisioned clusters (the autoscaler's pending activations), then
capacity returns (a heap of plain float times: completions, degraded
continuations and repair ends, each handing one cluster back to the
idle pool), then retries (a ``(ready_s, seq, job)`` heap, pushed only
under faults; ``seq`` keeps same-instant retries in push order).
Clusters are anonymous, so same-instant capacity returns need no
order among themselves.  An admitted arrival that finds an idle
cluster and an empty queue dispatches at once: every policy's queue
would hand that job straight back.

Each dispatch appends its queueing wait to one ``array('d')`` column;
the report's p50/p95/p99 are exact nearest-rank percentiles over it
(:func:`~repro.serve.metrics.build_streaming_report`), so they depend
on the wait multiset alone, never on dispatch order.

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
from array import array
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.arch.batch import unique_rows
from repro.arch.interconnect import InterconnectConfig, fabric_named
from repro.experiments import runner
from repro.serve.autoscale import AutoscalerPolicy, AutoscalerState
from repro.serve.budget import AdmissionController, BatchAdmissionDecisions
from repro.serve.faults import FaultModel, FaultRun
from repro.serve.job import TraceArrays
from repro.serve.metrics import FleetReport, build_streaming_report

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
    them up transparently through the batched sharded step.
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
        # The fabric knobs (fabric, topology, bucket_bytes,
        # chips_per_node) validate themselves; divisibility is ours.
        self.interconnect
        if self.topology == "hierarchical" and self.dp > 1 \
                and self.dp % self.chips_per_node:
            # Single-replica clusters are exempt: no DP collectives.
            raise ValueError(
                f"{self.dp} data-parallel chips per cluster do not "
                f"group into hierarchical nodes of {self.chips_per_node}")

    @property
    def interconnect(self) -> InterconnectConfig:
        """Each cluster's chip-to-chip fabric."""
        return InterconnectConfig(
            topology=self.topology, bucket_bytes=self.bucket_bytes,
            chips_per_node=self.chips_per_node,
            fabric=None if self.fabric is None else fabric_named(self.fabric))

    @property
    def n_clusters(self) -> int:
        return self.chips // self.chips_per_cluster

    @property
    def dp(self) -> int:
        """Data-parallel replicas per cluster (batch-rounding width)."""
        return self.chips_per_cluster // (self.pp * self.tp)


def predict_step_seconds_batch(
    fleet: FleetConfig,
    models: Sequence[str],
    algorithms: Sequence[str],
    batches: Sequence[int],
    cache: "runner.ResultCache | None" = None,
) -> NDArray[Any]:
    """Step latencies for many (model, algorithm, batch) configs at once.

    One :func:`repro.training.sharded_step_batch` call prices every
    cache-missing config (``batches`` must already be rounded to the
    cluster width).
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
) -> tuple[NDArray[Any] | None, NDArray[Any]]:
    """Per-job ``(base step latency, service time)`` from one table.

    One batched evaluation prices every unique
    (model, algorithm, rounded-batch) configuration of the trace; the
    service time is ``granted_steps x step latency``.  With ``faults``
    the step latency is checkpoint-amortized, through the same scalar
    helper (and memo) the fault model uses per attempt, and the base
    latency column is returned for the attempts to read; without, it
    is ``None``.
    """
    # Each job's (model, algorithm, batch) as one code over the
    # vocabularies (batches ranked among their distinct values), then
    # as its position among the codes in use: in-place passes and
    # value sorts, no per-job argsort.
    batches = np.unique(trace.batch)
    code = trace.model.astype(np.int64)
    code *= len(trace.algorithms)
    code += trace.algorithm
    code *= len(batches)
    code += np.searchsorted(batches, trace.batch)
    used = np.unique(code)
    code = np.searchsorted(used, code)
    model_algorithm, batch = np.divmod(used, len(batches))
    model, algorithm = np.divmod(model_algorithm, len(trace.algorithms))
    width = fleet.dp
    rounded = np.ceil(batches[batch] / width).astype(np.int64) * width
    # The priced rows, and their order, are the per-job rows'.
    unique, row_of = unique_rows(model, algorithm, rounded)
    table = predict_step_seconds_batch(
        fleet,
        [trace.models[int(row[0])] for row in unique],
        [trace.algorithms[int(row[1])] for row in unique],
        unique[:, 2].tolist(),
        cache=cache)
    step: NDArray[Any] | None = None
    effective = table
    if faults is not None:
        step = table[row_of][code]
        effective = np.array([
            faults.effective_step_seconds(trace.models[int(row[0])],
                                          float(table[pos]))
            for pos, row in enumerate(unique)])
    service = effective[row_of][code]
    np.multiply(decisions.granted_steps, service, out=service)
    return step, service


def _column(values: NDArray[Any], dtype: Any) -> memoryview[Any]:
    """One per-job column as a memoryview of ``dtype`` items.

    Indexing the view yields a Python scalar.  Zero-copy for the
    contiguous columns every trace builder makes; a strided or
    differently typed column is copied once.
    """
    return memoryview(np.ascontiguousarray(values, dtype=dtype))


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
    """Replay an array trace on ``fleet``; 8 bytes of metrics per dispatch.

    The fleet simulator.  Admission decides the whole trace in one
    batched pass (decision-identical to deciding job by job, the scalar
    oracle in ``tests/``),
    service times come from one precomputed batched step-latency
    table, the event loop walks the arrival arrays directly beside a
    float heap of capacity returns (plus a retry heap under faults; the
    module docstring gives the same-instant order), and metrics fold
    into running totals plus one 8-byte wait per dispatch.  The loop
    reads every per-job column through a zero-copy ``memoryview`` (a
    strided or differently typed column is copied once), so no event
    creates a NumPy scalar, and the policy's queue ``push``/``pop`` are
    bound once per run.  No per-job record list is ever materialized
    (``obs`` rebuilds per-job columns afterwards); the wait percentiles
    are exact nearest-rank over the wait column.  Job ids are array
    positions.  Deterministic: the same trace, fleet, policy and
    admission configuration always produce the identical report.

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
    crash (see :mod:`repro.serve.faults`).  Only then does a
    :class:`~repro.serve.faults.FaultRun` exist to book attempts;
    ``None`` (default) books every dispatch as a clean completion.

    ``obs`` (a :class:`repro.obs.fleet.FleetObs`) observes the run:
    each job's first dispatch stores its start time in the observer's
    per-job slot (and, with faults on, each completion stores its
    finish time), one windowed load sample is taken per elapsed metrics
    window, and ``obs.export()`` rebuilds job lifecycles afterwards.  ``None``
    (default) skips every hook.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; "
                         f"choose from {POLICIES}")
    if admission is None:
        admission = AdmissionController()
    if decisions is None:
        decisions = admission.admit_batch(trace)
    total = len(trace)
    frun: FaultRun | None = None
    # Per-job final finishes, stored under faults for the observer.
    finishes: "array[float] | None" = None
    if faults is not None:
        frun = FaultRun(faults, fleet, admission, cache=cache)
        frun.prime_first_failures(decisions.admitted)
        if obs is not None:
            finishes = obs.finish_sink(total)
    step_table, service_table = _job_service_seconds(
        trace, decisions, fleet, cache=cache, faults=frun)
    state = (AutoscalerState(autoscaler,
                             initial_clusters=fleet.n_clusters,
                             chips_per_cluster=fleet.chips_per_cluster)
             if autoscaler is not None else None)

    # The loop reads every per-job column through a memoryview, so an
    # index yields a Python float/int/bool, never a NumPy scalar.
    arrival = _column(trace.arrival_s, np.float64)
    admitted_mask = decisions.admitted
    admitted = _column(admitted_mask, np.bool_)
    service = _column(service_table, np.float64)
    # Truncated by admission.
    short = _column(decisions.granted_steps < trace.steps, np.bool_)
    tenant = _column(trace.tenant, np.int32)
    epsilon_after = _column(decisions.epsilon_after, np.float64)
    if frun is not None:
        # Whose first attempt can neither crash nor straggle, so it
        # runs inline like a zero-fault one; the rest go through
        # begin_attempt, which reads the columns below.
        clean = _column(frun.clean_first_attempts(service_table), np.bool_)
        assert step_table is not None  # priced whenever faults are on
        step = _column(step_table, np.float64)
        granted = _column(decisions.granted_steps, np.int64)
        requested = _column(trace.steps, np.int64)
        sampling_rate = _column(trace.sampling_rate, np.float64)
        noise = _column(trace.noise_multiplier, np.float64)
        private = _column(trace.is_private, np.bool_)
        model = _column(trace.model, np.int32)
        algorithm = _column(trace.algorithm, np.int32)
        batch = _column(trace.batch, np.int64)

    # The budget policy ranks tenants by unspent epsilon fraction.  A
    # faulty run reads the live ledger, which crashes re-price.  A clean
    # run's ledger holds every grant from the start, so it tracks each
    # tenant's epsilon_after per arrival: the ledger as of that moment.
    track_spend = policy == "budget" and frun is None
    spent = [0.0] * len(trace.tenants)
    budget_eps = [admission.budget_for(t).epsilon for t in trace.tenants]
    ledger_remaining = admission.remaining_fraction

    if frun is None:
        def remaining(group: int) -> float:
            return max(0.0, 1.0 - spent[group] / budget_eps[group])
    else:
        def remaining(group: int) -> float:
            return ledger_remaining(trace.tenants[group])

    # The queue discipline is bound once per run.  Queues hold array
    # positions.  Arrivals are nondecreasing, so position order is
    # (arrival, job_id) order, and a requeued retry re-sorts by its
    # original arrival with no extra key.
    heappush, heappop = heapq.heappush, heapq.heappop
    push: Callable[[int], None]
    pop: Callable[[], int]
    if policy == "fifo":
        fifo: list[int] = []
        push, pop = partial(heappush, fifo), partial(heappop, fifo)
    elif policy == "sjf":
        sjf: list[tuple[float, int]] = []
        # Remaining-service predictions; a retry shrinks its job's to
        # the remaining reservation's service time (in a copy).
        live = (_column(service_table.copy(), np.float64)
                if frun is not None else service)

        def push_sjf(job: int) -> None:
            heappush(sjf, (live[job], job))

        def pop_sjf() -> int:
            return heappop(sjf)[1]

        push, pop = push_sjf, pop_sjf
    else:
        tenant_queues: list[list[int]] = [[] for _ in trace.tenants]

        def push_budget(job: int) -> None:
            heappush(tenant_queues[tenant[job]], job)

        def pop_budget() -> int:
            best, best_key = 0, (math.inf, 0)
            for group, backlog in enumerate(tenant_queues):
                if backlog:
                    key = (-remaining(group), backlog[0])
                    if key < best_key:
                        best, best_key = group, key
            return heappop(tenant_queues[best])

        push, pop = push_budget, pop_budget
    queued = 0

    # One 8-byte wait per dispatch; the report's percentiles are exact
    # over this column.  The autoscaler keeps its own p99 counters.
    waits: array[float] = array("d")
    # Per-dispatch hooks sit behind one flag: the autoscaler's wait
    # counters, the caller's dispatch log and the observer's per-job
    # first-start slots.  The sampling deadline is mirrored into a
    # local, so the per-event guard stays one float compare.
    starts = obs.start_sink(total) if obs is not None else None
    hooks = state is not None or dispatch_log is not None \
        or starts is not None
    isnan = math.isnan
    inf = math.inf
    obs_next_sample_s = obs.next_sample_s if obs is not None else inf
    # Two of the four event sources (module docstring).
    returns: list[float] = []
    retries: list[tuple[float, int, int]] = []
    idle = fleet.n_clusters
    busy_s = makespan = now = 0.0
    completed = truncated = index = seq = 0

    while index < total or returns or retries \
            or (state is not None and state.pending):
        t_arrival = arrival[index] if index < total else inf
        t_provision = (state.next_provision_s() if state is not None
                       else inf)
        t_return = returns[0] if returns else inf
        t_retry = retries[0][0] if retries else inf
        # Same instant: arrival < provision < capacity return < retry.
        # ``job`` >= 0 is an arrival to dispatch without queueing.
        job = -1
        if t_arrival <= t_provision and t_arrival <= t_return \
                and t_arrival <= t_retry:
            now = t_arrival
            if track_spend:
                spent[tenant[index]] = epsilon_after[index]
            if admitted[index]:
                if queued or not idle:
                    push(index)
                    queued += 1
                else:
                    # Idle cluster, empty queue: any policy's pop
                    # would return this job.
                    job = index
            index += 1
        elif t_provision <= t_return and t_provision <= t_retry:
            assert state is not None
            now = t_provision
            state.activate_one(now)
            idle += 1
        elif t_return <= t_retry:
            now = heappop(returns)
            idle += 1
        else:
            now, _, retried = heappop(retries)
            push(retried)
            queued += 1
        while job >= 0 or (idle and queued):
            if job < 0:
                job = pop()
                queued -= 1
            idle -= 1
            if frun is None or clean[job]:
                wait = now - arrival[job]
                service_s = service[job]
                finish = now + service_s
                heappush(returns, finish)
                if frun is None:
                    busy_s += service_s
                    completed += 1
                    if short[job]:
                        truncated += 1
                    if finish > makespan:
                        makespan = finish
                else:
                    frun.book_clean(finish, service_s, short[job])
                    if finishes is not None:
                        finishes[job] = finish
            else:
                wait = now - frun.ready_s(job, arrival[job])
                model_name = trace.models[model[job]]
                outcome = frun.begin_attempt(
                    job, now,
                    step_s=step[job],
                    granted=granted[job],
                    requested=requested[job],
                    tenant=trace.tenants[tenant[job]],
                    sampling_rate=sampling_rate[job],
                    noise_multiplier=noise[job],
                    private=private[job],
                    model_name=model_name,
                    algorithm=trace.algorithms[algorithm[job]],
                    batch=batch[job])
                heappush(returns, outcome.free_s)
                if outcome.completed:
                    if finishes is not None:
                        assert outcome.finish_s is not None  # completed
                        finishes[job] = outcome.finish_s
                elif outcome.retry_s is not None:
                    if policy == "sjf":
                        live[job] = frun.remaining_steps(
                            job, granted[job]) * \
                            frun.effective_step_seconds(model_name,
                                                        step[job])
                    heappush(retries, (outcome.retry_s, seq, job))
                    seq += 1
            waits.append(wait)
            if hooks:
                if state is not None:
                    state.record_wait(wait)
                if dispatch_log is not None:
                    dispatch_log.append((job, now))
                # A retry keeps its job's first start.
                if starts is not None \
                        and (frun is None or isnan(starts[job])):
                    starts[job] = now
            job = -1
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
    if frun is not None:
        completed, truncated = frun.completed, frun.truncated
        busy_s, makespan = frun.busy_s, frun.makespan_s
    if obs is not None:
        obs.attach(policy=policy, trace=trace,
                   decisions=decisions, service=service_table,
                   state=state, faults=frun)
    return build_streaming_report(
        policy=policy,
        chips=fleet.chips,
        n_clusters=fleet.n_clusters,
        chips_per_cluster=fleet.chips_per_cluster,
        submitted=total,
        completed=completed,
        truncated=truncated,
        rejected=int((~admitted_mask).sum()),
        makespan_s=makespan,
        busy_s=busy_s,
        waits=waits,
        admission=admission,
        autoscale=state,
        faults=frun,
    )

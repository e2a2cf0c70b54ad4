"""The fleet simulator against a deliberately naive reference loop.

``reference_fleet`` below is the simplest simulator that could be
right: one event heap, every queued job in a plain list, the next job
picked with ``min(queue, key)``, scalar admission
(:meth:`AdmissionController.admit`) and scalar service-time
prediction (:func:`predict_step_seconds`) per job, the autoscaler and
the fault model driven through their public calls.  It keeps no
observability and no per-job records, and it draws every failure one
by one instead of priming the vectorized first-attempt table.

On ≤2k-job traces, :func:`simulate_fleet_streaming` must reproduce its
dispatch log and report exactly — for every policy, on static and
autoscaled fleets, with and without fault injection.
"""

import heapq
import itertools

import pytest

from repro.serve import (
    AdmissionController,
    AutoscalerPolicy,
    AutoscalerState,
    FaultConfig,
    FaultModel,
    FaultRun,
    FleetConfig,
    StreamingStats,
    TenantBudget,
    TraceArrays,
    TraceConfig,
    build_streaming_report,
    generate_trace,
    percentile,
    simulate_fleet_streaming,
)
from repro.serve.scheduler import POLICIES, predict_step_seconds
from repro.training import CheckpointConfig

#: Same-time event order: arrivals, provisioned clusters, completions,
#: repaired clusters, retried jobs.
_ARRIVAL, _PROVISION, _COMPLETION, _REPAIR, _RETRY = range(5)


def reference_fleet(trace, fleet, *, policy, admission, autoscaler=None,
                    faults=None):
    """``(dispatch_log, report, waits)`` of one naive replay of ``trace``."""
    state = (AutoscalerState(autoscaler, initial_clusters=fleet.n_clusters,
                             chips_per_cluster=fleet.chips_per_cluster)
             if autoscaler is not None else None)
    frun = FaultRun(faults, fleet, admission) if faults is not None \
        else None
    jobs = sorted(trace, key=lambda j: (j.arrival_s, j.job_id))
    seq = itertools.count()
    events = [(job.arrival_s, _ARRIVAL, next(seq), job) for job in jobs]
    heapq.heapify(events)
    # With faults, crash-time re-pricing must see a ledger that already
    # holds every grant, so the whole trace is admitted upfront.
    upfront = {job.job_id: admission.admit(job) for job in jobs} \
        if frun is not None else {}

    granted, step, service = {}, {}, {}
    queue = []
    idle = fleet.n_clusters
    stats = state.waits if state is not None else StreamingStats()
    log, waits = [], []
    rejected = completed = truncated = 0
    busy_s = makespan_s = now = 0.0

    def key(job):
        if policy == "fifo":
            return (job.arrival_s, job.job_id)
        if policy == "sjf":
            return (service[job.job_id], job.arrival_s, job.job_id)
        return (-admission.remaining_fraction(job.tenant), job.arrival_s,
                job.job_id)

    while events:
        now, kind, _, job = heapq.heappop(events)
        if kind == _ARRIVAL:
            decision = upfront[job.job_id] if frun is not None \
                else admission.admit(job)
            if not decision.admitted:
                rejected += 1
            else:
                jid = job.job_id
                granted[jid] = decision.granted_steps
                step[jid] = predict_step_seconds(fleet, job)
                per_step = (frun.effective_step_seconds(job.model, step[jid])
                            if frun is not None else step[jid])
                service[jid] = granted[jid] * per_step
                queue.append(job)
        elif kind == _PROVISION:
            state.activate_one(now)
            idle += 1
        elif kind == _RETRY:
            queue.append(job)
        else:  # completion or repair: the cluster is free again
            idle += 1
        while idle and queue:
            job = min(queue, key=key)
            queue.remove(job)
            idle -= 1
            jid = job.job_id
            log.append((jid, now))
            if frun is None:
                wait = now - job.arrival_s
                finish = now + service[jid]
                heapq.heappush(events,
                               (finish, _COMPLETION, next(seq), None))
                busy_s += service[jid]
                completed += 1
                truncated += granted[jid] < job.steps
                makespan_s = max(makespan_s, finish)
            else:
                wait = now - frun.ready_s(jid, job.arrival_s)
                outcome = frun.begin_attempt(
                    jid, now, step_s=step[jid], granted=granted[jid],
                    requested=job.steps, tenant=job.tenant,
                    sampling_rate=job.sampling_rate,
                    noise_multiplier=job.noise_multiplier,
                    private=job.is_private, model_name=job.model,
                    algorithm=job.algorithm, batch=job.batch)
                if outcome.completed:
                    heapq.heappush(events, (outcome.free_s, _COMPLETION,
                                            next(seq), None))
                else:
                    heapq.heappush(events, (outcome.free_s, _REPAIR,
                                            next(seq), None))
                    if outcome.retry_s is not None:
                        service[jid] = frun.remaining_steps(
                            jid, granted[jid]) * frun.effective_step_seconds(
                                job.model, step[jid])
                        heapq.heappush(events, (outcome.retry_s, _RETRY,
                                                next(seq), job))
            waits.append(wait)
            stats.add(wait)
        if state is not None:
            delta = state.decide(now, len(queue), idle)
            for _ in range(delta):
                heapq.heappush(events,
                               (now + autoscaler.provision_delay_s,
                                _PROVISION, next(seq), None))
            if delta < 0:
                idle += delta
    if state is not None:
        state.finalize(now)
    if frun is not None:
        completed, truncated = frun.completed, frun.truncated
        busy_s, makespan_s = frun.busy_s, frun.makespan_s
    report = build_streaming_report(
        policy, fleet.chips, fleet.n_clusters, fleet.chips_per_cluster,
        submitted=len(jobs), completed=completed, truncated=truncated,
        rejected=rejected, makespan_s=makespan_s, busy_s=busy_s,
        waits=stats, admission=admission, autoscale=state, faults=frun)
    return log, report, waits


AUTOSCALE = AutoscalerPolicy(max_clusters=12, provision_delay_s=30.0,
                             cooldown_s=20.0, target_p99_wait_s=60.0)

#: Hot enough to crash, degrade, retry and abandon on a short trace.
FAULTS = FaultConfig(
    mtbf_hours=0.05, straggler_rate=0.2, correlated_fraction=0.3,
    degrade_fraction=0.7, repair_hours=0.02,
    checkpoint=CheckpointConfig(interval_steps=100), seed=3)

#: Queues build at this arrival rate, so the policies disagree.
ZERO_FAULT_TRACE = TraceConfig(jobs=2_000, seed=13, mean_interarrival_s=0.5)
FAULTY_TRACE = TraceConfig(jobs=1_500, seed=5, shape="bursty",
                           mean_interarrival_s=0.3)


@pytest.fixture(scope="module")
def traces():
    return {config: generate_trace(config)
            for config in (ZERO_FAULT_TRACE, FAULTY_TRACE)}


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("autoscaled", (False, True),
                             ids=("static", "autoscaled"))
    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("zero-fault", "faulty"))
    def test_dispatch_log_and_report(self, traces, policy, autoscaled,
                                     faulty):
        config = FAULTY_TRACE if faulty else ZERO_FAULT_TRACE
        jobs = traces[config]
        fleet = FleetConfig(chips=8, chips_per_cluster=2) if faulty \
            else FleetConfig(chips=4)
        autoscaler = AUTOSCALE if autoscaled else None
        faults = FaultModel(FAULTS) if faulty else None

        ref_log, ref, ref_waits = reference_fleet(
            jobs, fleet, policy=policy, autoscaler=autoscaler,
            faults=faults,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        log = []
        report = simulate_fleet_streaming(
            TraceArrays.from_jobs(jobs), fleet, policy=policy,
            autoscaler=autoscaler, faults=faults, dispatch_log=log,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))

        assert log == ref_log
        assert report.to_dict() == ref.to_dict()
        # Below the P² warmup the percentiles are exact nearest-rank.
        for pct in (50, 95, 99):
            assert getattr(report, f"wait_p{pct}_s") \
                == percentile(ref_waits, pct)
        # The grid exercises what it claims to.
        assert report.rejected > 0 and report.completed > 0
        assert bool(report.scale_events) == autoscaled
        assert (report.retries > 0) == faulty

"""The fleet simulator against a deliberately naive reference loop.

``reference_fleet`` below is the simplest simulator that could be
right: one event heap, every queued job in a plain list, the next job
picked with ``min(queue, key)``, scalar admission
(``admission_oracle.ScalarAdmission.admit``), one service-time
prediction (``job_oracle.predict_step_seconds``) per job
configuration, the autoscaler and the fault model driven through
their public calls.  It
keeps no observability and no per-job records, and it draws every
failure one by one instead of priming the vectorized first-attempt
table.

On ≤2k-job traces, :func:`simulate_fleet_streaming` must reproduce its
dispatch log and report exactly — for every policy, on static and
autoscaled fleets, with and without fault injection.
"""

import dataclasses
import heapq
import itertools
import math
import random

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    AutoscalerPolicy,
    AutoscalerState,
    FaultConfig,
    FaultModel,
    FaultRun,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    build_streaming_report,
    generate_trace_arrays,
    percentile,
    simulate_fleet_streaming,
)
from repro.obs import FleetObs, MetricsRegistry
from repro.serve import scheduler
from repro.serve.scheduler import POLICIES
from repro.training import CheckpointConfig

from admission_oracle import ScalarAdmission
from job_oracle import (
    TrainingJob,
    jobs_of,
    observed_run,
    predict_step_seconds,
    to_arrays,
)

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
    # predict_step_seconds per (model, algorithm, batch): traces repeat
    # a few configurations over thousands of jobs.
    prices = {}
    queue = []
    idle = fleet.n_clusters
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
                config = (job.model, job.algorithm, job.batch)
                if config not in prices:
                    prices[config] = predict_step_seconds(fleet, job)
                step[jid] = prices[config]
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
            if state is not None:
                state.record_wait(wait)
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
        waits=waits, admission=admission, autoscale=state, faults=frun)
    return log, report, waits


AUTOSCALE = AutoscalerPolicy(max_clusters=12, provision_delay_s=30.0,
                             cooldown_s=20.0, target_p99_wait_s=60.0)

#: Hot enough to crash, degrade, retry and abandon on a short trace.
FAULTS = FaultConfig(
    mtbf_hours=0.05, straggler_rate=0.2, correlated_fraction=0.3,
    degrade_fraction=0.7, repair_hours=0.02,
    checkpoint=CheckpointConfig(interval_steps=100), seed=3)

#: Fault-path extremes: no first attempt can fail or straggle, so all
#: take the simulator's inline fast path; or every attempt straggles,
#: so none does.
ALL_CLEAN = dataclasses.replace(FAULTS, mtbf_hours=1e9, straggler_rate=0.0)
NONE_CLEAN = dataclasses.replace(FAULTS, straggler_rate=1.0)

#: Queues build at this arrival rate, so the policies disagree.
ZERO_FAULT_TRACE = TraceConfig(jobs=2_000, seed=13, mean_interarrival_s=0.5)
FAULTY_TRACE = TraceConfig(jobs=1_500, seed=5, shape="bursty",
                           mean_interarrival_s=0.3)


#: Seconds per lattice tick (:class:`_LatticeFaults`).
TICK = 10.0


class _LatticeFaults(FaultModel):
    """Failure, repair and backoff times on a whole-tick lattice.

    With one-second steps and a negligible checkpoint write, every
    event time is a whole number of ticks, so completions, repair
    ends, retries and provisioned clusters often land on one instant.
    """

    def time_to_failure_s(self, job_id, attempt, n_chips):
        if (job_id + attempt) % 3 == 0:
            return math.inf
        return TICK * (1 + (job_id * 7 + attempt) % 4)

    def first_failures_s(self, job_ids, n_chips):
        return [self.time_to_failure_s(job, 1, n_chips)
                for job in job_ids.tolist()]

    def repair_seconds(self, job_id, attempt):
        return TICK * (1 + (job_id + 2 * attempt) % 3)


LATTICE_FAULTS = _LatticeFaults(FaultConfig(
    degrade_fraction=0.0, backoff_base_s=TICK, backoff_cap_s=4 * TICK,
    max_retries=2, checkpoint=CheckpointConfig(
        interval_steps=10, storage_bytes_per_s=1e300)))
#: Scales up and down through bursts, one tick after each decision.
LATTICE_AUTOSCALE = AutoscalerPolicy(
    max_clusters=6, up_queue_per_cluster=1.0, provision_delay_s=TICK,
    cooldown_s=0.0, down_idle_fraction=0.0)


def _lattice_trace(jobs=200, seed=1):
    """Bursts of whole-tick arrivals with whole-tick step counts."""
    rng = random.Random(seed)
    arrivals = sorted(TICK * (20 * rng.randrange(8) + rng.randrange(4))
                      for _ in range(jobs))
    return [TrainingJob(
        job_id=i, tenant=f"t{i % 3}", model="ResNet-50",
        algorithm="DP-SGD" if i % 4 == 0 else "SGD", batch=256,
        steps=int(TICK) * rng.randrange(1, 7),
        noise_multiplier=1.0 if i % 4 == 0 else 0.0,
        dataset_size=50_000, arrival_s=arrival)
        for i, arrival in enumerate(arrivals)]


@pytest.fixture(scope="module")
def traces():
    return {config: jobs_of(generate_trace_arrays(config))
            for config in (ZERO_FAULT_TRACE, FAULTY_TRACE)}


def _floored(jobs):
    """``jobs`` with arrivals floored to whole seconds, so many tie."""
    return [dataclasses.replace(job, arrival_s=float(math.floor(
        job.arrival_s))) for job in jobs]


def _tied_to_completions(jobs, fleet, policy, faults, ties):
    """``(jobs', instants)``: ``jobs`` plus ``ties`` short SGD jobs, each
    arriving exactly at a completion instant of a replay before it.

    The k-th added job lands on a finish of the replay of the trace
    with the first k-1 added; job ids are renumbered to arrival
    positions.  An arrival moves nothing before it (fault draws are
    keyed by position, and a non-private job spends no budget), so
    every instant is still a finish in the final trace's replay.
    """
    jobs = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
    template = min((j for j in jobs if j.algorithm == "SGD"),
                   key=lambda j: j.steps)
    tenants = sorted({j.tenant for j in jobs})
    instants = []
    for k in range(ties):
        later = sorted(
            finish for finish in _finishes(jobs, fleet, policy, faults)
            if finish > (instants[-1] if instants else 0.0))
        instants.append(later[len(later) // (ties - k + 1)])
        jobs = sorted([*jobs, dataclasses.replace(
            template, tenant=tenants[k % len(tenants)],
            arrival_s=instants[-1])],
            key=lambda j: j.arrival_s)
        jobs = [dataclasses.replace(job, job_id=pos)
                for pos, job in enumerate(jobs)]
    return jobs, instants


def _finishes(jobs, fleet, policy, faults):
    """Final finish times of one simulator replay at the oracle's budget."""
    _, columns = observed_run(
        to_arrays(jobs), fleet, policy=policy, faults=faults,
        admission=AdmissionController(TenantBudget(epsilon=3.0)))
    finish = columns.finish_s
    return finish[~np.isnan(finish)].tolist()


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("autoscaled", (False, True),
                             ids=("static", "autoscaled"))
    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("zero-fault", "faulty"))
    def test_dispatch_log_and_report(self, traces, policy, autoscaled,
                                     faulty):
        config = FAULTY_TRACE if faulty else ZERO_FAULT_TRACE
        self._check(traces[config], policy, autoscaled, faulty)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("autoscaled", (False, True),
                             ids=("static", "autoscaled"))
    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("zero-fault", "faulty"))
    def test_tied_arrivals(self, traces, policy, autoscaled, faulty):
        # Position-keyed queues must keep the (arrival, job_id) tie-break.
        config = FAULTY_TRACE if faulty else ZERO_FAULT_TRACE
        self._check(_floored(traces[config]), policy, autoscaled, faulty)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("faults", (ALL_CLEAN, NONE_CLEAN),
                             ids=("all-clean", "none-clean"))
    def test_clean_attempt_extremes(self, traces, policy, faults):
        # Every first attempt takes the simulator's inline fast path,
        # or none does; the reference loop runs begin_attempt for all.
        report = self._compare(
            traces[FAULTY_TRACE], FleetConfig(chips=8, chips_per_cluster=2),
            policy, None, FaultModel(faults))
        assert report.completed > 0
        assert (report.retries > 0) == (faults is NONE_CLEAN)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("zero-fault", "faulty"))
    def test_arrivals_tied_to_completions(self, traces, policy, faulty):
        # An arrival at a completion's instant queues before the freed
        # cluster picks its next job.
        config = FAULTY_TRACE if faulty else ZERO_FAULT_TRACE
        fleet = FleetConfig(chips=8, chips_per_cluster=2) if faulty \
            else FleetConfig(chips=4)
        faults = FaultModel(FAULTS) if faulty else None
        jobs, instants = _tied_to_completions(
            traces[config][:300], fleet, policy, faults, ties=6)
        self._compare(jobs, fleet, policy, None, faults)
        assert set(instants) <= set(_finishes(jobs, fleet, policy, faults))
        assert {job.arrival_s for job in jobs} >= set(instants)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_four_sources_on_one_instant(self, monkeypatch, policy):
        # A completion, a repair end, a retry and a provisioned cluster
        # share an instant; they must fire as provision, capacity
        # returns, then retry.  One-second steps keep times whole.
        monkeypatch.setattr(
            scheduler, "predict_step_seconds_batch",
            lambda fleet, models, algorithms, batches, cache=None:
            np.ones(len(batches)))
        jobs = _lattice_trace()
        fleet = FleetConfig(chips=4, chips_per_cluster=2)
        self._compare(jobs, fleet, policy, LATTICE_AUTOSCALE,
                      LATTICE_FAULTS)
        obs = FleetObs(metrics=MetricsRegistry())
        simulate_fleet_streaming(
            to_arrays(jobs), fleet, policy=policy,
            autoscaler=LATTICE_AUTOSCALE, faults=LATTICE_FAULTS, obs=obs,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        finishes = np.frombuffer(obs.finishes)
        events = obs._run["faults"].events
        provisions = {event.time_s + LATTICE_AUTOSCALE.provision_delay_s
                      for event in obs._run["state"].events
                      if event.action == "up"}
        shared = (set(finishes[~np.isnan(finishes)].tolist())
                  & {e.time_s for e in events if e.kind == "repair"}
                  & {e.time_s for e in events if e.kind == "retry"}
                  & provisions)
        assert shared
        assert all(t % TICK == 0 for t in shared)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_provision_before_capacity_return(self, monkeypatch, policy):
        # Four 10 s jobs reach one cluster at t=0: one runs, three
        # queue, and the autoscaler asks for a cluster (cooldown then
        # holds it).  At t=10 that cluster comes online as the first
        # job finishes.  Provision first, ``decide`` sees two queued
        # jobs over two active clusters and waits; return first, it
        # would see them over one and scale up again.
        monkeypatch.setattr(
            scheduler, "predict_step_seconds_batch",
            lambda fleet, models, algorithms, batches, cache=None:
            np.ones(len(batches)))
        jobs = [TrainingJob(
            job_id=i, tenant="t0", model="ResNet-50", algorithm="SGD",
            batch=256, steps=10, noise_multiplier=0.0, dataset_size=50_000,
            arrival_s=0.0) for i in range(4)]
        scaler = AutoscalerPolicy(
            max_clusters=3, up_queue_per_cluster=1.0, provision_delay_s=10.0,
            cooldown_s=5.0, down_idle_fraction=1.0)
        report = self._compare(jobs, FleetConfig(chips=1), policy, scaler,
                               None)
        assert [(e.time_s, e.action) for e in report.scale_events] \
            == [(0.0, "up")]

    @classmethod
    def _check(cls, jobs, policy, autoscaled, faulty):
        fleet = FleetConfig(chips=8, chips_per_cluster=2) if faulty \
            else FleetConfig(chips=4)
        autoscaler = AUTOSCALE if autoscaled else None
        faults = FaultModel(FAULTS) if faulty else None
        report = cls._compare(jobs, fleet, policy, autoscaler, faults)
        # The grid exercises what it claims to.
        assert report.rejected > 0 and report.completed > 0
        assert bool(report.scale_events) == autoscaled
        assert (report.retries > 0) == faulty

    @staticmethod
    def _compare(jobs, fleet, policy, autoscaler, faults):
        """Assert the simulator matches the reference; return its report."""
        ref_log, ref, ref_waits = reference_fleet(
            jobs, fleet, policy=policy, autoscaler=autoscaler,
            faults=faults,
            admission=ScalarAdmission(TenantBudget(epsilon=3.0)))
        log = []
        report = simulate_fleet_streaming(
            to_arrays(jobs), fleet, policy=policy,
            autoscaler=autoscaler, faults=faults, dispatch_log=log,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))

        assert log == ref_log
        assert report.to_dict() == ref.to_dict()
        # The percentiles are exact nearest-rank over the waits.
        for pct in (50, 95, 99):
            assert getattr(report, f"wait_p{pct}_s") \
                == percentile(ref_waits, pct)
        return report

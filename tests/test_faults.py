"""Failure-aware fleet: faults, checkpoint/restart, retries, degradation.

Pins the three contracts ``repro.serve.faults`` makes:

* **Zero-failure identity** — with ``faults=None`` the simulator
  reproduces the pre-faults golden dispatch logs and reports byte for
  byte (``tests/data/golden_fleet_zero_fault.json``).
* **Decision identity under faults** — an observed run draws the same
  failures, makes the same ledger transactions, and emits the same
  dispatch log and report as a plain one, across every policy, with
  and without the autoscaler (the naive reference loop of
  ``test_fleet_oracle.py`` pins the loop itself).
* **Budget safety** — no crash/retry/refund interleaving ever pushes
  a tenant's spent epsilon past its ``(epsilon, delta)`` budget
  (hypothesis property), and the checkpoint math behaves (overhead
  vanishes with the interval, the closed form tracks the
  discrete-event mean, Young/Daly minimizes expected completion).
"""

import hashlib
import json
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Project, run_rules
from repro.analysis.faultrng import FaultPathRNGRule
from repro.obs import FleetObs, MetricsRegistry
from repro.serve import (
    AdmissionController,
    AutoscalerPolicy,
    FaultConfig,
    FaultModel,
    FaultRun,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    simulate_fleet_streaming,
)
from repro.serve.faults import _keyed_uniform
from repro.serve.metrics import _available_seconds
from repro.serve.scheduler import POLICIES
from repro.training import (
    CheckpointConfig,
    checkpoint_bytes,
    checkpoint_write_seconds,
    checkpointed_step_seconds,
    young_daly_interval_s,
)
from repro.workloads import build_model

from admission_oracle import ScalarAdmission
from checkpoint_oracle import (
    expected_completion_seconds,
    simulate_checkpointed_run,
)
from job_oracle import TrainingJob

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "golden_fleet_zero_fault.json"

#: Failure process hot enough to exercise every branch of the state
#: machine (crashes, stragglers, node-scope failures, degradation,
#: retries, aborts) on short traces.
AGGRESSIVE = FaultConfig(
    mtbf_hours=0.05, straggler_rate=0.2, correlated_fraction=0.3,
    degrade_fraction=0.7, repair_hours=0.02,
    checkpoint=CheckpointConfig(interval_steps=100), seed=3)


def _digest(dispatch_log):
    return hashlib.sha256(json.dumps(dispatch_log).encode()).hexdigest()


def _private_job():
    return TrainingJob(job_id=0, tenant="tenant-0", model="SqueezeNet",
                       algorithm="DP-SGD", batch=32, steps=400,
                       noise_multiplier=1.1, dataset_size=50_000,
                       arrival_s=0.0)


# ---------------------------------------------------------------------------
# Keyed draws and the fault model
# ---------------------------------------------------------------------------


class TestKeyedDraws:
    def test_pure_function_of_key(self):
        a = _keyed_uniform(7, 3, 1, 0)
        assert a == _keyed_uniform(7, 3, 1, 0)
        assert 0.0 < a < 1.0

    def test_key_components_all_matter(self):
        base = _keyed_uniform(7, 3, 1, 0)
        assert base != _keyed_uniform(8, 3, 1, 0)
        assert base != _keyed_uniform(7, 4, 1, 0)
        assert base != _keyed_uniform(7, 3, 2, 0)
        assert base != _keyed_uniform(7, 3, 1, 1)

    def test_roughly_uniform(self):
        draws = [_keyed_uniform(0, job, 1, 0) for job in range(4000)]
        assert abs(np.mean(draws) - 0.5) < 0.02
        assert min(draws) < 0.01 and max(draws) > 0.99

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), attempt=st.integers(1, 8),
           stream=st.integers(0, 4),
           job_ids=st.lists(st.integers(0, 2**63), min_size=1,
                            max_size=40))
    def test_array_draws_equal_scalar_draws(self, seed, attempt, stream,
                                            job_ids):
        draws = _keyed_uniform(seed, np.array(job_ids, dtype=np.uint64),
                               attempt, stream)
        assert draws.tolist() == [
            _keyed_uniform(seed, job, attempt, stream) for job in job_ids]

    @settings(max_examples=50, deadline=None)
    @given(shape=st.floats(0.3, 4.0).filter(lambda k: k != 1.0),
           mtbf_hours=st.floats(0.01, 1e4), seed=st.integers(0, 2**32),
           n_chips=st.sampled_from([1, 2, 3, 8, 64]),
           n_jobs=st.integers(0, 300))
    def test_first_failure_table_equals_scalar_draws(self, shape,
                                                     mtbf_hours, seed,
                                                     n_chips, n_jobs):
        model = FaultModel(FaultConfig(mtbf_hours=mtbf_hours,
                                       weibull_shape=shape, seed=seed))
        assert model.first_failures_s(
            np.arange(n_jobs, dtype=np.uint64), n_chips) == [
                model.time_to_failure_s(job, 1, n_chips)
                for job in range(n_jobs)]

    def test_primed_run_matches_unprimed_run(self):
        # The table is an exact cache: a run that never primes draws
        # every attempt through time_to_failure_s and ends identical.
        # Unprimed (NaN) slots of a partial table and ids past its end
        # fall back to the same scalar draw.
        def drive(admitted):
            frun, _ = _run(AGGRESSIVE,
                           FleetConfig(chips=4, chips_per_cluster=2))
            if admitted is not None:
                frun.prime_first_failures(admitted)
            outcomes = [_attempt(frun, job_id=job, now=10.0 * job,
                                 granted=400, requested=400)
                        for job in range(50)]
            return outcomes, frun.events, frun.busy_s, frun.wasted_s

        unprimed = drive(None)
        assert drive(np.ones(40, dtype=bool)) == unprimed
        assert drive(np.arange(40) % 3 != 0) == unprimed


class TestFaultModel:
    def test_cluster_mtbf_min_stability(self):
        model = FaultModel(FaultConfig(mtbf_hours=168.0))
        chip = model.cluster_mtbf_s(1)
        assert chip == pytest.approx(168.0 * 3600.0)
        # Exponential (shape 1): min of C draws divides the mean by C.
        assert model.cluster_mtbf_s(4) == pytest.approx(chip / 4.0)
        wearout = FaultModel(FaultConfig(mtbf_hours=168.0,
                                         weibull_shape=2.0))
        assert wearout.cluster_mtbf_s(4) == pytest.approx(
            168.0 * 3600.0 / math.sqrt(4.0))

    def test_time_to_failure_deterministic_and_scaled(self):
        model = FaultModel(FaultConfig(mtbf_hours=10.0))
        t = model.time_to_failure_s(5, 1, 4)
        assert t == model.time_to_failure_s(5, 1, 4)
        # Same uniform draw, quarter the scale.
        assert model.time_to_failure_s(5, 1, 1) == pytest.approx(4.0 * t)

    def test_time_to_failure_matches_mean(self):
        model = FaultModel(FaultConfig(mtbf_hours=1.0))
        draws = [model.time_to_failure_s(job, 1, 1) for job in range(4000)]
        assert np.mean(draws) == pytest.approx(3600.0, rel=0.05)

    def test_straggler_gates(self):
        off = FaultModel(FaultConfig(straggler_rate=0.0))
        assert off.straggler_multiplier(1, 1) == 1.0
        on = FaultModel(FaultConfig(straggler_rate=1.0,
                                    straggler_factor=4.0))
        assert on.straggler_multiplier(1, 1) == 4.0

    def test_chips_lost_scope(self):
        solo = FaultModel(FaultConfig(correlated_fraction=1.0))
        assert solo.chips_lost(1, 1, chips_per_node=1,
                               chips_per_cluster=8) == 1
        node = FaultModel(FaultConfig(correlated_fraction=1.0))
        assert node.chips_lost(1, 1, chips_per_node=4,
                               chips_per_cluster=8) == 4
        assert node.chips_lost(1, 1, chips_per_node=4,
                               chips_per_cluster=2) == 2

    def test_backoff_doubles_then_caps(self):
        model = FaultModel(FaultConfig(backoff_base_s=30.0,
                                       backoff_cap_s=100.0))
        assert model.backoff_s(1) == 30.0
        assert model.backoff_s(2) == 60.0
        assert model.backoff_s(3) == 100.0
        assert model.backoff_s(10) == 100.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(mtbf_hours=0.0)
        with pytest.raises(ValueError):
            FaultConfig(straggler_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=-1)


# ---------------------------------------------------------------------------
# Checkpoint/restart cost model
# ---------------------------------------------------------------------------


class TestCheckpointMath:
    def test_checkpoint_bytes_formula(self):
        net = build_model("SqueezeNet")
        assert checkpoint_bytes(net) == net.params * 8
        assert checkpoint_bytes(net, grad_bytes=4, master_bytes=4,
                                optimizer_slots=2) == net.params * 12
        assert checkpoint_bytes(net, optimizer_slots=0) == net.params * 4
        with pytest.raises(ValueError):
            checkpoint_bytes(net, optimizer_slots=-1)

    def test_write_seconds(self):
        net = build_model("SqueezeNet")
        config = CheckpointConfig(storage_bytes_per_s=2.0 * 2**30)
        assert checkpoint_write_seconds(net, config) == pytest.approx(
            checkpoint_bytes(net) / (2.0 * 2**30))

    def test_overhead_vanishes_with_interval(self):
        # Satellite property: amortized overhead -> 0 as interval -> inf.
        step, write = 0.05, 2.0
        last = math.inf
        for interval in (1, 10, 100, 1_000, 10_000, 1_000_000):
            eff = checkpointed_step_seconds(step, write, interval)
            assert step < eff < last
            last = eff
        assert last == pytest.approx(step, rel=1e-4)

    def test_young_daly_formula(self):
        assert young_daly_interval_s(8.0, 10_000.0) == pytest.approx(
            math.sqrt(2.0 * 8.0 * 10_000.0))

    def test_closed_form_no_failure_limit(self):
        # With an astronomically long MTBF the expectation collapses to
        # the work plus one checkpoint write per full interval (the
        # 50s tail segment finishes the job and never checkpoints).
        total = expected_completion_seconds(
            950.0, mtbf_s=1e15, interval_s=100.0, write_s=1.0,
            restart_s=5.0)
        assert total == pytest.approx(950.0 + 9 * 1.0, rel=1e-6)

    def test_discrete_twin_without_failures(self):
        sim = simulate_checkpointed_run(
            950.0, [math.inf], interval_s=100.0, write_s=1.0,
            restart_s=5.0)
        assert sim == pytest.approx(950.0 + 9 * 1.0)

    def test_discrete_twin_replays_lost_work(self):
        # One failure 150s in: segment 1 (100s work + 1s write) landed,
        # 49s of segment 2 is lost; restart, rerun it, finish the rest.
        clean = simulate_checkpointed_run(
            300.0, [math.inf], interval_s=100.0, write_s=1.0)
        failing = simulate_checkpointed_run(
            300.0, [150.0, math.inf], interval_s=100.0, write_s=1.0,
            restart_s=5.0)
        assert failing == pytest.approx(clean + 49.0 + 5.0)

    def test_closed_form_brackets_discrete_event_mean(self):
        # Satellite property: the closed-form expectation matches the
        # discrete-event twin's mean over many seeded failure histories
        # (tests are exempt from R004/R008, so a local RNG is fine).
        mtbf, interval, write, restart, work = 500.0, 120.0, 4.0, 20.0, 900.0
        closed = expected_completion_seconds(
            work, mtbf_s=mtbf, interval_s=interval, write_s=write,
            restart_s=restart)
        rng = np.random.default_rng(42)
        trials = np.empty(3000)
        for i in range(len(trials)):
            gaps = rng.exponential(mtbf, size=64).tolist()
            trials[i] = simulate_checkpointed_run(
                work, gaps, interval_s=interval, write_s=write,
                restart_s=restart)
        sem = trials.std(ddof=1) / math.sqrt(len(trials))
        assert abs(trials.mean() - closed) < 5.0 * sem

    def test_young_daly_minimizes_expected_completion(self):
        # Satellite property: the Young/Daly cadence is the argmin of
        # the closed-form expectation over a broad interval sweep.
        mtbf, write, work = 2_000.0, 10.0, 50_000.0
        optimum = young_daly_interval_s(write, mtbf)
        sweep = [optimum * f for f in
                 (0.125, 0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0, 8.0)]
        costs = [expected_completion_seconds(
            work, mtbf_s=mtbf, interval_s=interval, write_s=write,
            restart_s=30.0) for interval in sweep]
        assert min(range(len(sweep)), key=costs.__getitem__) \
            == sweep.index(optimum)


# ---------------------------------------------------------------------------
# The attempt state machine
# ---------------------------------------------------------------------------


def _run(config, fleet=None, epsilon=3.0):
    fleet = fleet or FleetConfig(chips=2, chips_per_cluster=2)
    admission = ScalarAdmission(TenantBudget(epsilon=epsilon))
    return FaultRun(FaultModel(config), fleet, admission), admission


def _attempt(frun, *, job_id=0, now=0.0, step_s=0.05, granted=200,
             requested=200, private=False, tenant="tenant-0",
             batch=32):
    return frun.begin_attempt(
        job_id, now, step_s=step_s, granted=granted, requested=requested,
        tenant=tenant, sampling_rate=0.01, noise_multiplier=1.1,
        private=private, model_name="SqueezeNet", algorithm="SGD",
        batch=batch)


_COUNTERS = ("completed", "truncated", "failed", "failures", "retries",
             "degradations", "busy_s", "wasted_s", "makespan_s",
             "repair_total_s", "downtime", "events")


def _counters(frun):
    return tuple(getattr(frun, name) for name in _COUNTERS)


class TestCleanFirstAttempts:
    """The loop's inline fast path against ``begin_attempt`` alone."""

    @settings(max_examples=60, deadline=None)
    @given(straggler_rate=st.sampled_from([0.0, 0.2, 1.0]),
           shape=st.floats(0.5, 3.0), mtbf_hours=st.floats(1e-3, 100.0),
           interval=st.sampled_from([None, 1, 10, 100]),
           chips_per_cluster=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2**32), step_s=st.floats(1e-3, 0.5),
           now=st.floats(0.0, 1e6),
           jobs=st.lists(st.tuples(st.booleans(), st.integers(1, 2000),
                                   st.integers(0, 500)),
                         min_size=1, max_size=30))
    def test_mask_matches_begin_attempt(self, straggler_rate, shape,
                                        mtbf_hours, interval,
                                        chips_per_cluster, seed, step_s,
                                        now, jobs):
        config = FaultConfig(
            mtbf_hours=mtbf_hours, weibull_shape=shape,
            straggler_rate=straggler_rate, seed=seed,
            checkpoint=CheckpointConfig(interval_steps=interval))
        fleet = FleetConfig(chips=chips_per_cluster,
                            chips_per_cluster=chips_per_cluster)
        admitted = np.array([flag for flag, _, _ in jobs])
        granted = np.array([steps for _, steps, _ in jobs])

        def primed():
            frun, _ = _run(config, fleet)
            frun.prime_first_failures(admitted)
            return frun

        # Clean jobs run through `attempts` in lockstep with `booked`;
        # the rest go to their own run so the two stay comparable.
        masker, attempts, booked, others = (primed() for _ in range(4))
        # The simulator's service column: granted x amortized step.
        service = granted * np.full(
            len(jobs), masker.effective_step_seconds("SqueezeNet", step_s))
        clean = masker.clean_first_attempts(service)
        assert not clean[~admitted].any()
        if straggler_rate == 1.0:
            assert not clean.any()
        for job, (flag, steps, extra) in enumerate(jobs):
            if not flag:
                continue
            run = attempts if clean[job] else others
            out = _attempt(run, job_id=job, now=now, step_s=step_s,
                           granted=steps, requested=steps + extra)
            if clean[job]:
                finish = now + float(service[job])
                assert out.completed and out.crash_s is None
                assert out.finish_s == finish
                booked.book_clean(finish, float(service[job]), extra > 0)
                assert _counters(booked) == _counters(attempts)
            else:
                assert out.crash_s is not None \
                    or masker.model.straggler_multiplier(job, 1) > 1.0


class TestFaultRun:
    def test_clean_completion(self):
        frun, _ = _run(FaultConfig(
            mtbf_hours=1e9, checkpoint=CheckpointConfig(interval_steps=50)))
        eff = frun.effective_step_seconds("SqueezeNet", 0.05)
        out = _attempt(frun, granted=100, requested=100)
        assert out.completed and not out.failed
        assert out.finish_s == pytest.approx(100 * eff)
        assert out.free_s == out.finish_s and out.retry_s is None
        assert frun.completed == 1 and frun.failures == 0
        assert frun.busy_s == pytest.approx(100 * eff)
        assert not frun.events and frun.wasted_s == 0.0

    def test_crash_then_retry_resumes_from_checkpoint(self):
        config = FaultConfig(
            mtbf_hours=1e-4, degrade_fraction=0.0, max_retries=3,
            repair_hours=0.01, backoff_base_s=30.0,
            checkpoint=CheckpointConfig(interval_steps=10))
        frun, _ = _run(config)
        out = _attempt(frun, granted=500, requested=500)
        assert not out.completed and not out.failed
        assert out.crash_s is not None and out.retry_s is not None
        assert out.retry_s == pytest.approx(out.crash_s + 30.0)
        assert out.free_s > out.crash_s  # repair downtime
        assert frun.failures == 1 and frun.retries == 1
        # Non-private jobs re-buy lost steps for free: the reservation
        # shrank only by what survived in checkpoints (whole intervals).
        remaining = frun.remaining_steps(0, 500)
        assert 0 < remaining <= 500
        assert (500 - remaining) % 10 == 0
        assert frun.ready_s(0, 0.0) == out.retry_s
        assert frun.downtime == [(out.crash_s, out.free_s)]

    def test_max_retries_exhausted_fails(self):
        config = FaultConfig(
            mtbf_hours=1e-4, degrade_fraction=0.0, max_retries=0,
            checkpoint=CheckpointConfig(interval_steps=1_000_000))
        frun, _ = _run(config)
        out = _attempt(frun, granted=500, requested=500)
        assert out.failed and not out.completed and out.retry_s is None
        assert frun.failed == 1 and frun.completed == 0

    def test_abort_refunds_private_reservation(self):
        config = FaultConfig(
            mtbf_hours=1e-4, degrade_fraction=0.0, max_retries=0,
            checkpoint=CheckpointConfig(interval_steps=1_000_000))
        frun, admission = _run(config)
        job = _private_job()
        decision = admission.admit(job)
        spent_after_admit = admission.epsilon_spent(job.tenant)
        assert decision.granted_steps > 0 and spent_after_admit > 0
        out = frun.begin_attempt(
            0, 0.0, step_s=0.05, granted=decision.granted_steps,
            requested=job.steps, tenant=job.tenant,
            sampling_rate=job.sampling_rate,
            noise_multiplier=job.noise_multiplier, private=True,
            model_name=job.model, algorithm=job.algorithm,
            batch=job.batch)
        assert out.failed
        # The un-run tail came back; only the crashed attempt's
        # executed-but-lost steps stay spent.
        assert admission.epsilon_spent(job.tenant) < spent_after_admit

    def test_degrade_continues_on_surviving_replicas(self):
        config = FaultConfig(
            mtbf_hours=1e-4, degrade_fraction=1.0, repair_hours=0.5,
            checkpoint=CheckpointConfig(interval_steps=10))
        frun, _ = _run(config, fleet=FleetConfig(chips=4,
                                                 chips_per_cluster=4))
        out = _attempt(frun, granted=500, requested=500)
        assert out.completed and out.crash_s is not None
        assert frun.degradations == 1 and frun.completed == 1
        # The degraded tail runs slower than the healthy plan would.
        healthy_eff = frun.effective_step_seconds("SqueezeNet", 0.05)
        assert out.finish_s > out.crash_s
        assert out.finish_s - out.crash_s > \
            frun.remaining_steps(0, 0) * healthy_eff  # state popped -> 0

    def test_degrade_infeasible_at_dp1_requeues(self):
        config = FaultConfig(
            mtbf_hours=1e-4, degrade_fraction=1.0, max_retries=3,
            checkpoint=CheckpointConfig(interval_steps=10))
        frun, _ = _run(config, fleet=FleetConfig(chips=1,
                                                 chips_per_cluster=1))
        out = _attempt(frun, granted=500, requested=500)
        assert not out.completed and out.retry_s is not None
        assert frun.degradations == 0 and frun.retries == 1

    def test_downtime_clipping_and_mttr(self):
        config = FaultConfig(
            mtbf_hours=1e-4, degrade_fraction=0.0, max_retries=1,
            repair_hours=0.01,
            checkpoint=CheckpointConfig(interval_steps=10))
        frun, _ = _run(config)
        out = _attempt(frun, granted=500, requested=500)
        full = frun.downtime_seconds()
        assert full == pytest.approx(out.free_s - out.crash_s)
        half = (out.crash_s + out.free_s) / 2.0
        assert frun.downtime_seconds(cap_s=half) == \
            pytest.approx(half - out.crash_s)
        assert frun.downtime_seconds(cap_s=out.crash_s) == 0.0
        assert frun.mttr_s == pytest.approx(frun.repair_total_s)

    def test_young_daly_cadence_derived_per_workload(self):
        frun, _ = _run(FaultConfig(mtbf_hours=10.0))
        write_s, interval = frun._checkpoint("SqueezeNet", 0.05)
        mtbf_s = frun.model.cluster_mtbf_s(2)
        expected = max(1, round(
            young_daly_interval_s(write_s, mtbf_s) / 0.05))
        assert interval == expected
        assert frun.effective_step_seconds("SqueezeNet", 0.05) \
            == checkpointed_step_seconds(0.05, write_s, interval)
        fixed, _ = _run(FaultConfig(
            mtbf_hours=10.0, checkpoint=CheckpointConfig(interval_steps=7)))
        fixed_write_s, fixed_interval = fixed._checkpoint("SqueezeNet", 0.05)
        assert fixed_interval == 7
        assert fixed.effective_step_seconds("SqueezeNet", 0.05) \
            == checkpointed_step_seconds(0.05, fixed_write_s, 7)


# ---------------------------------------------------------------------------
# Budget safety (hypothesis)
# ---------------------------------------------------------------------------


class TestLedgerNeverOverspends:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           fault_seed=st.integers(0, 2**31 - 1),
           mtbf_hours=st.floats(1e-4, 0.05),
           max_retries=st.integers(0, 4),
           degrade=st.floats(0.0, 1.0))
    def test_fleet_under_fire_respects_epsilon(self, seed, fault_seed,
                                               mtbf_hours, max_retries,
                                               degrade):
        # Satellite property: however crashes, retries, re-pricing and
        # refunds interleave, no tenant's spent epsilon exceeds its
        # budget.
        trace = generate_trace_arrays(TraceConfig(
            jobs=30, seed=seed, shape="bursty", mean_interarrival_s=0.2))
        admission = AdmissionController(TenantBudget(epsilon=2.0))
        faults = FaultModel(FaultConfig(
            mtbf_hours=mtbf_hours, degrade_fraction=degrade,
            max_retries=max_retries, repair_hours=0.01,
            checkpoint=CheckpointConfig(interval_steps=50),
            seed=fault_seed))
        simulate_fleet_streaming(
            trace, FleetConfig(chips=4, chips_per_cluster=2),
            policy="fifo", admission=admission, faults=faults)
        for tenant in admission.seen_tenants():
            budget = admission.budget_for(tenant)
            assert admission.epsilon_spent(tenant) \
                <= budget.epsilon + 1e-9

    def test_reprice_never_exceeds_request_and_refund_floors(self):
        admission = ScalarAdmission(TenantBudget(epsilon=1.0))
        job = _private_job()
        admission.admit(job)
        granted = admission.reprice_steps(
            job.tenant, job.sampling_rate, job.noise_multiplier, 100)
        assert 0 <= granted <= 100
        # Refunding more than was ever spent floors at zero, never
        # goes negative.
        admission.refund_steps(job.tenant, job.sampling_rate,
                               job.noise_multiplier, 10**9)
        assert admission.epsilon_spent(job.tenant) == 0.0
        assert admission.reprice_steps(
            job.tenant, job.sampling_rate, job.noise_multiplier, 0) == 0


# ---------------------------------------------------------------------------
# Zero-failure byte identity (golden pin)
# ---------------------------------------------------------------------------


class TestZeroFailureGolden:
    def test_fault_free_runs_match_pre_faults_golden(self):
        golden = json.loads(GOLDEN.read_text())
        config = TraceConfig(jobs=400, seed=13, mean_interarrival_s=0.5,
                             shape="bursty")
        fleet = FleetConfig(chips=8, chips_per_cluster=2)
        for policy in POLICIES:
            for auto in (False, True):
                scaler = AutoscalerPolicy(max_clusters=12,
                                          provision_delay_s=30.0) \
                    if auto else None
                expected = golden[
                    f"streaming/{policy}-{'auto' if auto else 'static'}"]
                log = []
                report = simulate_fleet_streaming(
                    generate_trace_arrays(config), fleet, policy=policy,
                    admission=AdmissionController(TenantBudget(epsilon=3.0)),
                    autoscaler=scaler, dispatch_log=log)
                assert _digest(log) == expected["dispatch_sha256"]
                assert report.to_dict() == expected["report"]


# ---------------------------------------------------------------------------
# Observed/plain decision identity under faults
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_trace():
    return generate_trace_arrays(TraceConfig(
        jobs=1_500, seed=5, shape="bursty", mean_interarrival_s=0.3))


class TestFaultyDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("auto", [False, True],
                             ids=["static", "autoscaled"])
    def test_policies_match_under_fire(self, shared_trace, policy, auto):
        # The faulty loop writes the observer's start and finish slots;
        # that must change no dispatch and no number.
        fleet = FleetConfig(chips=8, chips_per_cluster=2)
        faults = FaultModel(AGGRESSIVE)
        scaler = AutoscalerPolicy(max_clusters=10,
                                  provision_delay_s=20.0) if auto else None
        runs = []
        for obs in (None, FleetObs(metrics=MetricsRegistry())):
            log: list = []
            report = simulate_fleet_streaming(
                shared_trace, fleet, policy=policy,
                admission=AdmissionController(TenantBudget(epsilon=3.0)),
                autoscaler=scaler, faults=faults, dispatch_log=log, obs=obs)
            runs.append((log, report.to_dict()))
        assert runs[0] == runs[1]
        assert report.faults_enabled
        assert report.retries > 0  # the trace actually exercised faults


# ---------------------------------------------------------------------------
# Reporting: fault fields, utilization accounting
# ---------------------------------------------------------------------------


class TestFaultReporting:
    def _faulty_report(self):
        trace = generate_trace_arrays(TraceConfig(
            jobs=120, seed=5, shape="bursty", mean_interarrival_s=0.3))
        return simulate_fleet_streaming(
            trace, FleetConfig(chips=4, chips_per_cluster=2),
            policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            faults=FaultModel(AGGRESSIVE))

    def test_to_dict_gains_faults_only_when_enabled(self):
        trace = generate_trace_arrays(TraceConfig(jobs=30, seed=1))
        plain = simulate_fleet_streaming(
            trace, FleetConfig(chips=2),
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        assert not plain.faults_enabled
        assert "faults" not in plain.to_dict()
        faulty = self._faulty_report()
        data = faulty.to_dict()["faults"]
        assert set(data) == {"failed", "retries", "degradations",
                             "goodput", "wasted_chip_hours",
                             "repair_chip_hours", "mttr_s",
                             "retries_per_job"}
        assert "Faults:" in faulty.render()

    def test_goodput_excludes_wasted_work(self):
        report = self._faulty_report()
        assert report.wasted_chip_hours > 0
        assert 0.0 < report.goodput < report.utilization <= 1.0

    def test_available_seconds_subtracts_downtime(self):
        base = _available_seconds(4, 100.0, None, 0.0)
        assert base == 400.0
        assert _available_seconds(4, 100.0, None, 30.0) == 370.0
        assert _available_seconds(4, 100.0, None, 10**9) == 0.0

    def test_repair_downtime_still_billed(self):
        # The utilization denominator shrinks by the downtime, but the
        # chip-hour/cost ledger keeps billing the cluster under repair.
        trace = generate_trace_arrays(TraceConfig(
            jobs=120, seed=5, shape="bursty", mean_interarrival_s=0.3))
        report = simulate_fleet_streaming(
            trace, FleetConfig(chips=4, chips_per_cluster=2),
            policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            autoscaler=AutoscalerPolicy(max_clusters=6,
                                        provision_delay_s=20.0),
            faults=FaultModel(AGGRESSIVE))
        assert report.repair_chip_hours > 0
        # Billed capacity (the chip-hour ledger) keeps accruing while
        # clusters repair; the goodput denominator does not, so goodput
        # stays a fraction of the utilization it refines.
        assert report.chip_hours > 0 and report.cost > 0
        assert 0.0 < report.goodput <= report.utilization


# ---------------------------------------------------------------------------
# Lint rule R008
# ---------------------------------------------------------------------------


def _r008(tmp_path, source):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    project = Project.load(REPO_ROOT, [path])
    return run_rules(project, [FaultPathRNGRule()])


class TestFaultPathRNGRule:
    def test_flags_any_rng_in_fault_importers(self, tmp_path):
        findings = _r008(tmp_path, """
            import numpy as np
            import random
            from repro.serve.faults import FaultModel

            def draw():
                a = np.random.default_rng(3).uniform()
                b = random.random()
                return a + b
        """)
        assert len(findings) == 2
        assert all(f.rule_id == "R008" for f in findings)

    def test_seeded_rng_fine_without_the_import(self, tmp_path):
        findings = _r008(tmp_path, """
            import numpy as np

            def draw():
                return np.random.default_rng(3).uniform()
        """)
        assert findings == []

    def test_from_serve_import_faults_counts(self, tmp_path):
        findings = _r008(tmp_path, """
            from numpy.random import default_rng
            from repro.serve import faults

            def draw():
                return default_rng(1).uniform()
        """)
        assert len(findings) == 1


# ---------------------------------------------------------------------------
# Experiment harness plumbing
# ---------------------------------------------------------------------------


class TestServeExperiment:
    def test_run_threads_fault_parameters(self):
        from repro.experiments import serve

        rows = serve.run(policies=("fifo",), trace_jobs=60, seed=7,
                         chips=4, chips_per_cluster=2,
                         trace_shape="bursty", mean_interarrival_s=0.5,
                         mtbf_hours=0.05, checkpoint_interval=100,
                         straggler_rate=0.2)
        assert "faults" in rows[0]
        rendered = serve.render(rows)
        assert "Goodput %" in rendered

    def test_run_without_mtbf_is_fault_free(self):
        from repro.experiments import serve

        rows = serve.run(policies=("fifo",), trace_jobs=40, seed=7)
        assert "faults" not in rows[0]

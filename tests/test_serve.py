"""Tests for the multi-tenant fleet simulator (repro.serve)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments import serve as serve_experiment
from repro.serve import scheduler
from repro.serve import (
    AdmissionController,
    FaultConfig,
    FaultModel,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    percentile,
    simulate_fleet_streaming,
)
from repro.training import CheckpointConfig

from admission_oracle import AdmissionDecision, AdmissionStatus, ScalarAdmission
from job_oracle import TrainingJob, jobs_of, observed_run, to_arrays


def _job(job_id, *, tenant="t0", model="SqueezeNet", algorithm="SGD",
         batch=64, steps=100, sigma=1.0, dataset=20_000, arrival=0.0):
    return TrainingJob(
        job_id=job_id, tenant=tenant, model=model, algorithm=algorithm,
        batch=batch, steps=steps, noise_multiplier=sigma,
        dataset_size=dataset, arrival_s=arrival)


class TestTrainingJob:
    def test_sampling_rate(self):
        assert _job(0, batch=64, dataset=6400).sampling_rate == 0.01

    def test_sampling_rate_capped(self):
        assert _job(0, batch=100, dataset=10).sampling_rate == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _job(0, algorithm="ADAM")
        with pytest.raises(ValueError):
            _job(0, batch=0)
        with pytest.raises(ValueError):
            _job(0, steps=0)
        with pytest.raises(ValueError):
            _job(0, arrival=-1.0)
        with pytest.raises(ValueError):
            _job(0, algorithm="DP-SGD", sigma=0.0)

    def test_sgd_allows_zero_sigma(self):
        assert not _job(0, algorithm="SGD", sigma=0.0).is_private


def _trace(**config):
    return generate_trace_arrays(TraceConfig(**config))


class TestTraceGenerator:
    def test_deterministic(self):
        assert jobs_of(_trace(jobs=25, seed=3)) \
            == jobs_of(_trace(jobs=25, seed=3))

    def test_seed_changes_trace(self):
        assert (jobs_of(_trace(jobs=25, seed=3))
                != jobs_of(_trace(jobs=25, seed=4)))

    def test_shape_and_monotone_arrivals(self):
        trace = _trace(jobs=40, seed=1)
        assert len(trace) == 40
        assert (np.diff(trace.arrival_s) >= 0).all()
        config = TraceConfig()
        assert trace.tenants == config.tenants
        assert trace.models == config.models
        assert set(trace.tenant.tolist()) <= set(range(len(trace.tenants)))
        assert set(trace.model.tolist()) <= set(range(len(trace.models)))

    def test_empty_trace(self):
        assert len(_trace(jobs=0)) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(jobs=-1)
        with pytest.raises(ValueError):
            TraceConfig(mean_interarrival_s=0.0)
        with pytest.raises(ValueError):
            TraceConfig(algorithms=("SGD",), algorithm_weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            TraceConfig(steps_range=(10, 5))


class TestAdmission:
    def test_non_private_is_free(self):
        ctl = ScalarAdmission(TenantBudget(epsilon=1.0))
        decision = ctl.admit(_job(0, algorithm="SGD", steps=10**6))
        assert decision.status is AdmissionStatus.ADMITTED
        assert decision.epsilon_cost == 0.0
        assert ctl.epsilon_spent("t0") == 0.0

    def test_full_admit_within_budget(self):
        ctl = ScalarAdmission(TenantBudget(epsilon=8.0))
        job = _job(0, algorithm="DP-SGD", batch=64, dataset=20_000,
                   sigma=1.3, steps=200)
        decision = ctl.admit(job)
        assert decision.status is AdmissionStatus.ADMITTED
        assert decision.granted_steps == 200
        assert decision.epsilon_after <= 8.0

    def test_truncation(self):
        # q=256/20000, sigma=1.0: ~860 of 1500 steps fit eps=3.0.
        ctl = ScalarAdmission(TenantBudget(epsilon=3.0))
        job = _job(0, algorithm="DP-SGD(R)", batch=256, dataset=20_000,
                   sigma=1.0, steps=1500)
        decision = ctl.admit(job)
        assert decision.status is AdmissionStatus.TRUNCATED
        assert 0 < decision.granted_steps < 1500
        assert decision.epsilon_after <= 3.0

    def test_rejection_when_truncation_disabled(self):
        ctl = ScalarAdmission(TenantBudget(epsilon=3.0),
                              allow_truncation=False)
        job = _job(0, algorithm="DP-SGD(R)", batch=256, dataset=20_000,
                   sigma=1.0, steps=1500)
        decision = ctl.admit(job)
        assert decision.status is AdmissionStatus.REJECTED
        assert decision.granted_steps == 0
        assert ctl.epsilon_spent("t0") == 0.0

    def test_budget_never_exceeded_across_jobs(self):
        ctl = ScalarAdmission(TenantBudget(epsilon=2.0))
        for i in range(20):
            ctl.admit(_job(i, algorithm="DP-SGD", batch=128,
                           dataset=20_000, sigma=1.0, steps=400))
            assert ctl.epsilon_spent("t0") <= 2.0 + 1e-9

    def test_per_tenant_override(self):
        ctl = AdmissionController({"vip": TenantBudget(epsilon=50.0)},
                                  default_budget=TenantBudget(epsilon=1.0))
        assert ctl.budget_for("vip").epsilon == 50.0
        assert ctl.budget_for("anyone-else").epsilon == 1.0

    def test_remaining_fraction_decreases(self):
        ctl = ScalarAdmission(TenantBudget(epsilon=4.0))
        assert ctl.remaining_fraction("t0") == 1.0
        ctl.admit(_job(0, algorithm="DP-SGD", batch=128, dataset=20_000,
                       sigma=1.0, steps=300))
        assert ctl.remaining_fraction("t0") < 1.0


class TestSchedulerEdgeCases:
    def test_empty_trace(self):
        report = simulate_fleet_streaming(_trace(jobs=0), FleetConfig(chips=2))
        assert report.submitted == 0
        assert report.completed == 0
        assert report.rejected == 0
        assert report.makespan_s == 0.0
        assert report.utilization == 0.0
        assert report.wait_p99_s == 0.0

    def test_single_chip_fleet(self):
        report, jobs = observed_run(_trace(jobs=10, seed=2),
                                    FleetConfig(chips=1))
        assert report.n_clusters == 1
        assert report.submitted == 10
        assert report.completed + report.rejected == 10
        assert 0.0 <= report.utilization <= 1.0
        ran = ~np.isnan(jobs.start_s)
        assert ran.sum() == report.completed
        assert (jobs.start_s[ran] >= jobs.arrival_s[ran]).all()

    def test_all_jobs_rejected_budget(self):
        # All-private trace against a budget below the RDP conversion
        # floor: not even one step fits, everything is rejected.
        trace = _trace(jobs=8, seed=5, algorithms=("DP-SGD(R)",),
                       algorithm_weights=(1.0,))
        report = simulate_fleet_streaming(
            trace, FleetConfig(chips=2),
            admission=AdmissionController(TenantBudget(epsilon=0.005)))
        assert report.rejected == 8
        assert report.completed == 0
        assert report.makespan_s == 0.0
        assert all(t.epsilon_spent == 0.0 for t in report.tenants)

    def test_seeded_trace_is_deterministic(self):
        trace = _trace(jobs=30, seed=11)
        first = simulate_fleet_streaming(
            trace, FleetConfig(chips=3), policy="sjf",
            admission=AdmissionController())
        second = simulate_fleet_streaming(
            trace, FleetConfig(chips=3), policy="sjf",
            admission=AdmissionController())
        assert first.to_dict() == second.to_dict()

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            simulate_fleet_streaming(_trace(jobs=0), policy="priority")

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(chips=0)
        with pytest.raises(ValueError):
            FleetConfig(chips=4, chips_per_cluster=3)


class TestPolicies:
    def test_sjf_reorders_queue(self):
        # Three SGD jobs hit one cluster at t=0: the first dispatches
        # immediately; of the two queued, SJF picks the short one and
        # FIFO the earlier one.
        trace = to_arrays([
            _job(0, steps=1000),
            _job(1, steps=1000),
            _job(2, steps=10),
        ])

        def start_order(policy):
            log: list = []
            simulate_fleet_streaming(trace, FleetConfig(chips=1),
                                     policy=policy, dispatch_log=log)
            return [job for job, _ in log]

        assert start_order("fifo") == [0, 1, 2]
        assert start_order("sjf") == [0, 2, 1]

    def test_budget_policy_favors_unspent_tenant(self):
        # Tenant "spender" burns budget at t=0; of the two jobs queued
        # behind the running one, the budget policy dispatches the
        # fresh tenant's job first even though it arrived later.
        trace = to_arrays([
            _job(0, tenant="spender", algorithm="DP-SGD", batch=128,
                 dataset=20_000, sigma=1.0, steps=400),
            _job(1, tenant="spender", algorithm="DP-SGD", batch=128,
                 dataset=20_000, sigma=1.0, steps=400),
            _job(2, tenant="fresh", algorithm="SGD", steps=400),
        ])
        log: list = []
        simulate_fleet_streaming(
            trace, FleetConfig(chips=1), policy="budget", dispatch_log=log,
            admission=AdmissionController(TenantBudget(epsilon=8.0)))
        assert [job for job, _ in log] == [0, 2, 1]

    def test_policy_does_not_change_admission(self):
        trace = _trace(jobs=25, seed=13)
        ledgers = []
        for policy in ("fifo", "sjf", "budget"):
            report = simulate_fleet_streaming(
                trace, FleetConfig(chips=2), policy=policy,
                admission=AdmissionController())
            ledgers.append([t.to_dict() for t in report.tenants])
        assert ledgers[0] == ledgers[1] == ledgers[2]


class TestFleetInvariants:
    def test_demo_trace_budget_and_rejections(self):
        """The acceptance invariant: epsilon never exceeds the budget
        and the default demo trace trips admission control."""
        report = simulate_fleet_streaming(
            generate_trace_arrays(TraceConfig()), FleetConfig(chips=4),
            admission=AdmissionController())
        assert report.rejected >= 1
        for usage in report.tenants:
            assert usage.within_budget
            assert usage.epsilon_spent <= usage.budget_epsilon + 1e-9

    def test_served_steps_bounded_by_request(self):
        _, jobs = observed_run(_trace(jobs=20, seed=9), FleetConfig(chips=2))
        assert (jobs.granted <= jobs.requested).all()

    def test_report_serializable(self):
        report = simulate_fleet_streaming(_trace(jobs=10, seed=1),
                                          FleetConfig(chips=2))
        payload = json.dumps(report.to_dict())
        assert "tenant-0" in payload


class TestPathIndependence:
    """A fleet result is a function of config and seed alone: the serve
    experiment and a direct call of the simulator report the same
    numbers for one config."""

    @pytest.mark.parametrize("mtbf_hours", (None, 0.25),
                             ids=("zero-fault", "faulty"))
    def test_every_entry_point_reports_the_same(self, mtbf_hours):
        config = TraceConfig(jobs=2_000, seed=7)
        fleet = FleetConfig(chips=4)
        rows = serve_experiment.run(trace_jobs=config.jobs,
                                    seed=config.seed, chips=fleet.chips,
                                    mtbf_hours=mtbf_hours)

        trace = generate_trace_arrays(config)
        for row in rows:
            faults = None
            if mtbf_hours is not None:
                faults = FaultModel(FaultConfig(
                    mtbf_hours=mtbf_hours, seed=config.seed,
                    checkpoint=CheckpointConfig(interval_steps=None)))
            assert simulate_fleet_streaming(
                trace, fleet, policy=row["policy"], faults=faults,
                admission=AdmissionController(TenantBudget(
                    epsilon=serve_experiment.DEFAULT_EPSILON_BUDGET,
                    delta=serve_experiment.DEFAULT_DELTA))).to_dict() == row
        assert rows[0]["completed"] > 0 and rows[0]["rejected"] > 0
        if mtbf_hours is not None:
            assert rows[0]["faults"]["retries"] > 0

    @pytest.mark.parametrize("mtbf_hours", (None, 0.25),
                             ids=("zero-fault", "faulty"))
    def test_wait_percentiles_exact_past_4096_dispatches(
            self, monkeypatch, mtbf_hours):
        """Past 4,096 dispatches the report's p50/p95/p99 are still the
        nearest-rank percentiles of the per-dispatch waits, rebuilt here
        from the dispatch log: a wait runs from arrival, or, for a
        retried attempt, from the job's retry (backoff-end) time."""
        runs = []

        class RecordingFaultRun(scheduler.FaultRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        monkeypatch.setattr(scheduler, "FaultRun", RecordingFaultRun)
        trace = generate_trace_arrays(TraceConfig(
            jobs=6_000, seed=11, mean_interarrival_s=4.0))
        faults = None
        if mtbf_hours is not None:
            faults = FaultModel(FaultConfig(
                mtbf_hours=mtbf_hours, seed=11,
                checkpoint=CheckpointConfig(interval_steps=100)))
        log: list = []
        report = simulate_fleet_streaming(
            trace, FleetConfig(chips=4), faults=faults, dispatch_log=log,
            admission=AdmissionController(TenantBudget(epsilon=1e9)))

        retries: dict = {}
        for run in runs:
            for event in run.events:
                if event.kind == "retry":
                    retries.setdefault(event.job_id, []).append(
                        event.time_s)
        ready = {job: [float(trace.arrival_s[job]), *times]
                 for job, times in retries.items()}
        attempts: dict = {}
        waits = []
        for job, start_s in log:
            attempt = attempts[job] = attempts.get(job, -1) + 1
            origin = (ready[job][attempt] if job in ready
                      else float(trace.arrival_s[job]))
            waits.append(start_s - origin)

        assert len(waits) > 4_096
        assert (report.retries > 0) == (faults is not None)
        assert report.wait_p50_s < report.wait_p99_s
        for pct in (50, 95, 99):
            assert getattr(report, f"wait_p{pct}_s") \
                == percentile(waits, pct)


#: Hot enough that some job exhausts its retries on a short trace.
AGGRESSIVE = FaultConfig(
    mtbf_hours=0.05, straggler_rate=0.2, correlated_fraction=0.3,
    degrade_fraction=0.7, repair_hours=0.02,
    checkpoint=CheckpointConfig(interval_steps=100), seed=3)
#: No retries: every crash abandons its job.
ABANDONING = FaultConfig(mtbf_hours=0.05, repair_hours=0.02,
                         degrade_fraction=0.0, max_retries=0, seed=3)


def _caller_trace():
    """Jobs with descending, non-contiguous ids (id order is not arrival
    order), two of them arriving together, handed over shuffled."""
    base = jobs_of(_trace(jobs=200, seed=5, shape="bursty",
                          mean_interarrival_s=0.3))
    jobs = [dataclasses.replace(job, job_id=10_000 - 7 * i)
            for i, job in enumerate(base)]
    jobs[1] = dataclasses.replace(jobs[1], arrival_s=jobs[0].arrival_s)
    return jobs[1::2][::-1] + jobs[::2]


class TestJobListAdapter:
    """A caller's job list (ids neither positions nor in arrival order)
    runs on the array path through the test-side adapter
    (``job_oracle.to_arrays``): the run's per-job columns agree with its
    dispatch log and report, and its decisions are the sequential
    controller's."""

    FLEET = FleetConfig(chips=4, chips_per_cluster=2)

    @pytest.mark.parametrize("config", (None, AGGRESSIVE, ABANDONING),
                             ids=("zero-fault", "faulty", "abandoning"))
    def test_records_follow_the_array_run(self, config):
        jobs = _caller_trace()
        ordered = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
        assert ordered[0].job_id < ordered[1].job_id
        log: list = []
        report, columns = observed_run(
            to_arrays(jobs), self.FLEET, dispatch_log=log,
            faults=FaultModel(config) if config is not None else None,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))

        assert columns.arrival_s.tolist() == [j.arrival_s for j in ordered]
        first: dict = {}
        for pos, now in log:
            first.setdefault(pos, now)
        start, finish = columns.start_s, columns.finish_s
        ran = ~np.isnan(start)
        assert np.flatnonzero(ran).tolist() == sorted(first)
        assert start[ran].tolist() == [first[pos] for pos in sorted(first)]
        # A job that never ran was rejected; one that ran and has no
        # finish was abandoned.
        assert (columns.status[~ran] == 2).all()
        assert np.isnan(finish[~ran]).all()
        done = ~np.isnan(finish)
        assert done.sum() == report.completed
        assert (ran & ~done).sum() == report.failed
        if config is AGGRESSIVE:
            assert report.failed > 0 and report.retries > 0
        elif config is ABANDONING:
            assert report.failed > 0 and report.retries == 0

    def test_decisions_match_sequential_admission(self):
        jobs = _caller_trace()
        ordered = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
        # Both controllers arrive with the same partly spent ledger.
        prior = dataclasses.replace(ordered[0], job_id=-1,
                                    algorithm="DP-SGD")
        sequential = ScalarAdmission(TenantBudget(epsilon=3.0))
        admission = ScalarAdmission(TenantBudget(epsilon=3.0))
        sequential.admit(prior)
        admission.admit(prior)
        expected = [sequential.admit(job) for job in ordered]
        spent = {job.tenant: admission.epsilon_spent(job.tenant)
                 for job in ordered}
        _, columns = observed_run(to_arrays(jobs), self.FLEET,
                                  admission=admission)
        statuses = (AdmissionStatus.ADMITTED, AdmissionStatus.TRUNCATED,
                    AdmissionStatus.REJECTED)
        decisions = []
        for job, status, granted, after in zip(
                ordered, columns.status.tolist(), columns.granted.tolist(),
                columns.epsilon_after.tolist()):
            decisions.append(AdmissionDecision(
                statuses[status], granted, after - spent[job.tenant], after))
            spent[job.tenant] = after
        assert decisions == expected
        assert {d.status for d in expected} == set(AdmissionStatus)
        assert any(d.epsilon_cost > 0 for d in expected)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_nearest_rank(self):
        data = list(range(1, 11))
        assert percentile(data, 50) == 5
        assert percentile(data, 95) == 10
        assert percentile(data, 100) == 10
        assert percentile(data, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestServeExperiment:
    def test_rows_serializable_and_rendered(self):
        rows = serve_experiment.run(policies=("fifo", "sjf"),
                                    trace_jobs=15, chips=2)
        json.dumps(rows)
        assert len(rows) == 2
        text = serve_experiment.render(rows)
        assert "Policy" in text
        assert "tenant-0" in text

    def test_rejects_empty_policies(self):
        with pytest.raises(ValueError):
            serve_experiment.run(policies=())

    def test_cli_policy_choices_match_scheduler(self):
        # The argparse `choices` list in __main__.py is a literal (so
        # building the parser never imports the serving stack); this
        # pins it to the scheduler's POLICIES so they cannot drift.
        from pathlib import Path

        from repro.serve.scheduler import POLICIES

        main_py = (Path(__file__).resolve().parent.parent
                   / "src" / "repro" / "__main__.py")
        expected = ("choices=["
                    + ", ".join(f'"{p}"' for p in POLICIES) + "]")
        assert expected in main_py.read_text()

    def test_default_policies_resolve_to_scheduler_list(self):
        from repro.serve.scheduler import POLICIES

        rows = serve_experiment.run(trace_jobs=5, chips=1)
        assert tuple(row["policy"] for row in rows) == POLICIES

    def test_step_cache_persists(self, tmp_path, cache_table):
        from repro.experiments import runner

        cache = runner.ResultCache(tmp_path)
        serve_experiment.run(policies=("fifo",), trace_jobs=10,
                             chips=2, cache=cache)
        keys = list(cache_table(tmp_path).keys().values())
        assert keys
        assert keys[0]["experiment"] == "serve-step"

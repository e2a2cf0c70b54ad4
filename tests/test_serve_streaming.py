"""Array serve path: array traces, batched admission, P² metrics.

Batched admission must reproduce the sequential controller's decisions
exactly, the streaming percentiles must be exact below the warmup
buffer, and the job-list front end (``simulate_fleet``) must report
exactly what the array path reports.  The decision-for-decision
differential against a naive reference loop is in
``test_fleet_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import OrderedDict

from repro.serve import (
    AdmissionController,
    FleetConfig,
    P2Quantile,
    StreamingStats,
    TenantBudget,
    TraceArrays,
    TraceConfig,
    generate_trace,
    generate_trace_arrays,
    percentile,
    simulate_fleet,
    simulate_fleet_streaming,
)
from repro.dpml import accountant
from repro.serve import TrainingJob
from repro.serve.budget import BatchAdmissionDecisions
from repro.arch.batch import unique_rows

_STATUS_CODE = {"admitted": BatchAdmissionDecisions.ADMITTED,
                "truncated": BatchAdmissionDecisions.TRUNCATED,
                "rejected": BatchAdmissionDecisions.REJECTED}


class TestTraceArrays:
    def test_round_trip_preserves_jobs(self):
        trace = generate_trace(TraceConfig(jobs=40, seed=3))
        assert TraceArrays.from_jobs(trace).jobs() == trace

    def test_generate_deterministic_and_shaped(self):
        config = TraceConfig(jobs=500, seed=11)
        a = generate_trace_arrays(config)
        b = generate_trace_arrays(config)
        assert len(a) == 500
        np.testing.assert_array_equal(a.arrival_s, b.arrival_s)
        np.testing.assert_array_equal(a.steps, b.steps)
        assert (np.diff(a.arrival_s) >= 0).all()
        assert set(np.unique(a.batch)) <= set(config.batches)
        lo, hi = config.steps_range
        assert a.steps.min() >= lo and a.steps.max() <= hi

    def test_seed_changes_stream(self):
        a = generate_trace_arrays(TraceConfig(jobs=100, seed=1))
        b = generate_trace_arrays(TraceConfig(jobs=100, seed=2))
        assert not np.array_equal(a.arrival_s, b.arrival_s)

    def test_empty(self):
        assert len(generate_trace_arrays(TraceConfig(jobs=0))) == 0

    def test_private_mask_and_sampling_rate(self):
        trace = generate_trace(TraceConfig(jobs=30, seed=5))
        arrays = TraceArrays.from_jobs(trace)
        for i, job in enumerate(trace):
            assert bool(arrays.is_private[i]) == job.is_private
            assert float(arrays.sampling_rate[i]) == job.sampling_rate


class TestBatchAdmission:
    @pytest.mark.parametrize("epsilon,truncation", [
        (3.0, True),      # demo regime: admits, truncations, rejections
        (3.0, False),     # rejection instead of truncation
        (0.005, True),    # budget below the conversion floor: all reject
        (1000.0, True),   # everything admitted in full
    ])
    def test_decisions_identical_to_sequential(self, epsilon, truncation):
        trace = generate_trace(TraceConfig(jobs=150, seed=7))
        arrays = TraceArrays.from_jobs(trace)
        sequential = AdmissionController(TenantBudget(epsilon=epsilon),
                                         allow_truncation=truncation)
        expected = [sequential.admit(job) for job in trace]
        batched = AdmissionController(TenantBudget(epsilon=epsilon),
                                      allow_truncation=truncation)
        result = batched.admit_batch(arrays)
        for i, decision in enumerate(expected):
            assert int(result.status[i]) == \
                _STATUS_CODE[decision.status.value], (i, trace[i])
            assert int(result.granted_steps[i]) == decision.granted_steps
            assert float(result.epsilon_after[i]) == decision.epsilon_after
        assert sequential.seen_tenants() == batched.seen_tenants()
        for tenant in sequential.seen_tenants():
            assert sequential.counts(tenant) == batched.counts(tenant)
            assert sequential.epsilon_spent(tenant) == \
                batched.epsilon_spent(tenant)

    def test_empty_trace(self):
        controller = AdmissionController()
        result = controller.admit_batch(
            generate_trace_arrays(TraceConfig(jobs=0)))
        assert len(result) == 0

    def test_non_private_zero_sigma(self):
        """SGD jobs may carry ``noise_multiplier=0``: their per-step row
        is infinite but never read, so batched admission stays finite
        and decision-identical to the sequential controller."""
        trace = tuple(
            TrainingJob(job_id=i, tenant=f"t{i % 2}", model="ResNet-50",
                        algorithm="SGD" if i % 3 else "DP-SGD",
                        batch=256, steps=400 + 50 * i,
                        noise_multiplier=0.0 if i % 3 else 1.0,
                        dataset_size=50_000, arrival_s=float(i))
            for i in range(30))
        sequential = AdmissionController(TenantBudget(epsilon=1.0))
        expected = [sequential.admit(job) for job in trace]
        # An inf row that leaked into arithmetic would raise here.
        with np.errstate(invalid="raise"):
            result = AdmissionController(TenantBudget(epsilon=1.0)) \
                .admit_batch(TraceArrays.from_jobs(trace))
        assert not np.isnan(result.epsilon_after).any()
        assert {d.status.value for d in expected} >= {"admitted",
                                                      "rejected"}
        for i, decision in enumerate(expected):
            assert int(result.status[i]) == \
                _STATUS_CODE[decision.status.value]
            assert int(result.granted_steps[i]) == decision.granted_steps
            assert float(result.epsilon_after[i]) == decision.epsilon_after

    def test_batch_rows_feed_the_scalar_memo(self, monkeypatch):
        """The per-step curves ``admit_batch`` prices land in the memo the
        scalar ledger reads, so later admits, reprices and refunds of
        the same mechanisms price nothing."""
        calls, priced = [], []
        real = accountant.rdp_table

        def counting(qs, sigmas, orders):
            calls.append(len(qs))
            priced.extend(zip(qs, sigmas))
            return real(qs, sigmas, orders)

        monkeypatch.setattr(accountant, "_step_rdp_memo", OrderedDict())
        monkeypatch.setattr(accountant, "rdp_table", counting)
        arrays = generate_trace_arrays(TraceConfig(jobs=300, seed=21))
        controller = AdmissionController(TenantBudget(epsilon=3.0))
        controller.admit_batch(arrays)
        distinct = {(float(q), float(sigma)) for q, sigma in
                    zip(arrays.sampling_rate, arrays.noise_multiplier)}
        assert calls == [len(distinct)]
        assert set(priced) == distinct
        priced.clear()
        for job in arrays.jobs()[:40]:
            controller.admit(job)
            controller.reprice_steps(job.tenant, job.sampling_rate,
                                     job.noise_multiplier, 10)
            controller.refund_steps(job.tenant, job.sampling_rate,
                                    job.noise_multiplier, 5)
        assert priced == []


def _reuse_trace(n, algorithms, pick):
    """A trace whose columns ``pick`` from short value lists, so rows
    repeat."""

    def column(values, dtype):
        return np.array([pick(values) for _ in range(n)], dtype=dtype)

    return TraceArrays(
        tenants=("a", "b", "c"), models=("m0", "m1", "m2"),
        algorithms=algorithms,
        arrival_s=np.arange(n, dtype=float),
        tenant=column([0, 1, 2], np.int32),
        model=column([0, 1, 2], np.int32),
        algorithm=column(list(range(len(algorithms))), np.int32),
        batch=column([1, 63, 64, 256, 1000], np.int64),
        steps=column([1, 7, 100, 2**40], np.int64),
        noise_multiplier=column([0.0, 0.7, 1.3, 2.5], float),
        dataset_size=column([100, 5_000, 60_000], np.int64))


@st.composite
def _trace_arrays(draw):
    n = draw(st.integers(0, 40))
    algorithms = draw(st.sampled_from(
        [("SGD",), ("SGD", "DP-SGD"), ("DP-SGD", "SGD", "DP-SGD(R)")]))
    return _reuse_trace(n, algorithms,
                        lambda values: draw(st.sampled_from(values)))


class TestPackedKeyDedup:
    """``unique_rows`` is ``np.unique(axis=0)`` on every dedup site."""

    @staticmethod
    def _check(*columns):
        rows, inverse = unique_rows(*columns)
        want_rows, want_inverse = np.unique(
            np.stack(columns, axis=1), axis=0, return_inverse=True)
        assert rows.dtype == want_rows.dtype
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(inverse, want_inverse)
        return inverse

    @settings(max_examples=60, deadline=None)
    @given(trace=_trace_arrays(), width=st.sampled_from([1, 2, 4, 8]))
    def test_matches_axis0_unique(self, trace, width):
        self._check_sites(trace, width)

    @pytest.mark.parametrize("jobs,algorithms", [
        (0, ("SGD", "DP-SGD")),   # empty
        (1, ("DP-SGD",)),         # single job
        (50, ("SGD",)),           # all non-private
    ])
    def test_edge_traces(self, jobs, algorithms):
        rng = np.random.default_rng(jobs)
        self._check_sites(
            _reuse_trace(jobs, algorithms,
                         lambda values: values[rng.integers(len(values))]),
            width=2)

    def _check_sites(self, trace, width):
        # Admission mechanism classes.
        class_of = self._check(trace.sampling_rate, trace.noise_multiplier)
        # Reject-regime (class, steps) keys over the private jobs.
        private = trace.is_private
        self._check(class_of[private], trace.steps[private])
        # Service-table (model, algorithm, rounded batch) configs.
        rounded = np.ceil(trace.batch / width).astype(np.int64) * width
        self._check(trace.model, trace.algorithm, rounded)

    def test_wide_keys_rerank_instead_of_overflowing(self):
        rng = np.random.default_rng(4)
        columns = [rng.permutation(70_000) for _ in range(4)]
        self._check(*columns)

    def test_gemm_shapes(self):
        # The batched training step's (m, k, n) dedup: int64 dimensions
        # up to ~1e6 drawn from a small pool, so rows repeat heavily.
        rng = np.random.default_rng(7)
        pool = rng.integers(1, 1_000_000, size=(300, 3), dtype=np.int64)
        shapes = pool[rng.integers(len(pool), size=20_000)]
        inverse = self._check(shapes[:, 0], shapes[:, 1], shapes[:, 2])
        assert inverse.max() < len(pool)


class TestStreamingQuantiles:
    def test_exact_below_warmup(self):
        rng = np.random.default_rng(0)
        data = np.concatenate([np.zeros(150), rng.exponential(5.0, 350)])
        rng.shuffle(data)
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        for pct in (0.5, 0.95, 0.99):
            assert stats.quantile(pct) == percentile(list(data), pct * 100)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_frac=st.floats(0.0, 0.8))
    def test_p2_within_tolerance_past_warmup(self, seed, zero_frac):
        rng = np.random.default_rng(seed)
        total = 20_000
        zeros = int(total * zero_frac)
        data = np.concatenate([np.zeros(zeros),
                               rng.exponential(10.0, total - zeros)])
        rng.shuffle(data)
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        scale = float(np.max(data))
        for pct in (0.5, 0.95, 0.99):
            exact = percentile(list(data), pct * 100)
            estimate = stats.quantile(pct)
            # 5% of the stream's range covers the stationary-stream
            # P² error with a wide margin.
            assert abs(estimate - exact) <= 0.05 * scale + 1e-12

    def test_p2_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(1.5)

    def test_mean_and_extremes(self):
        stats = StreamingStats()
        for value in (0.0, 1.0, 3.0):
            stats.add(value)
        assert stats.count == 3
        assert stats.maximum == 3.0
        assert stats.mean == pytest.approx(4.0 / 3.0)


class TestStreamingFleetEquivalence:
    @pytest.mark.parametrize("policy", ("fifo", "sjf", "budget"))
    def test_matches_scalar_simulator(self, policy):
        """The job-list entry point reports exactly what the array path
        reports, and only it attaches per-job records."""
        trace = generate_trace(TraceConfig(jobs=120, seed=7))
        arrays = TraceArrays.from_jobs(trace)
        fleet = FleetConfig(chips=4, chips_per_cluster=2)
        from_jobs = simulate_fleet(
            trace, fleet, policy=policy,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        streaming = simulate_fleet_streaming(
            arrays, fleet, policy=policy,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        assert from_jobs.to_dict() == streaming.to_dict()
        assert len(from_jobs.records) == len(trace)
        assert streaming.records == ()

    def test_empty_trace(self):
        report = simulate_fleet_streaming(
            generate_trace_arrays(TraceConfig(jobs=0)),
            FleetConfig(chips=2))
        assert report.submitted == 0
        assert report.completed == 0
        assert report.makespan_s == 0.0

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            simulate_fleet_streaming(
                generate_trace_arrays(TraceConfig(jobs=0)),
                policy="priority")

    def test_decisions_reused_across_policies(self):
        arrays = generate_trace_arrays(TraceConfig(jobs=200, seed=9))
        admission = AdmissionController(TenantBudget(epsilon=3.0))
        decisions = admission.admit_batch(arrays)
        reports = [
            simulate_fleet_streaming(arrays, FleetConfig(chips=2),
                                     policy=policy, admission=admission,
                                     decisions=decisions)
            for policy in ("fifo", "sjf", "budget")
        ]
        ledgers = [[t.to_dict() for t in r.tenants] for r in reports]
        assert ledgers[0] == ledgers[1] == ledgers[2]
        assert len({r.completed for r in reports}) == 1

    def test_service_times_match_scalar_prediction(self):
        from repro.serve import predict_step_seconds_batch
        from repro.serve.scheduler import predict_step_seconds

        fleet = FleetConfig(chips=4, chips_per_cluster=2,
                            bucket_bytes=2**20)
        trace = generate_trace(TraceConfig(jobs=25, seed=3))
        batches = [job.batch for job in trace]
        batched = predict_step_seconds_batch(
            fleet, [job.model for job in trace],
            [job.algorithm for job in trace],
            [-(-batch // 2) * 2 for batch in batches])
        for i, job in enumerate(trace):
            assert float(batched[i]) == predict_step_seconds(fleet, job)


class TestAutoscaledDifferential:
    def test_static_run_identical_to_pre_autoscaler_model(self):
        """autoscaler=None is byte-for-byte the static simulator."""
        jobs = generate_trace(
            TraceConfig(jobs=2_000, seed=13, mean_interarrival_s=0.5))
        fleet = FleetConfig(chips=4)
        log: list = []
        default = simulate_fleet(
            jobs, fleet, policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        explicit = simulate_fleet(
            jobs, fleet, policy="fifo", autoscaler=None,
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            dispatch_log=log)
        assert default.to_dict() == explicit.to_dict()
        assert len(log) == default.completed
        assert default.scale_events == ()
        assert default.chip_hours == 0.0


class TestServeExperimentStreaming:
    def test_streaming_run_smoke(self):
        from repro.experiments import serve as serve_experiment

        rows = serve_experiment.run(policies=("fifo",), trace_jobs=300,
                                    chips=2)
        assert len(rows) == 1
        assert rows[0]["submitted"] == 300
        assert rows[0]["completed"] + rows[0]["rejected"] == 300
        text = serve_experiment.render(rows)
        assert "Policy" in text

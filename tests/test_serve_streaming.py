"""Array serve path: array traces, batched admission, exact metrics.

Batched admission must reproduce the sequential controller's decisions
exactly, and the report's wait percentiles must be exact nearest-rank
at every size.  The decision-for-decision differential against a
naive reference loop is in ``test_fleet_oracle.py``.
"""

import dataclasses
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import OrderedDict

from repro.serve import (
    AdmissionController,
    FleetConfig,
    TenantBudget,
    TraceArrays,
    TraceConfig,
    build_streaming_report,
    generate_trace_arrays,
    percentile,
    simulate_fleet_streaming,
)
from repro.serve import FaultConfig, FaultModel
from repro.serve.scheduler import POLICIES
from repro.dpml import accountant
from repro.dpml.accountant import rdp_to_epsilon
from repro.obs.metrics import Histogram
from repro.serve import budget
from repro.serve.budget import BatchAdmissionDecisions
from repro.arch.batch import unique_rows

from admission_oracle import ScalarAdmission
from job_oracle import TrainingJob, jobs_of, predict_step_seconds, to_arrays
from test_fleet_oracle import reference_fleet

_STATUS_CODE = {"admitted": BatchAdmissionDecisions.ADMITTED,
                "truncated": BatchAdmissionDecisions.TRUNCATED,
                "rejected": BatchAdmissionDecisions.REJECTED}


class TestTraceArrays:
    def test_round_trip_preserves_jobs(self):
        trace = jobs_of(generate_trace_arrays(TraceConfig(jobs=40, seed=3)))
        assert jobs_of(to_arrays(trace)) == trace

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

    def test_rejects_decreasing_arrivals(self):
        trace = generate_trace_arrays(TraceConfig(jobs=200, seed=3))
        shuffled = np.random.default_rng(0).permutation(trace.arrival_s)
        with pytest.raises(ValueError, match="nondecreasing"):
            dataclasses.replace(trace, arrival_s=shuffled)

    def test_rejects_ragged_columns(self):
        trace = generate_trace_arrays(TraceConfig(jobs=200, seed=3))
        with pytest.raises(ValueError, match="differ in length"):
            dataclasses.replace(trace, tenant=trace.tenant[:-1])

    def test_private_mask_and_sampling_rate(self):
        arrays = generate_trace_arrays(TraceConfig(jobs=30, seed=5))
        for i, job in enumerate(jobs_of(arrays)):
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
        arrays = generate_trace_arrays(TraceConfig(jobs=150, seed=7))
        trace = jobs_of(arrays)
        sequential = ScalarAdmission(TenantBudget(epsilon=epsilon),
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

    @staticmethod
    def _assert_bitwise_scalar(arrays, epsilon, truncation, passes=2):
        """``passes`` admit_batch calls on one controller (so every pass
        after the first starts from a nonzero ledger) equal the scalar
        oracle deciding the same jobs one by one, bit for bit:
        decisions, epsilons, tallies and final ledgers.  Returns the
        batched decisions of each pass."""
        jobs = jobs_of(arrays)
        sequential = ScalarAdmission(TenantBudget(epsilon=epsilon),
                                     allow_truncation=truncation)
        batched = AdmissionController(TenantBudget(epsilon=epsilon),
                                      allow_truncation=truncation)
        results = []
        for _ in range(passes):
            expected = [sequential.admit(job) for job in jobs]
            result = batched.admit_batch(arrays)
            assert result.status.tolist() == [
                _STATUS_CODE[d.status.value] for d in expected]
            assert result.granted_steps.tolist() == [
                d.granted_steps for d in expected]
            np.testing.assert_array_equal(
                result.epsilon_after.view(np.int64),
                np.array([d.epsilon_after for d in expected]).view(np.int64))
            results.append(result)
        assert sequential.seen_tenants() == batched.seen_tenants()
        for tenant in sequential.seen_tenants():
            assert sequential.counts(tenant) == batched.counts(tenant)
            assert sequential._rdp[tenant].tobytes() == \
                batched._rdp[tenant].tobytes()
        return results

    @pytest.mark.parametrize("epsilon,truncation,regimes", [
        (1000.0, True, {"admitted"}),
        (20.0, True, {"admitted", "truncated", "rejected"}),
        (12.0, False, {"admitted", "rejected"}),
    ])
    def test_tiny_chunks_match_scalar(self, monkeypatch, epsilon,
                                      truncation, regimes):
        """With 7-job chunks every tenant's full-admit runs cross many
        chunk boundaries, so each chunk's prefix pass must start from
        the ledger the previous one left."""
        monkeypatch.setattr(budget, "_ADMIT_CHUNK", 7)
        arrays = generate_trace_arrays(TraceConfig(jobs=300, seed=7))
        results = self._assert_bitwise_scalar(arrays, epsilon, truncation)
        assert {code for result in results
                for code in result.status.tolist()} \
            == {_STATUS_CODE[name] for name in regimes}

    def test_single_tenant_spans_default_chunks(self):
        """A 3k-job single-tenant trace admits ~2k private jobs in full
        (two default chunks), then truncates and rejects."""
        arrays = generate_trace_arrays(
            TraceConfig(jobs=3_000, seed=7, n_tenants=1))
        first, _ = self._assert_bitwise_scalar(arrays, 300.0, True)
        full_run = int(np.argmax(first.status != first.ADMITTED))
        assert arrays.is_private[:full_run].sum() > budget._ADMIT_CHUNK
        assert set(first.status.tolist()) == set(_STATUS_CODE.values())

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
        sequential = ScalarAdmission(TenantBudget(epsilon=1.0))
        expected = [sequential.admit(job) for job in trace]
        # An inf row that leaked into arithmetic would raise here.
        with np.errstate(invalid="raise"):
            result = AdmissionController(TenantBudget(epsilon=1.0)) \
                .admit_batch(to_arrays(trace))
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
        controller = ScalarAdmission(TenantBudget(epsilon=3.0))
        controller.admit_batch(arrays)
        distinct = {(float(q), float(sigma)) for q, sigma in
                    zip(arrays.sampling_rate, arrays.noise_multiplier)}
        assert calls == [len(distinct)]
        assert set(priced) == distinct
        priced.clear()
        for job in jobs_of(arrays)[:40]:
            controller.admit(job)
            controller.reprice_steps(job.tenant, job.sampling_rate,
                                     job.noise_multiplier, 10)
            controller.refund_steps(job.tenant, job.sampling_rate,
                                    job.noise_multiplier, 5)
        assert priced == []


class TestEpsilonCache:
    """``epsilon_spent`` reads a per-tenant cache that every ledger
    write invalidates: read after each of any mix of batched and single
    admits, reprices and refunds, it is bitwise the conversion of the
    ledger."""

    @staticmethod
    def assert_fresh(controller):
        for tenant, rdp in controller._rdp.items():
            budget = controller.budget_for(tenant)
            expected = (rdp_to_epsilon(controller.orders, rdp,
                                       budget.delta)[0]
                        if np.any(rdp) else 0.0)
            spent = controller.epsilon_spent(tenant)
            assert np.float64(spent).view(np.int64) == \
                np.float64(expected).view(np.int64), tenant
            assert controller._epsilon[tenant] is spent  # now cached
            assert controller.remaining_fraction(tenant) == \
                max(0.0, 1.0 - expected / budget.epsilon)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16),
           epsilon=st.sampled_from([0.5, 3.0, 50.0]),
           ops=st.lists(st.tuples(
               st.sampled_from(["batch", "admit", "reprice", "refund"]),
               st.integers(0, 39), st.integers(0, 3000)),
               min_size=1, max_size=12))
    def test_cache_matches_ledger_after_each_write(self, seed, epsilon,
                                                   ops):
        jobs = jobs_of(generate_trace_arrays(TraceConfig(jobs=40, seed=seed)))
        # One tenant converts at its own delta.
        controller = ScalarAdmission(
            {"tenant-1": TenantBudget(epsilon=epsilon, delta=1e-7)},
            default_budget=TenantBudget(epsilon=epsilon))
        for op, index, steps in ops:
            job = jobs[index]
            if op == "batch":
                controller.admit_batch(to_arrays(jobs[index:index + 10]))
            elif op == "admit":
                controller.admit(job)
            elif op == "reprice":
                controller.reprice_steps(job.tenant, job.sampling_rate,
                                         job.noise_multiplier, steps)
            else:
                controller.refund_steps(job.tenant, job.sampling_rate,
                                        job.noise_multiplier, steps)
            self.assert_fresh(controller)
        assert controller.epsilon_spent("never-seen") == 0.0


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


def _report_over(waits):
    """A report folded from one wait column (every other field zero)."""
    return build_streaming_report(
        "fifo", 1, 1, 1, submitted=len(waits), completed=len(waits),
        truncated=0, rejected=0, makespan_s=0.0, busy_s=0.0,
        waits=waits, admission=AdmissionController())


class TestStreamingQuantiles:
    """Report and histogram quantiles are exact nearest-rank
    :func:`percentile` values over the stored column, at every size."""

    def test_exact_below_warmup(self):
        rng = np.random.default_rng(0)
        data = np.concatenate([np.zeros(150), rng.exponential(5.0, 350)])
        rng.shuffle(data)
        report = _report_over(array("d", data))
        histogram = Histogram()
        histogram.observe_many(data.tolist())
        for pct in (50, 95, 99):
            exact = percentile(list(data), pct)
            assert getattr(report, f"wait_p{pct}_s") == exact
            assert histogram.to_dict()[f"p{pct}"] == exact

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_frac=st.floats(0.0, 0.8))
    def test_exact_past_4096_observations(self, seed, zero_frac):
        rng = np.random.default_rng(seed)
        total = 20_000
        zeros = int(total * zero_frac)
        data = np.concatenate([np.zeros(zeros),
                               rng.exponential(10.0, total - zeros)])
        rng.shuffle(data)
        report = _report_over(array("d", data))
        ordered = sorted(data.tolist())
        for pct in (50, 95, 99):
            exact = ordered[-(-total * pct // 100) - 1]
            assert percentile(data, pct) == exact
            assert getattr(report, f"wait_p{pct}_s") == exact

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)
        assert percentile([], 99) == 0.0

    def test_mean_and_extremes(self):
        histogram = Histogram()
        for value in (0.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.maximum == 3.0
        assert histogram.mean == pytest.approx(4.0 / 3.0)
        assert Histogram().to_dict() == {
            "count": 0.0, "mean": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_mean_is_order_independent(self):
        """``fsum`` rounds once, so any permutation gives the same mean
        (a running ``+=`` does not on these magnitudes)."""
        values = [1e16, 1.0, -1e16, 3.0, 1e-3] * 50
        forward, backward = Histogram(), Histogram()
        forward.observe_many(values)
        backward.observe_many(values[::-1])
        assert forward.mean == backward.mean == math.fsum(values) / 250


class TestStreamingFleetEquivalence:
    @pytest.mark.parametrize("policy", ("fifo", "sjf", "budget"))
    def test_matches_scalar_simulator(self, policy):
        """On two-chip (data-parallel) clusters the array path reports
        and dispatches exactly what the naive reference loop does, and
        keeps no per-job records."""
        arrays = generate_trace_arrays(TraceConfig(jobs=120, seed=7))
        fleet = FleetConfig(chips=4, chips_per_cluster=2)
        ref_log, ref, _ = reference_fleet(
            jobs_of(arrays), fleet, policy=policy,
            admission=ScalarAdmission(TenantBudget(epsilon=3.0)))
        log: list = []
        streaming = simulate_fleet_streaming(
            arrays, fleet, policy=policy, dispatch_log=log,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        assert log == ref_log
        assert streaming.to_dict() == ref.to_dict()
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

        fleet = FleetConfig(chips=4, chips_per_cluster=2,
                            bucket_bytes=2**20)
        trace = jobs_of(generate_trace_arrays(TraceConfig(jobs=25, seed=3)))
        batches = [job.batch for job in trace]
        batched = predict_step_seconds_batch(
            fleet, [job.model for job in trace],
            [job.algorithm for job in trace],
            [-(-batch // 2) * 2 for batch in batches])
        prices = {}  # per (model, algorithm, batch)
        for i, job in enumerate(trace):
            config = (job.model, job.algorithm, job.batch)
            if config not in prices:
                prices[config] = predict_step_seconds(fleet, job)
            assert float(batched[i]) == prices[config]


class TestLoopColumns:
    """The event loop reads per-job columns as zero-copy views."""

    def test_peak_traced_memory_per_job(self):
        # A tolist()ed float column holds a pointer and a boxed float
        # per job (~32 bytes); the loop must keep every column flat.
        # The call peaks near 27 bytes per job, in the loop's own
        # columns, so one such column (~59) already fails the bound.
        config = TraceConfig(jobs=50_000, seed=1, mean_interarrival_s=10.0)
        fleet = FleetConfig(chips=16)
        # Warm the step-latency lowering memo outside the measurement.
        simulate_fleet_streaming(generate_trace_arrays(
            dataclasses.replace(config, jobs=2_000)), fleet)
        trace = generate_trace_arrays(config)
        admission = AdmissionController(TenantBudget(epsilon=1e6))
        decisions = admission.admit_batch(trace)
        tracemalloc.start()
        try:
            report = simulate_fleet_streaming(
                trace, fleet, admission=admission, decisions=decisions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.completed == len(trace)  # every job dispatches
        per_job = peak / len(trace)
        assert per_job <= 48

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("zero-fault", "faulty"))
    def test_strided_columns_match_contiguous_copy(self, policy, faulty):
        whole = generate_trace_arrays(
            TraceConfig(jobs=1_200, seed=7, mean_interarrival_s=1.0))
        columns = [field.name for field in dataclasses.fields(whole)
                   if isinstance(getattr(whole, field.name), np.ndarray)]
        strided = dataclasses.replace(
            whole, **{name: getattr(whole, name)[::2] for name in columns})
        contiguous = dataclasses.replace(
            strided, **{name: getattr(strided, name).copy()
                        for name in columns})
        assert not any(getattr(strided, name).flags.c_contiguous
                       for name in columns)
        faults = FaultModel(FaultConfig(mtbf_hours=0.2, seed=3)) \
            if faulty else None
        runs = []
        for trace in (strided, contiguous):
            log: list = []
            report = simulate_fleet_streaming(
                trace, FleetConfig(chips=4, chips_per_cluster=2),
                policy=policy, faults=faults, dispatch_log=log,
                admission=AdmissionController(TenantBudget(epsilon=3.0)))
            runs.append((log, report.to_dict()))
        assert runs[0] == runs[1]
        assert log  # jobs dispatched
        assert (report.retries > 0) == faulty


class TestAutoscaledDifferential:
    def test_static_run_identical_to_pre_autoscaler_model(self):
        """autoscaler=None is byte-for-byte the static simulator."""
        jobs = generate_trace_arrays(
            TraceConfig(jobs=2_000, seed=13, mean_interarrival_s=0.5))
        fleet = FleetConfig(chips=4)
        log: list = []
        default = simulate_fleet_streaming(
            jobs, fleet, policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        explicit = simulate_fleet_streaming(
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

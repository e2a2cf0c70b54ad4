"""Autoscaler invariants: budget ledger, cost accounting, decisions.

The two load-bearing properties from the issue:

* **Ledger invariance** — admission prices jobs at arrival against
  per-tenant budgets; capacity is not an input.  Scaling the fleet up
  or down must therefore never change any tenant's granted epsilon,
  admitted/truncated/rejected counts, or total granted steps.
* **Delay defers capacity, never buys it** — on a fixed trace and
  policy, making machines slower to arrive monotonically worsens
  waits and can never *increase* the chip-hours billed beyond the
  instant-provisioning run: the fleet is work-conserving (idle
  clusters retire), so total billed time is pinned by the admitted
  work, and capacity that lands after the backlog has drained serves
  strictly less of it.

Plus unit coverage of the decision rule itself: cooldown gating, the
max/min cluster clamps, idle-driven scale-down, the chip-hour
integral, and event serialization.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionController,
    AutoscalerPolicy,
    AutoscalerState,
    FleetConfig,
    SCALE_REASONS,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    percentile,
    simulate_fleet_streaming,
)


def _ledger(report):
    return [usage.to_dict() for usage in report.tenants]


class TestLedgerInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6),
           shape=st.sampled_from(("poisson", "bursty")))
    def test_scaling_never_touches_the_budget_ledger(self, seed, shape):
        trace = generate_trace_arrays(TraceConfig(
            jobs=1500, seed=seed, shape=shape, mean_interarrival_s=1.0))
        fleet = FleetConfig(chips=2)
        static = simulate_fleet_streaming(
            trace, fleet, policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        scaled = simulate_fleet_streaming(
            trace, fleet, policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            autoscaler=AutoscalerPolicy(max_clusters=16,
                                        provision_delay_s=10.0,
                                        cooldown_s=5.0))
        assert _ledger(static) == _ledger(scaled)
        assert static.submitted == scaled.submitted
        assert static.completed == scaled.completed
        assert static.truncated == scaled.truncated
        assert static.rejected == scaled.rejected

    def test_delay_defers_capacity_never_buys_it(self):
        """Slower machines monotonically raise waits, never chip-hours.

        The fleet is work-conserving: idle clusters are retired, so on
        a fixed admitted trace the billed chip-hours are pinned by the
        work itself, not by when the machines showed up.  The honest
        pinned relationships, verified empirically on this trace:

        * median *and* p99 waits are monotone non-decreasing in the
          provisioning delay (delayed capacity can only defer service);
        * no delay buys extra chip-hours — every run's cost stays
          within 1% of the instant-provisioning run;
        * at a delay past the burst (machines land after the backlog
          has mostly drained) the cost is strictly *below* the
          instant-provisioning cost: late capacity serves less.
        """
        trace = generate_trace_arrays(TraceConfig(
            jobs=2000, seed=21, mean_interarrival_s=0.2))
        fleet = FleetConfig(chips=2)
        costs, p50s, p99s = [], [], []
        for delay_s in (0.0, 100.0, 400.0, 1600.0, 6400.0):
            report = simulate_fleet_streaming(
                trace, fleet, policy="fifo",
                admission=AdmissionController(TenantBudget(epsilon=3.0)),
                autoscaler=AutoscalerPolicy(max_clusters=16,
                                            provision_delay_s=delay_s,
                                            cooldown_s=10.0))
            costs.append(report.cost)
            p50s.append(report.wait_p50_s)
            p99s.append(report.wait_p99_s)
        assert p50s == sorted(p50s)
        assert p99s == sorted(p99s)
        assert all(0.0 < cost <= costs[0] * 1.01 for cost in costs)
        assert costs[-1] < costs[0]


class TestDecisionRule:
    POLICY = AutoscalerPolicy(max_clusters=8, up_queue_per_cluster=2.0,
                              provision_delay_s=10.0, cooldown_s=30.0)

    def _state(self, policy=None, clusters=2):
        return AutoscalerState(policy or self.POLICY,
                               initial_clusters=clusters,
                               chips_per_cluster=1)

    def test_queue_pressure_scales_up(self):
        state = self._state()
        delta = state.decide(100.0, queued=5, idle=0)
        assert delta == 1
        assert state.pending == [110.0]
        (event,) = state.events
        assert event.action == "up"
        assert event.reason == "queue_depth"
        assert event.reason in SCALE_REASONS

    def test_cooldown_gates_decisions(self):
        state = self._state()
        assert state.decide(100.0, queued=5, idle=0) == 1
        assert state.decide(120.0, queued=50, idle=0) == 0  # within 30s
        assert state.decide(131.0, queued=50, idle=0) == 1

    def test_max_clusters_clamps(self):
        state = self._state(clusters=8)
        assert state.decide(100.0, queued=100, idle=0) == 0
        assert state.events == []

    def test_pending_counts_toward_max(self):
        policy = AutoscalerPolicy(max_clusters=3, up_queue_per_cluster=1.0,
                                  provision_delay_s=10.0, cooldown_s=0.0)
        state = self._state(policy, clusters=2)
        assert state.decide(100.0, queued=10, idle=0) == 1
        assert state.decide(200.0, queued=10, idle=0) == 0  # 2 + 1 = max

    def test_p99_trigger(self):
        policy = AutoscalerPolicy(max_clusters=8, up_queue_per_cluster=100.0,
                                  target_p99_wait_s=5.0, cooldown_s=0.0)
        state = self._state(policy)
        for _ in range(50):
            state.record_wait(60.0)
        assert state.decide(100.0, queued=1, idle=0) == 1
        assert state.events[0].reason == "p99_wait"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 12_000),
           zero_frac=st.floats(0.0, 0.995), ties=st.booleans(),
           on_a_wait=st.booleans())
    def test_p99_trigger_is_exact(self, seed, n, zero_frac, ties,
                                  on_a_wait):
        """The two-counter trigger fires iff the exact p99 exceeds the
        target, at prefixes of a zero-heavy, tied wait stream — with
        the target often equal to one of the waits."""
        rng = np.random.default_rng(seed)
        waits = rng.exponential(30.0, n)
        waits[rng.random(n) < zero_frac] = 0.0
        if ties:
            waits = np.round(waits / 10.0) * 10.0
        positive = waits[waits > 0.0]
        target = (float(rng.choice(positive)) if on_a_wait and positive.size
                  else float(rng.uniform(1.0, 120.0)))
        state = self._state(AutoscalerPolicy(
            max_clusters=10**6, up_queue_per_cluster=10**9,
            target_p99_wait_s=target, cooldown_s=0.0))
        checkpoints = {n, *rng.integers(1, n + 1, 20).tolist()}
        for i, wait in enumerate(waits.tolist(), start=1):
            state.record_wait(wait)
            if i in checkpoints:
                fired = state.decide(float(i), queued=1, idle=0) > 0
                assert fired == (percentile(waits[:i], 99) > target)
                if fired:
                    assert state.events[-1].reason == "p99_wait"

    def test_idle_fleet_scales_down_to_min(self):
        policy = AutoscalerPolicy(min_clusters=2, max_clusters=8,
                                  down_idle_fraction=0.5, cooldown_s=0.0,
                                  step_clusters=4)
        state = self._state(policy, clusters=4)
        assert state.decide(100.0, queued=0, idle=4) == -2  # min clamp
        assert state.active == 2
        (event,) = state.events
        assert event.action == "down"
        assert event.reason == "idle"
        assert state.decide(200.0, queued=0, idle=2) == 0  # at the floor

    def test_no_scale_down_while_jobs_queue(self):
        state = self._state(clusters=4)
        assert state.decide(100.0, queued=1, idle=4) == 0

    def test_chip_hour_integral(self):
        policy = AutoscalerPolicy(max_clusters=8, up_queue_per_cluster=1.0,
                                  provision_delay_s=100.0, cooldown_s=0.0,
                                  chip_cost_per_hour=2.0)
        state = AutoscalerState(policy, initial_clusters=1,
                                chips_per_cluster=4)
        assert state.decide(0.0, queued=10, idle=0) == 1
        state.activate_one(100.0)  # 1 cluster x 4 chips x 100 s
        state.finalize(200.0)      # + 2 clusters x 4 chips x 100 s
        assert state.chip_hours == pytest.approx(1200.0 / 3600.0)
        assert state.cost == pytest.approx(state.chip_hours * 2.0)
        assert state.peak_clusters == 2

    def test_next_provision_empty(self):
        assert self._state().next_provision_s() == math.inf

    def test_scale_event_serializes(self):
        state = self._state()
        state.decide(100.0, queued=5, idle=0)
        payload = state.events[0].to_dict()
        assert payload == {"time_s": 100.0, "action": "up",
                           "clusters": 1, "active_after": 2,
                           "pending_after": 1, "reason": "queue_depth"}


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"min_clusters": 0},
        {"max_clusters": 0},
        {"min_clusters": 8, "max_clusters": 4},
        {"up_queue_per_cluster": 0.0},
        {"target_p99_wait_s": 0.0},
        {"down_idle_fraction": 1.5},
        {"provision_delay_s": -1.0},
        {"cooldown_s": -1.0},
        {"step_clusters": 0},
        {"chip_cost_per_hour": -0.1},
    ])
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerPolicy(**kwargs)

    def test_initial_fleet_must_fit_under_max(self):
        with pytest.raises(ValueError, match="max_clusters"):
            AutoscalerState(AutoscalerPolicy(max_clusters=2),
                            initial_clusters=4, chips_per_cluster=1)

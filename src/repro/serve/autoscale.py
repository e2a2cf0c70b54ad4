"""Load-adaptive fleet autoscaling: policy, state, and cost ledger.

The static fleet of :mod:`repro.serve.scheduler` rejects most of its
load once arrivals outpace capacity (``BENCH_serve.json`` records ~80%
rejects at the benchmark's arrival rate), which makes the *reactive*
regime the interesting one: a real operator adds clusters when the
queue builds and retires them when they fall idle.  This module is
that reactive controller, a component of the fleet simulator
(:func:`~repro.serve.scheduler.simulate_fleet_streaming`): its one
event loop, with or without faults, drives one :class:`AutoscalerState`
through the same sequence of observations.  A naive reference loop in
the tests drives it the same way and pins the resulting scale
decisions and dispatch schedules.

Model:

* **Signals.**  At every simulation event (arrival, completion,
  provision), after the dispatch loop settles, the controller sees the
  queue depth, the idle-cluster count, and whether the exact
  nearest-rank p99 of every queueing wait so far exceeds the latency
  target.  That yes/no needs no quantile estimate: with ``n`` waits of
  which ``over`` exceed the target, the p99 exceeds it exactly when
  ``n - over < ceil(0.99 n)``, so two integer counters answer it.
* **Scale up.**  When the queue exceeds
  ``up_queue_per_cluster x active`` clusters' worth of jobs — or the
  p99 wait exceeds ``target_p99_wait_s`` while jobs queue —
  ``step_clusters`` new clusters are *requested*.  Each becomes
  usable ``provision_delay_s`` later (machines take time to arrive),
  and counts toward ``max_clusters`` from the moment of the request.
* **Scale down.**  When the queue is empty and more than
  ``down_idle_fraction`` of the active clusters sit idle, idle
  clusters retire immediately (never below ``min_clusters``).
* **Cooldown.**  Decisions are rate-limited to one per
  ``cooldown_s`` of simulated time, the standard guard against
  provisioning oscillation.
* **Cost.**  Active capacity integrates into chip-hours
  (clusters x chips, from activation to retirement or end of run),
  priced at ``chip_cost_per_hour`` — the fleet report's answer to
  "what did serving this trace cost?".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

#: Reasons a :class:`ScaleEvent` may carry.
SCALE_REASONS = ("queue_depth", "p99_wait", "idle")


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Knobs of the reactive scaling loop.

    Parameters
    ----------
    min_clusters:
        Floor the fleet never shrinks below.  ``None`` (default) means
        the fleet's initial cluster count.
    max_clusters:
        Ceiling on ``active + pending`` clusters.
    up_queue_per_cluster:
        Scale up when ``queued > up_queue_per_cluster x active``.
    target_p99_wait_s:
        Optional latency SLO: scale up whenever the p99 of the
        queueing waits so far exceeds this while jobs are queued.
        ``None`` disables the latency trigger.
    down_idle_fraction:
        Scale down when the queue is empty and strictly more than this
        fraction of active clusters is idle.
    provision_delay_s:
        Lag between requesting a cluster and it accepting work.
    cooldown_s:
        Minimum simulated time between two scale decisions.
    step_clusters:
        Clusters added (or retired) per decision.
    chip_cost_per_hour:
        Price of one chip-hour, for the report's cost line.
    """

    min_clusters: int | None = None
    max_clusters: int = 64
    up_queue_per_cluster: float = 4.0
    target_p99_wait_s: float | None = None
    down_idle_fraction: float = 0.5
    provision_delay_s: float = 60.0
    cooldown_s: float = 60.0
    step_clusters: int = 1
    chip_cost_per_hour: float = 2.5

    def __post_init__(self) -> None:
        if self.min_clusters is not None and self.min_clusters < 1:
            raise ValueError(
                f"min_clusters must be >= 1, got {self.min_clusters}")
        if self.max_clusters < 1:
            raise ValueError(
                f"max_clusters must be >= 1, got {self.max_clusters}")
        if self.min_clusters is not None \
                and self.min_clusters > self.max_clusters:
            raise ValueError(
                f"min_clusters {self.min_clusters} exceeds max_clusters "
                f"{self.max_clusters}")
        if self.up_queue_per_cluster <= 0:
            raise ValueError("up_queue_per_cluster must be positive")
        if self.target_p99_wait_s is not None \
                and self.target_p99_wait_s <= 0:
            raise ValueError("target_p99_wait_s must be positive")
        if not 0.0 <= self.down_idle_fraction <= 1.0:
            raise ValueError(
                f"down_idle_fraction must be in [0, 1], got "
                f"{self.down_idle_fraction}")
        if self.provision_delay_s < 0:
            raise ValueError("provision_delay_s must be >= 0")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.step_clusters < 1:
            raise ValueError(
                f"step_clusters must be >= 1, got {self.step_clusters}")
        if self.chip_cost_per_hour < 0:
            raise ValueError("chip_cost_per_hour must be >= 0")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, as it appears in the fleet report.

    ``clusters`` is the (positive) cluster count the action moved.
    For an ``"up"`` event the new clusters are *pending* (usable
    ``provision_delay_s`` later); ``active_after`` / ``pending_after``
    snapshot the capacity immediately after the decision.
    """

    time_s: float
    action: str  # "up" | "down"
    clusters: int
    active_after: int
    pending_after: int
    reason: str  # one of SCALE_REASONS

    @property
    def label(self) -> str:
        """Display name (trace instants, report lines)."""
        return f"scale {self.action} ({self.reason})"

    def to_dict(self) -> dict[str, Any]:
        return {
            "time_s": self.time_s,
            "action": self.action,
            "clusters": self.clusters,
            "active_after": self.active_after,
            "pending_after": self.pending_after,
            "reason": self.reason,
        }


class AutoscalerState:
    """Mutable per-run scaling state an event loop drives.

    The loops own event ordering and dispatch; this object owns the
    capacity ledger: how many clusters are active, which activation
    times are pending, the p99-wait counters, the scale-event log and
    the chip-hour integral.  A loop drives it through one call
    sequence — ``record_wait`` per dispatch, ``decide`` per settled
    event, ``activate_one`` per provision event, ``finalize`` at the
    end — so scale decisions depend on that sequence alone.
    """

    __slots__ = ("policy", "chips_per_cluster", "min_clusters", "active",
                 "pending", "events", "waits_recorded", "waits_over_target",
                 "peak_clusters", "_last_scale_s", "_chip_seconds",
                 "_accrued_to_s")

    def __init__(self, policy: AutoscalerPolicy, *, initial_clusters: int,
                 chips_per_cluster: int) -> None:
        if initial_clusters > policy.max_clusters:
            raise ValueError(
                f"initial fleet of {initial_clusters} clusters exceeds "
                f"max_clusters {policy.max_clusters}")
        self.policy = policy
        self.chips_per_cluster = chips_per_cluster
        self.min_clusters = (policy.min_clusters
                             if policy.min_clusters is not None
                             else initial_clusters)
        self.active = initial_clusters
        self.peak_clusters = initial_clusters
        #: Min-heap of pending activation times.
        self.pending: list[float] = []
        self.events: list[ScaleEvent] = []
        #: Waits recorded, and how many of them exceed the p99 target.
        self.waits_recorded = 0
        self.waits_over_target = 0
        self._last_scale_s = -math.inf
        self._chip_seconds = 0.0
        self._accrued_to_s = 0.0

    # -- capacity ledger --------------------------------------------------

    def _accrue(self, now_s: float) -> None:
        """Integrate active capacity up to ``now_s`` (monotone)."""
        if now_s > self._accrued_to_s:
            self._chip_seconds += (self.active * self.chips_per_cluster
                                   * (now_s - self._accrued_to_s))
            self._accrued_to_s = now_s

    def next_provision_s(self) -> float:
        """Earliest pending activation time (``inf`` when none)."""
        return self.pending[0] if self.pending else math.inf

    def activate_one(self, now_s: float) -> None:
        """Turn the earliest pending cluster on at ``now_s``."""
        self._accrue(now_s)
        heapq.heappop(self.pending)
        self.active += 1
        if self.active > self.peak_clusters:
            self.peak_clusters = self.active

    def finalize(self, end_s: float) -> None:
        """Close the chip-hour integral at the end of the run."""
        self._accrue(end_s)

    @property
    def chip_hours(self) -> float:
        return self._chip_seconds / 3600.0

    @property
    def cost(self) -> float:
        return self.chip_hours * self.policy.chip_cost_per_hour

    # -- signals -----------------------------------------------------------

    def record_wait(self, wait_s: float) -> None:
        """Count one dispatch's queueing wait toward the p99 signal."""
        self.waits_recorded += 1
        target = self.policy.target_p99_wait_s
        if target is not None and wait_s > target:
            self.waits_over_target += 1

    # -- the decision ------------------------------------------------------

    def decide(self, now_s: float, queued: int, idle: int) -> int:
        """One scale decision after an event's dispatch loop settles.

        Returns the signed cluster delta: ``+k`` clusters requested
        (now pending, usable at ``now_s + provision_delay_s``),
        ``-k`` idle clusters retired immediately, ``0`` for no action.
        The caller mirrors the delta into its own event structures
        (provision events / idle pool).
        """
        policy = self.policy
        if now_s - self._last_scale_s < policy.cooldown_s:
            return 0
        total = self.active + len(self.pending)
        if queued > 0 and total < policy.max_clusters:
            reason = None
            if queued > policy.up_queue_per_cluster * self.active:
                reason = "queue_depth"
            elif (self.waits_recorded - self.waits_over_target
                  < -(-self.waits_recorded * 99 // 100)):
                # The nearest-rank p99 (the ceil(0.99 n)-th smallest
                # wait) exceeds the target exactly when fewer waits than
                # that rank sit at or below it; never with no target.
                reason = "p99_wait"
            if reason is not None:
                grow = min(policy.step_clusters,
                           policy.max_clusters - total)
                for _ in range(grow):
                    heapq.heappush(self.pending,
                                   now_s + policy.provision_delay_s)
                self._last_scale_s = now_s
                self.events.append(ScaleEvent(
                    time_s=float(now_s), action="up", clusters=grow,
                    active_after=self.active,
                    pending_after=len(self.pending), reason=reason))
                return grow
            return 0
        if queued == 0 and self.active > self.min_clusters \
                and idle > policy.down_idle_fraction * self.active:
            shrink = min(policy.step_clusters, idle,
                         self.active - self.min_clusters)
            if shrink > 0:
                self._accrue(now_s)
                self.active -= shrink
                self._last_scale_s = now_s
                self.events.append(ScaleEvent(
                    time_s=float(now_s), action="down", clusters=shrink,
                    active_after=self.active,
                    pending_after=len(self.pending), reason="idle"))
                return -shrink
        return 0

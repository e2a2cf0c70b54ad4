"""Seeded fault injection for the fleet simulator.

Real fleets lose chips.  This module gives the serving simulator a
failure model that is **deterministic by construction**: every random
quantity — time-to-failure, straggler slowdown, blast radius, repair
downtime, the degrade-vs-requeue preference — is a pure function of
``(seed, job_id, attempt)`` through a splitmix64-style counter hash.
No RNG object is ever constructed and no call-order state exists, so
the vectorized first-attempt table equals the one-by-one draws and
any loop that dispatches the same jobs at the same times draws the
exact same failure schedule, however it walks the trace (lint rule
R008 pins consumers to this stream).  ``job_id`` is the job's arrival
position in the :class:`~repro.serve.job.TraceArrays` the simulator
replays.

The pieces:

:class:`FaultConfig` / :class:`FaultModel`
    The distributions.  Per-chip Weibull (shape 1 = exponential) MTBF
    composed over a cluster's chips via the min-stability of Weibull
    minima; optionally correlated failures that take a whole node's
    chips; transient stragglers multiplying step latency; exponential
    repair downtime; capped exponential retry backoff.

:class:`FaultRun`
    The per-simulation state machine the faulty event loop drives
    through one call per dispatch — :meth:`FaultRun.begin_attempt`.  It owns checkpoint amortization (cadence from the
    :class:`~repro.training.simulate.CheckpointConfig`, Young/Daly
    when unset), the crash ledger transactions
    (:meth:`~repro.serve.budget.AdmissionController.reprice_steps` /
    :meth:`~repro.serve.budget.AdmissionController.refund_steps`),
    graceful degradation via
    :func:`~repro.training.plan.plan_placement`, and every fault
    metric the report surfaces.  See ``docs/reliability.md``.

Budget-safety invariant (tested property-style): steps that executed
before a crash released their noise, so their reservation is *never*
refunded; re-running work lost since the last checkpoint requires a
fresh grant priced against the remaining budget, and only the un-run
tail of an abandoned job is returned.  The ledger therefore moves
toward the ``(epsilon, delta)`` cap monotonically and never past it,
no matter how crashes and retries interleave.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, overload

import numpy as np
from numpy.typing import NDArray

from repro.training.simulate import (
    CheckpointConfig,
    checkpoint_write_seconds,
    young_daly_interval_s,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments import runner
    from repro.serve.budget import AdmissionController
    from repro.serve.scheduler import FleetConfig

__all__ = [
    "AttemptOutcome",
    "FaultConfig",
    "FaultEvent",
    "FaultModel",
    "FaultRun",
]


# -- keyed randomness ---------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Draw streams: one per random quantity, so adding a stream never
#: shifts another stream's values (counter-based, not sequential).
_S_FAIL, _S_STRAGGLE, _S_SCOPE, _S_REPAIR, _S_DEGRADE = range(5)


def _mix64(value: Any) -> Any:
    """splitmix64 finalizer: one avalanche round over 64 bits.

    Works unchanged on Python ints and on ``uint64`` arrays (whose
    arithmetic wraps modulo 2**64, exactly what the masks emulate).
    """
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@overload
def _keyed_uniform(seed: int, job_id: int, attempt: int,
                   stream: int) -> float: ...


@overload
def _keyed_uniform(seed: int, job_id: NDArray[np.uint64], attempt: int,
                   stream: int) -> NDArray[np.float64]: ...


def _keyed_uniform(seed: int, job_id: Any, attempt: int,
                   stream: int) -> Any:
    """Uniform in (0, 1), a pure function of its key — no RNG state.

    ``job_id`` may be a ``uint64`` array: the draws are then computed
    for every id at once and equal the scalar ones bit for bit.
    """
    h = _mix64(seed)
    h = _mix64(h ^ _mix64(job_id))
    h = _mix64(h ^ _mix64(attempt))
    h = _mix64(h ^ _mix64(stream))
    # 53 mantissa bits, offset half an ulp: never exactly 0 or 1, so
    # log() below is always finite.
    return ((h >> 11) + 0.5) * (2.0 ** -53)


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class FaultConfig:
    """Failure-process parameters for one simulated fleet.

    Parameters
    ----------
    mtbf_hours:
        Per-chip mean time between failures.  A cluster of ``C`` chips
        fails at the min of ``C`` i.i.d. Weibull draws, which is again
        Weibull with scale shrunk by ``C**(1/shape)``.
    weibull_shape:
        Weibull shape ``k``; 1 is the memoryless exponential, ``k > 1``
        models wear-out, ``k < 1`` infant mortality.
    straggler_rate:
        Probability that an attempt runs on a transient straggler,
        multiplying its *compute* step latency by
        ``straggler_factor`` (checkpoint writes are storage-bound and
        unaffected).
    correlated_fraction:
        Probability that a failure takes out the whole node
        (``chips_per_node`` chips) instead of a single chip.
    repair_hours:
        Mean of the exponential repair downtime.
    degrade_fraction:
        Probability a crashed job *continues degraded* on the surviving
        chips (when a feasible ``dp' < dp`` placement exists) instead
        of requeueing.
    max_retries:
        Requeues allowed after the first attempt; the next crash
        abandons the job and refunds its un-run reservation.
    backoff_base_s / backoff_cap_s:
        Capped exponential requeue backoff:
        ``min(cap, base * 2**(retry - 1))``.
    checkpoint:
        Checkpoint cadence and storage bandwidth
        (:class:`~repro.training.simulate.CheckpointConfig`); a
        ``None`` interval derives the per-workload Young/Daly cadence.
    seed:
        Root of every keyed draw.
    """

    mtbf_hours: float = 168.0
    weibull_shape: float = 1.0
    straggler_rate: float = 0.0
    straggler_factor: float = 4.0
    correlated_fraction: float = 0.0
    repair_hours: float = 0.5
    degrade_fraction: float = 0.5
    max_retries: int = 3
    backoff_base_s: float = 30.0
    backoff_cap_s: float = 3600.0
    checkpoint: CheckpointConfig = CheckpointConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mtbf_hours <= 0:
            raise ValueError(
                f"mtbf_hours must be positive, got {self.mtbf_hours}")
        if self.weibull_shape <= 0:
            raise ValueError(
                f"weibull_shape must be positive, got {self.weibull_shape}")
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise ValueError(
                f"straggler_rate must be in [0, 1], got "
                f"{self.straggler_rate}")
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got "
                f"{self.straggler_factor}")
        if not 0.0 <= self.correlated_fraction <= 1.0:
            raise ValueError(
                f"correlated_fraction must be in [0, 1], got "
                f"{self.correlated_fraction}")
        if not 0.0 <= self.degrade_fraction <= 1.0:
            raise ValueError(
                f"degrade_fraction must be in [0, 1], got "
                f"{self.degrade_fraction}")
        if self.repair_hours < 0:
            raise ValueError(
                f"repair_hours must be >= 0, got {self.repair_hours}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be >= 0")


class FaultModel:
    """Keyed draws from :class:`FaultConfig`'s distributions.

    Stateless: every method is a pure function of its arguments and
    the config, so the two fleet simulators (and any re-run) observe
    identical failures without sharing any mutable object.
    """

    __slots__ = ("config", "_chip_scale_s")

    def __init__(self, config: FaultConfig = FaultConfig()) -> None:
        self.config = config
        # Weibull scale matching the configured chip MTBF:
        # mean = scale * Gamma(1 + 1/k).
        self._chip_scale_s = (config.mtbf_hours * 3600.0
                              / math.gamma(1.0 + 1.0 / config.weibull_shape))

    def cluster_mtbf_s(self, n_chips: int) -> float:
        """Mean time to first failure among ``n_chips`` chips."""
        return (self.config.mtbf_hours * 3600.0
                / n_chips ** (1.0 / self.config.weibull_shape))

    def time_to_failure_s(self, job_id: int, attempt: int,
                          n_chips: int) -> float:
        """Attempt-start-relative first failure across the cluster."""
        shape = self.config.weibull_shape
        u = _keyed_uniform(self.config.seed, job_id, attempt, _S_FAIL)
        scale = self._chip_scale_s / n_chips ** (1.0 / shape)
        return scale * (-math.log(u)) ** (1.0 / shape)

    def first_failures_s(self, n_jobs: int, n_chips: int) -> list[float]:
        """``time_to_failure_s(job, 1, n_chips)`` for jobs ``0..n_jobs-1``.

        One array hash draws every job's first-attempt uniform; the log
        and power stay per-value ``math`` calls, since NumPy's
        vectorized ``log`` may round differently from libm.  Equal to
        the scalar draws bit for bit.
        """
        shape = self.config.weibull_shape
        draws = _keyed_uniform(self.config.seed,
                               np.arange(n_jobs, dtype=np.uint64), 1,
                               _S_FAIL)
        scale = self._chip_scale_s / n_chips ** (1.0 / shape)
        exponent = 1.0 / shape
        log = math.log
        return [scale * (-log(u)) ** exponent for u in draws.tolist()]

    def straggler_multiplier(self, job_id: int, attempt: int) -> float:
        """Step-latency multiplier for this attempt (1.0 = healthy)."""
        rate = self.config.straggler_rate
        if rate <= 0.0:
            return 1.0
        u = _keyed_uniform(self.config.seed, job_id, attempt, _S_STRAGGLE)
        return self.config.straggler_factor if u < rate else 1.0

    def chips_lost(self, job_id: int, attempt: int, chips_per_node: int,
                   chips_per_cluster: int) -> int:
        """Blast radius of this attempt's failure, in chips."""
        fraction = self.config.correlated_fraction
        if fraction <= 0.0 or chips_per_node <= 1:
            return 1
        u = _keyed_uniform(self.config.seed, job_id, attempt, _S_SCOPE)
        if u < fraction:
            return min(chips_per_node, chips_per_cluster)
        return 1

    def repair_seconds(self, job_id: int, attempt: int) -> float:
        """Seeded exponential repair downtime for this failure."""
        mean_s = self.config.repair_hours * 3600.0
        if mean_s <= 0.0:
            return 0.0
        u = _keyed_uniform(self.config.seed, job_id, attempt, _S_REPAIR)
        return -mean_s * math.log(u)

    def prefers_degrade(self, job_id: int, attempt: int) -> bool:
        """Whether this failure degrades in place (if feasible)."""
        fraction = self.config.degrade_fraction
        if fraction <= 0.0:
            return False
        u = _keyed_uniform(self.config.seed, job_id, attempt, _S_DEGRADE)
        return u < fraction

    def backoff_s(self, retry: int) -> float:
        """Capped exponential requeue delay before retry ``retry``."""
        return min(self.config.backoff_cap_s,
                   self.config.backoff_base_s * 2.0 ** (retry - 1))


# -- per-run state machine ----------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One failure-lifecycle instant, for observability export."""

    kind: str  # "failure" | "repair" | "retry" | "degrade"
    time_s: float
    job_id: int
    attempt: int


@dataclass(frozen=True)
class AttemptOutcome:
    """What one dispatched attempt did with its cluster.

    ``free_s`` is when the cluster rejoins the idle pool: the finish
    instant for clean runs, ``max(finish, repair end)`` for degraded
    continuations, the repair end for crashes.  ``retry_s`` is set
    only when the job requeues.
    """

    completed: bool
    failed: bool
    finish_s: float | None
    free_s: float
    retry_s: float | None
    crash_s: float | None


@dataclass
class _JobState:
    """Crash survivor state; exists only between a crash and the end."""

    done: int
    reserved: int
    attempts: int
    ready_s: float


@dataclass
class FaultRun:
    """Failure bookkeeping one simulation drives through its dispatches.

    The event loop calls :meth:`begin_attempt` once per dispatch; every
    counter, ledger transaction and outcome below is a function of that
    call sequence alone.

    The step-count ledger per job is ``target = done + reserved``:
    ``done`` steps executed *and checkpointed*, ``reserved`` steps
    still holding budget.  A crash moves the surviving steps into
    ``done``, drops the executed-but-lost steps from ``reserved``
    (their noise escaped — the spend stands), and asks the admission
    controller to price their re-execution; any shortfall shrinks the
    job's target instead of overdrawing the tenant.
    """

    model: FaultModel
    fleet: "FleetConfig"
    admission: "AdmissionController"
    cache: "runner.ResultCache | None" = None

    # -- outcome counters --
    completed: int = 0
    truncated: int = 0
    failed: int = 0
    failures: int = 0
    retries: int = 0
    degradations: int = 0
    busy_s: float = 0.0
    wasted_s: float = 0.0
    makespan_s: float = 0.0
    repair_total_s: float = 0.0
    #: Cluster-unavailable intervals (requeue repairs; degraded-run
    #: repair tails past the job's finish).
    downtime: list[tuple[float, float]] = field(default_factory=list)
    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._jobs: dict[int, _JobState] = {}
        self._ckpt: dict[tuple[str, float], tuple[float, int]] = {}
        self._degraded: dict[tuple[str, str, int, int], float | None] = {}
        self._first_failure_s: "array[float]" = array("d")

    def prime_first_failures(self, n_jobs: int) -> None:
        """Draw the first-attempt failure time of jobs ``0..n_jobs-1`` now.

        The event loop calls this once before its first dispatch;
        :meth:`begin_attempt` then reads first attempts from the table
        and draws retries (and ids outside it) one by one.
        """
        self._first_failure_s = array("d", self.model.first_failures_s(
            n_jobs, self.fleet.chips_per_cluster))

    # -- checkpoint cadence ------------------------------------------------

    def _checkpoint(self, model_name: str,
                    step_s: float) -> tuple[float, int]:
        """``(write_s, interval_steps)`` for one workload's cadence."""
        key = (model_name, step_s)
        hit = self._ckpt.get(key)
        if hit is None:
            from repro.workloads import build_model

            cfg = self.model.config.checkpoint
            write_s = checkpoint_write_seconds(build_model(model_name), cfg)
            if cfg.interval_steps is not None:
                interval = cfg.interval_steps
            else:
                mtbf_s = self.model.cluster_mtbf_s(
                    self.fleet.chips_per_cluster)
                interval = max(1, round(
                    young_daly_interval_s(write_s, mtbf_s) / step_s))
            hit = (write_s, interval)
            self._ckpt[key] = hit
        return hit

    def effective_step_seconds(self, model_name: str,
                               step_s: float) -> float:
        """Step latency with the amortized checkpoint-write overhead."""
        write_s, interval = self._checkpoint(model_name, step_s)
        return step_s + write_s / interval

    # -- requeue bookkeeping the loops read ---------------------------------

    def remaining_steps(self, job_id: int, granted: int) -> int:
        """Steps the next attempt will run (the job's live reservation)."""
        state = self._jobs.get(job_id)
        return granted if state is None else state.reserved

    def ready_s(self, job_id: int, arrival_s: float) -> float:
        """When the job became dispatchable (arrival, or retry time)."""
        state = self._jobs.get(job_id)
        return arrival_s if state is None else state.ready_s

    # -- graceful degradation ----------------------------------------------

    def _degraded_step_s(self, model_name: str, algorithm: str,
                         batch: int, chips_lost: int) -> float | None:
        """Step latency at the nearest feasible ``dp' < dp``.

        ``pp`` / ``tp`` stages are mandatory — each lost chip removes
        one data-parallel replica (its whole ``pp x tp`` grid stalls),
        so only the ``dp`` axis shrinks.  ``None`` when no smaller
        replica count fits (including ``dp == 1``: losing any chip of
        a pure model-parallel grid stalls the job outright).
        """
        key = (model_name, algorithm, batch, chips_lost)
        if key in self._degraded:
            return self._degraded[key]

        from repro.training import Algorithm, plan_placement
        from repro.workloads import build_model

        fleet = self.fleet
        replicas_lost = min(fleet.dp, chips_lost)
        best: float | None = None
        for dp2 in range(fleet.dp - replicas_lost, 0, -1):
            chips2 = dp2 * fleet.pp * fleet.tp
            rounded = math.ceil(batch / dp2) * dp2
            try:
                result = plan_placement(
                    build_model(model_name), Algorithm(algorithm),
                    chips2, rounded, kind=fleet.kind,
                    topology=fleet.topology,
                    bucket_bytes=fleet.bucket_bytes,
                    chips_per_node=fleet.chips_per_node,
                    fabric=fleet.fabric, overlap=fleet.overlap)
            except ValueError:
                continue
            for cand in result.candidates:
                if cand.feasible and cand.plan.dp == dp2 \
                        and cand.plan.pp == fleet.pp \
                        and cand.plan.tp == fleet.tp:
                    best = cand.step_seconds
                    break
            if best is not None:
                break
        self._degraded[key] = best
        return best

    # -- the attempt state machine ------------------------------------------

    def begin_attempt(
        self,
        job_id: int,
        now: float,
        *,
        step_s: float,
        granted: int,
        requested: int,
        tenant: str,
        sampling_rate: float,
        noise_multiplier: float,
        private: bool,
        model_name: str,
        algorithm: str,
        batch: int,
    ) -> AttemptOutcome:
        """Run one dispatched attempt of ``job_id`` starting at ``now``."""
        cfg = self.model.config
        fleet = self.fleet
        state = self._jobs.get(job_id)
        attempt = 1 if state is None else state.attempts + 1
        remaining = granted if state is None else state.reserved
        done = 0 if state is None else state.done

        write_s, interval = self._checkpoint(model_name, step_s)
        mult = self.model.straggler_multiplier(job_id, attempt)
        eff = step_s * mult + write_s / interval
        duration = remaining * eff
        if attempt == 1 and 0 <= job_id < len(self._first_failure_s):
            fail_after = self._first_failure_s[job_id]
        else:
            fail_after = self.model.time_to_failure_s(
                job_id, attempt, fleet.chips_per_cluster)

        if fail_after >= duration:
            # Clean run to completion.
            finish = now + duration
            self.busy_s += duration
            return self._complete(job_id, finish, free_s=finish,
                                  crash_s=None, total_done=done + remaining,
                                  requested=requested)

        # Crash: everything since the last checkpoint is lost.
        self.failures += 1
        executed = min(remaining - 1, int(fail_after / eff))
        surviving = (executed // interval) * interval
        lost = executed - surviving
        crash_s = now + fail_after
        self.busy_s += fail_after
        self.wasted_s += fail_after - surviving * eff
        repair_s = self.model.repair_seconds(job_id, attempt)
        self.repair_total_s += repair_s
        self.events.append(FaultEvent("failure", crash_s, job_id, attempt))
        self.events.append(
            FaultEvent("repair", crash_s + repair_s, job_id, attempt))

        # Ledger transaction: surviving steps stay spent-and-kept, the
        # lost steps' spend stands but their re-run needs a new grant.
        if lost > 0 and private:
            regranted = self.admission.reprice_steps(
                tenant, sampling_rate, noise_multiplier, lost)
        else:
            regranted = lost
        done += surviving
        reserved = remaining - executed + regranted

        chips_lost = self.model.chips_lost(
            job_id, attempt, fleet.chips_per_node, fleet.chips_per_cluster)

        if reserved > 0 and self.model.prefers_degrade(job_id, attempt):
            degraded_step_s = self._degraded_step_s(
                model_name, algorithm, batch, chips_lost)
            if degraded_step_s is not None:
                # Continue on the surviving replicas: reload the last
                # checkpoint, run the tail at the degraded latency;
                # the chip repairs concurrently.
                eff_deg = degraded_step_s * mult + write_s / interval
                finish = crash_s + write_s + reserved * eff_deg
                free_s = max(finish, crash_s + repair_s)
                self.busy_s += write_s + reserved * eff_deg
                self.wasted_s += write_s
                self.degradations += 1
                if free_s > finish:
                    self.downtime.append((finish, free_s))
                self.events.append(
                    FaultEvent("degrade", crash_s, job_id, attempt))
                return self._complete(job_id, finish, free_s=free_s,
                                      crash_s=crash_s,
                                      total_done=done + reserved,
                                      requested=requested)

        # The cluster goes down for repair either way from here.
        free_s = crash_s + repair_s
        self.downtime.append((crash_s, free_s))

        if reserved <= 0:
            # The remaining budget cannot re-buy the lost work: the
            # job ends at the crash with what it checkpointed.
            self._jobs.pop(job_id, None)
            if done > 0:
                return self._complete(job_id, crash_s, free_s=free_s,
                                      crash_s=crash_s, total_done=done,
                                      requested=requested)
            return self._fail(job_id, crash_s, free_s)

        if attempt > cfg.max_retries:
            # Out of retries: abandon and return the un-run tail.
            if private:
                self.admission.refund_steps(
                    tenant, sampling_rate, noise_multiplier, reserved)
            return self._fail(job_id, crash_s, free_s)

        retry_s = crash_s + self.model.backoff_s(attempt)
        self.retries += 1
        self._jobs[job_id] = _JobState(
            done=done, reserved=reserved, attempts=attempt,
            ready_s=retry_s)
        self.events.append(FaultEvent("retry", retry_s, job_id, attempt))
        return AttemptOutcome(completed=False, failed=False, finish_s=None,
                              free_s=free_s, retry_s=retry_s,
                              crash_s=crash_s)

    def _complete(self, job_id: int, finish_s: float, *, free_s: float,
                  crash_s: float | None, total_done: int,
                  requested: int) -> AttemptOutcome:
        self._jobs.pop(job_id, None)
        self.completed += 1
        if total_done < requested:
            self.truncated += 1
        if finish_s > self.makespan_s:
            self.makespan_s = finish_s
        return AttemptOutcome(completed=True, failed=False,
                              finish_s=finish_s, free_s=free_s,
                              retry_s=None, crash_s=crash_s)

    def _fail(self, job_id: int, crash_s: float,
              free_s: float) -> AttemptOutcome:
        self._jobs.pop(job_id, None)
        self.failed += 1
        if crash_s > self.makespan_s:
            self.makespan_s = crash_s
        return AttemptOutcome(completed=False, failed=True, finish_s=None,
                              free_s=free_s, retry_s=None, crash_s=crash_s)

    # -- report inputs -------------------------------------------------------

    @property
    def mttr_s(self) -> float:
        """Mean repair downtime per failure (0 with no failures)."""
        return (self.repair_total_s / self.failures
                if self.failures else 0.0)

    @property
    def retries_per_job(self) -> float:
        """Requeues per job that reached a terminal state."""
        terminal = self.completed + self.failed
        return self.retries / terminal if terminal else 0.0

    def downtime_seconds(self, cap_s: float | None = None) -> float:
        """Total cluster-unavailable time, optionally clipped at ``cap_s``."""
        total = 0.0
        for start, end in self.downtime:
            if cap_s is not None:
                end = min(end, cap_s)
            if end > start:
                total += end - start
        return total

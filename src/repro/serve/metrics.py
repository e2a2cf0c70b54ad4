"""Fleet-level serving metrics: latency percentiles, utilization, budgets.

The scheduler hands this module its running totals, its per-dispatch
wait column and the admission controller, and gets back a
:class:`FleetReport` — the JSON-serializable summary the ``serve``
experiment renders: throughput, exact nearest-rank queueing-wait
percentiles (:func:`percentile`), chip utilization, admission tallies,
and the per-tenant epsilon spend against its configured budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.experiments.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.autoscale import AutoscalerState, ScaleEvent
    from repro.serve.budget import AdmissionController
    from repro.serve.faults import FaultRun


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample.

    The rank is an integer ceiling (no float-ranked interpolation), and
    one ``np.partition`` selects it, so the answer depends only on the
    multiset of ``values``, never on their order.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    data = np.asarray(values, dtype=float)
    if not data.size:
        return 0.0
    rank = int(max(1, -(-data.size * pct // 100))) - 1  # no float drift
    return float(np.partition(data, rank)[rank])


@dataclass(frozen=True)
class TenantUsage:
    """One tenant's budget position at the end of the simulation."""

    tenant: str
    budget_epsilon: float
    delta: float
    epsilon_spent: float
    admitted: int
    truncated: int
    rejected: int

    @property
    def within_budget(self) -> bool:
        return self.epsilon_spent <= self.budget_epsilon

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "budget_epsilon": self.budget_epsilon,
            "delta": self.delta,
            "epsilon_spent": self.epsilon_spent,
            "admitted": self.admitted,
            "truncated": self.truncated,
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet simulation.

    ``chips`` / ``n_clusters`` describe the *initial* fleet; when a
    run autoscales, ``scale_events`` logs every capacity change,
    ``peak_clusters`` the high-water mark, and ``chip_hours`` /
    ``cost`` the integral of active capacity over the run (zero on
    static runs, where capacity is a configuration, not an outcome).

    When fault injection is on (``faults_enabled``), the report also
    separates *throughput* (jobs completed) from *goodput* (the share
    of available capacity whose work survived to a checkpoint or a
    finish), and accounts the failure tax explicitly: jobs abandoned
    after their retry cap, requeues, degraded continuations, chip-hours
    wasted on recomputed-or-lost work, chip-hours lost to repair
    downtime, and the mean repair time.  Repair downtime is subtracted
    from the utilization/goodput denominator — a cluster under repair
    is not available capacity — but stays in ``chip_hours``/``cost``:
    the fleet still pays for a chip while it is being fixed.
    """

    policy: str
    chips: int
    n_clusters: int
    chips_per_cluster: int
    submitted: int
    completed: int
    truncated: int
    rejected: int
    makespan_s: float
    throughput_jobs_per_h: float
    utilization: float
    wait_p50_s: float
    wait_p95_s: float
    wait_p99_s: float
    tenants: tuple[TenantUsage, ...]
    #: Always empty; ``perfbench/workloads.py`` still checks it.
    records: tuple[()] = ()
    scale_events: tuple[ScaleEvent, ...] = ()
    peak_clusters: int = 0
    chip_hours: float = 0.0
    cost: float = 0.0
    faults_enabled: bool = False
    failed: int = 0
    retries: int = 0
    degradations: int = 0
    goodput: float = 0.0
    wasted_chip_hours: float = 0.0
    repair_chip_hours: float = 0.0
    mttr_s: float = 0.0
    retries_per_job: float = 0.0

    def tenant(self, name: str) -> TenantUsage:
        for usage in self.tenants:
            if usage.tenant == name:
                return usage
        raise KeyError(f"unknown tenant {name!r}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary."""
        data: dict[str, Any] = {
            "policy": self.policy,
            "chips": self.chips,
            "n_clusters": self.n_clusters,
            "chips_per_cluster": self.chips_per_cluster,
            "submitted": self.submitted,
            "completed": self.completed,
            "truncated": self.truncated,
            "rejected": self.rejected,
            "makespan_s": self.makespan_s,
            "throughput_jobs_per_h": self.throughput_jobs_per_h,
            "utilization": self.utilization,
            "wait_p50_s": self.wait_p50_s,
            "wait_p95_s": self.wait_p95_s,
            "wait_p99_s": self.wait_p99_s,
            "scale_events": [event.to_dict()
                             for event in self.scale_events],
            "peak_clusters": self.peak_clusters,
            "chip_hours": self.chip_hours,
            "cost": self.cost,
            "tenants": [usage.to_dict() for usage in self.tenants],
        }
        if self.faults_enabled:
            # Only present on faulty runs, so zero-failure reports stay
            # byte-identical to the pre-fault-injection format.
            data["faults"] = {
                "failed": self.failed,
                "retries": self.retries,
                "degradations": self.degradations,
                "goodput": self.goodput,
                "wasted_chip_hours": self.wasted_chip_hours,
                "repair_chip_hours": self.repair_chip_hours,
                "mttr_s": self.mttr_s,
                "retries_per_job": self.retries_per_job,
            }
        return data

    def render(self) -> str:
        """Human-readable summary + per-tenant budget table."""
        lines = [
            f"Fleet: {self.chips} chips as {self.n_clusters} x "
            f"{self.chips_per_cluster}-chip clusters, policy={self.policy}",
            f"Jobs: {self.submitted} submitted, {self.completed} completed "
            f"({self.truncated} truncated), {self.rejected} rejected",
            f"Makespan {self.makespan_s:.0f} s, "
            f"{self.throughput_jobs_per_h:.1f} jobs/h, "
            f"chip utilization {self.utilization * 100:.1f}%",
            f"Queueing wait p50/p95/p99: {self.wait_p50_s:.1f} / "
            f"{self.wait_p95_s:.1f} / {self.wait_p99_s:.1f} s",
        ]
        if self.scale_events:
            ups = sum(1 for e in self.scale_events if e.action == "up")
            downs = len(self.scale_events) - ups
            lines.append(
                f"Autoscale: {ups} up / {downs} down decisions, peak "
                f"{self.peak_clusters} clusters, {self.chip_hours:.1f} "
                f"chip-hours (cost {self.cost:.2f})")
        if self.faults_enabled:
            lines.append(
                f"Faults: {self.failed} failed, {self.retries} retries "
                f"({self.retries_per_job:.2f}/job), {self.degradations} "
                f"degraded; goodput {self.goodput * 100:.1f}%, wasted "
                f"{self.wasted_chip_hours:.2f} chip-h, repair "
                f"{self.repair_chip_hours:.2f} chip-h, MTTR "
                f"{self.mttr_s:.0f} s")
        lines += ["", render_tenant_table(self.tenants)]
        return "\n".join(lines)


def render_tenant_table(tenants: Sequence[TenantUsage]) -> str:
    rows = [
        [usage.tenant, usage.budget_epsilon, usage.epsilon_spent,
         f"{usage.epsilon_spent / usage.budget_epsilon * 100:.0f}%",
         usage.admitted, usage.truncated, usage.rejected]
        for usage in tenants
    ]
    return format_table(
        ["Tenant", "Budget eps", "Spent eps", "Used", "Admitted",
         "Truncated", "Rejected"],
        rows, title="Per-tenant privacy budget")


def tenant_usages(admission: "AdmissionController"
                  ) -> tuple[TenantUsage, ...]:
    """Per-tenant budget positions from the admission ledger."""
    return tuple(
        TenantUsage(
            tenant=name,
            budget_epsilon=admission.budget_for(name).epsilon,
            delta=admission.budget_for(name).delta,
            epsilon_spent=admission.epsilon_spent(name),
            **admission.counts(name),
        )
        for name in sorted(admission.seen_tenants())
    )


def _available_seconds(n_clusters: int, makespan_s: float,
                       autoscale: "AutoscalerState | None",
                       downtime_s: float = 0.0) -> float:
    """Cluster-seconds of capacity actually able to run jobs.

    Static fleets offer ``n_clusters x makespan``; autoscaled fleets
    offer the chip-hour integral the autoscaler accrued (so turning
    idle clusters off *raises* utilization, as it should).  Repair
    downtime is subtracted in both cases: a cluster being fixed is
    billed (it stays in ``chip_hours`` and ``cost``) but it is not
    capacity the scheduler could have used.
    """
    if autoscale is not None:
        base = autoscale.chip_hours * 3600.0 / autoscale.chips_per_cluster
    else:
        base = n_clusters * makespan_s
    return max(0.0, base - downtime_s)


def _utilization(busy_s: float, n_clusters: int, makespan_s: float,
                 autoscale: "AutoscalerState | None",
                 downtime_s: float = 0.0) -> float:
    """Busy cluster-time over available cluster-time."""
    available_s = _available_seconds(n_clusters, makespan_s, autoscale,
                                     downtime_s)
    return busy_s / available_s if available_s > 0 else 0.0


def _scale_fields(autoscale: "AutoscalerState | None", n_clusters: int
                  ) -> dict[str, Any]:
    """FleetReport autoscaling fields from a finished state (or not)."""
    if autoscale is None:
        return {"scale_events": (), "peak_clusters": n_clusters,
                "chip_hours": 0.0, "cost": 0.0}
    return {"scale_events": tuple(autoscale.events),
            "peak_clusters": autoscale.peak_clusters,
            "chip_hours": autoscale.chip_hours,
            "cost": autoscale.cost}


def build_streaming_report(
    policy: str,
    chips: int,
    n_clusters: int,
    chips_per_cluster: int,
    *,
    submitted: int,
    completed: int,
    truncated: int,
    rejected: int,
    makespan_s: float,
    busy_s: float,
    waits: Sequence[float],
    admission: "AdmissionController",
    autoscale: "AutoscalerState | None" = None,
    faults: "FaultRun | None" = None,
) -> FleetReport:
    """Fold the scheduler's running totals into a :class:`FleetReport`.

    ``waits`` holds one queueing wait per dispatch (the scheduler's
    8-byte ``array('d')`` column); its p50/p95/p99 are exact
    nearest-rank values (:func:`percentile`) at every trace size.  No
    per-job records are attached.

    ``faults`` (a finished :class:`~repro.serve.faults.FaultRun`)
    switches on the failure block: goodput, wasted and repair
    chip-hours, MTTR, retries-per-job — and removes repair downtime
    from the utilization denominator.  Static fleets clip downtime at
    the makespan (capacity past the last event was never offered);
    autoscaled fleets count it in full, because the billing integral
    keeps accruing through every repair.
    """
    downtime_util_s = 0.0
    fault_fields: dict[str, Any] = {}
    if faults is not None:
        downtime_full_s = faults.downtime_seconds()
        downtime_util_s = (downtime_full_s if autoscale is not None
                           else faults.downtime_seconds(makespan_s))
        available_s = _available_seconds(n_clusters, makespan_s,
                                         autoscale, downtime_util_s)
        chip_h = chips_per_cluster / 3600.0
        fault_fields = {
            "faults_enabled": True,
            "failed": faults.failed,
            "retries": faults.retries,
            "degradations": faults.degradations,
            "goodput": ((busy_s - faults.wasted_s) / available_s
                        if available_s > 0 else 0.0),
            "wasted_chip_hours": faults.wasted_s * chip_h,
            "repair_chip_hours": downtime_full_s * chip_h,
            "mttr_s": faults.mttr_s,
            "retries_per_job": faults.retries_per_job,
        }
    utilization = _utilization(busy_s, n_clusters, makespan_s, autoscale,
                               downtime_util_s)
    throughput = (completed / makespan_s * 3600.0) if makespan_s > 0 \
        else 0.0
    return FleetReport(
        **_scale_fields(autoscale, n_clusters),
        **fault_fields,
        policy=policy,
        chips=chips,
        n_clusters=n_clusters,
        chips_per_cluster=chips_per_cluster,
        submitted=submitted,
        completed=completed,
        truncated=truncated,
        rejected=rejected,
        makespan_s=makespan_s,
        throughput_jobs_per_h=throughput,
        utilization=utilization,
        wait_p50_s=percentile(waits, 50),
        wait_p95_s=percentile(waits, 95),
        wait_p99_s=percentile(waits, 99),
        tenants=tenant_usages(admission),
    )

"""Beyond the paper: multi-tenant DP-training fleet serving study.

Replays one seeded synthetic job trace (:mod:`repro.serve.job`)
against a fleet of DiVa clusters under each scheduling policy of
:mod:`repro.serve.scheduler` and compares throughput, queueing
latency, utilization and admission outcomes.  Privacy-budget admission
control (:mod:`repro.serve.budget`) runs at job arrival, so the
per-tenant epsilon ledger is identical across policies — the study
isolates *scheduling* effects under a fixed privacy regime.

Run it from the CLI::

    python -m repro serve --trace-jobs 200 --chips 4 --policy sjf
    python -m repro serve --jobs 1000000

Every trace runs through the array-backed simulator (vectorized trace
+ batched admission + exact wait percentiles, see
``docs/performance.md``), so a row depends only on its configuration
and seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments import runner
from repro.experiments.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler
    from repro.serve import AutoscalerPolicy

# repro.serve is imported lazily inside run()/render(): the serving
# layer itself uses the experiment runner and report helpers, so a
# module-level import here would close an import cycle through the
# experiments package __init__.

def _stage(profiler: "Profiler | None", name: str):
    """``profiler.stage(name)``, or a no-op when profiling is off."""
    from contextlib import nullcontext

    if profiler is None:
        return nullcontext()
    return profiler.stage(name)


#: Default per-tenant lifetime budget of the demo trace.
DEFAULT_EPSILON_BUDGET = 3.0
DEFAULT_DELTA = 1e-5

def run(
    policies: tuple[str, ...] | None = None,
    trace_jobs: int = 60,
    seed: int = 7,
    chips: int = 4,
    chips_per_cluster: int = 1,
    topology: str = "ring",
    chips_per_node: int = 1,
    bucket_bytes: int | None = None,
    overlap: bool = True,
    pp: int = 1,
    tp: int = 1,
    fabric: str | None = None,
    epsilon_budget: float = DEFAULT_EPSILON_BUDGET,
    delta: float = DEFAULT_DELTA,
    trace_shape: str = "poisson",
    mean_interarrival_s: float = 8.0,
    autoscale: "AutoscalerPolicy | None" = None,
    mtbf_hours: float | None = None,
    checkpoint_interval: int | None = None,
    max_retries: int = 3,
    straggler_rate: float = 0.0,
    cache: "runner.ResultCache | None" = None,
    trace_path: str | None = None,
    metrics_dir: str | None = None,
    profiler: "Profiler | None" = None,
) -> list[dict]:
    """One row (fleet-report summary dict) per scheduling policy.

    ``policies=None`` compares every policy in
    :data:`repro.serve.scheduler.POLICIES`.  Every policy replays the
    *same* trace; step latencies are memoized across policies (and
    persisted when a cache is given), so the sweep costs one set of
    closed-form simulations regardless of policy count.

    The trace replays through
    :func:`~repro.serve.simulate_fleet_streaming` (vectorized trace +
    admission, O(1) metric memory — million-job traces run in
    seconds).  Without faults one admission pass is shared across
    policies — admission happens at arrival and is therefore
    policy-invariant.

    ``trace_shape`` / ``mean_interarrival_s`` pick the arrival
    process (:data:`repro.serve.TRACE_SHAPES`); ``autoscale`` (an
    :class:`repro.serve.AutoscalerPolicy`) turns the static fleet
    into a reactive one; every policy starts from the same fleet, so
    the comparison stays policy-apples-to-apples.

    ``pp`` / ``tp`` / ``fabric`` shape each cluster's 3D parallel plan
    (see :class:`repro.serve.FleetConfig`): jobs data-parallelize
    across the remaining ``dp`` factor of every cluster.

    ``mtbf_hours`` turns on fault injection (see
    :mod:`repro.serve.faults` and ``docs/reliability.md``): each
    dispatched attempt draws a seeded time-to-failure, crashed jobs
    resume from their last checkpoint (``checkpoint_interval`` steps,
    or the Young/Daly optimum when ``None``) with up to
    ``max_retries`` backed-off retries, and ``straggler_rate`` slows
    a seeded fraction of attempts.  ``None`` (default) is the exact
    fault-free code path.

    Observability is opt-in and changes nothing when off:
    ``trace_path`` writes one Chrome-trace JSON file covering every
    policy (one trace process per policy, loadable in Perfetto and by
    ``python -m repro trace``); ``metrics_dir`` writes one
    ``metrics_<policy>.json`` registry dump per policy; ``profiler``
    (a :class:`repro.obs.Profiler`) times the harness's own
    trace-generation / admission / simulation stages.  See
    ``docs/observability.md``.
    """
    from repro.serve import (
        AdmissionController,
        FleetConfig,
        TenantBudget,
        TraceConfig,
        generate_trace_arrays,
        simulate_fleet_streaming,
    )
    from repro.serve.scheduler import POLICIES

    if policies is None:
        policies = POLICIES
    if not policies:
        raise ValueError("policies must name at least one policy")
    recorder = None
    if trace_path is not None:
        from repro.obs import TraceRecorder
        recorder = TraceRecorder()
    registries: dict[str, object] = {}

    def _observe(policy: str) -> "object | None":
        # One FleetObs per run; the recorder is shared across policies
        # (one trace process per policy), registries are per-policy.
        if recorder is None and metrics_dir is None:
            return None
        from repro.obs import FleetObs, MetricsRegistry
        metrics = None
        if metrics_dir is not None:
            metrics = registries[policy] = MetricsRegistry()
        return FleetObs(recorder=recorder, metrics=metrics)

    def _export(obs: "object | None") -> None:
        if obs is not None:
            with _stage(profiler, "serve/export"):
                obs.export()

    def _write_outputs() -> None:
        if recorder is not None:
            with _stage(profiler, "serve/export"):
                recorder.write(trace_path)
        if metrics_dir is not None:
            from pathlib import Path
            with _stage(profiler, "serve/export"):
                out = Path(metrics_dir)
                out.mkdir(parents=True, exist_ok=True)
                for policy, registry in registries.items():
                    registry.write(out / f"metrics_{policy}.json")

    config = TraceConfig(jobs=trace_jobs, seed=seed, shape=trace_shape,
                         mean_interarrival_s=mean_interarrival_s)
    fleet = FleetConfig(chips=chips, chips_per_cluster=chips_per_cluster,
                        topology=topology, chips_per_node=chips_per_node,
                        bucket_bytes=bucket_bytes, overlap=overlap,
                        pp=pp, tp=tp, fabric=fabric)
    faults = None
    if mtbf_hours is not None:
        from repro.serve import FaultConfig, FaultModel
        from repro.training import CheckpointConfig
        faults = FaultModel(FaultConfig(
            mtbf_hours=mtbf_hours, straggler_rate=straggler_rate,
            max_retries=max_retries,
            checkpoint=CheckpointConfig(interval_steps=checkpoint_interval),
            seed=seed))
    if profiler is not None:
        profiler.count("trace_jobs", trace_jobs)
        profiler.count("policies", len(policies))
    rows = []
    with _stage(profiler, "serve/trace"):
        trace = generate_trace_arrays(config)
    decisions = None
    for policy in policies:
        if decisions is None or faults is not None:
            # Admission happens at arrival, so one pass serves every
            # policy — unless retries re-price the ledger during the
            # run: then each policy replays against a fresh controller.
            admission = AdmissionController(
                TenantBudget(epsilon=epsilon_budget, delta=delta))
            with _stage(profiler, "serve/admission"):
                decisions = admission.admit_batch(trace)
        obs = _observe(policy)
        with _stage(profiler, "serve/simulate"):
            report = simulate_fleet_streaming(
                trace, fleet, policy=policy, admission=admission,
                decisions=decisions, autoscaler=autoscale,
                faults=faults, cache=cache, obs=obs)
        _export(obs)
        rows.append(report.to_dict())
    _write_outputs()
    return rows


def render(rows: list[dict] | None = None) -> str:
    """Policy-comparison table plus the per-tenant budget ledger."""
    from repro.serve.metrics import TenantUsage, render_tenant_table

    rows = rows if rows is not None else run()
    autoscaled = any(row.get("scale_events") for row in rows)
    faulty = any("faults" in row for row in rows)
    table = [
        [row["policy"], row["submitted"], row["completed"],
         row["truncated"], row["rejected"], row["wait_p50_s"],
         row["wait_p95_s"], row["wait_p99_s"],
         100.0 * row["utilization"], row["throughput_jobs_per_h"]]
        + ([row["peak_clusters"], len(row["scale_events"]),
            row["chip_hours"], row["cost"]] if autoscaled else [])
        + ([row["faults"]["failed"], row["faults"]["retries"],
            row["faults"]["degradations"],
            100.0 * row["faults"]["goodput"]]
           if faulty and "faults" in row else
           ([0, 0, 0, 100.0 * row["utilization"]] if faulty else []))
        for row in rows
    ]
    policy_table = format_table(
        ["Policy", "Jobs", "Done", "Trunc", "Rej", "p50 wait s",
         "p95 wait s", "p99 wait s", "Util %", "Jobs/h"]
        + (["Peak", "Scales", "Chip-h", "Cost"] if autoscaled else [])
        + (["Fail", "Retry", "Degr", "Goodput %"] if faulty else []),
        table,
        title=(f"Fleet serving: {rows[0]['chips']} chips, "
               f"{rows[0]['n_clusters']} clusters"
               if rows else "Fleet serving"),
    )
    if not rows:
        return policy_table
    # Admission happens at arrival, so the ledger is policy-invariant:
    # render it once from the first row.
    tenants = [TenantUsage(**usage) for usage in rows[0]["tenants"]]
    return policy_table + "\n\n" + render_tenant_table(tenants)


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

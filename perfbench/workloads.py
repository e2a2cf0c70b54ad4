"""The benchmark's workloads: inputs from the seed, the timed pipeline,
output checks and the digest of simulated statistics.

Every workload is an open loop over inputs generated up front from the
seed.  The serve workloads replay a pre-generated job trace through
admission, the streaming fleet simulator and (on the faulty one) trace
export; ``sweep`` evaluates a scaling grid and a design-space grid cold
through a fresh result cache, then again warm.

Host (simulator) seconds are measured with ``time.perf_counter``;
simulated quantities carry a ``sim_`` prefix.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager

from tracing import Tracer


@dataclass(frozen=True)
class ServeSpec:
    """One open-loop fleet-serving workload (fifo on :data:`CHIPS` chips,
    one job every :data:`MEAN_INTERARRIVAL_S` seconds on average)."""

    jobs: int
    #: Inject :data:`FAULTS` and record the fleet with ``FleetObs``,
    #: then export its trace.
    faulty_traced: bool = False


SERVE = {
    # Every job dispatches (~85 % utilization): the zero-fault event
    # loop's heaviest load.
    "serve-dispatch": ServeSpec(jobs=100_000),
    # The same fleet under faults (~350-390 retries): the fault-injecting
    # loop, ledger reprice/refund, and the export of ~48k trace events.
    "serve-faulty-traced": ServeSpec(jobs=20_000, faulty_traced=True),
}
WORKLOADS = (*SERVE, "sweep")
CHIPS = 16
MEAN_INTERARRIVAL_S = 10.0
#: Per-tenant budget; this large, admission takes its full-admit path
#: and every job dispatches.
EPSILON = 1e6
#: Fault model of ``serve-faulty-traced`` (fixed; the trace varies).
FAULTS = dict(mtbf_hours=2.0, repair_hours=0.05, degrade_fraction=0.5,
              seed=11)

#: Modules a workload imports before it is ready: the set-up cost.
#: The batched engine's lazy imports are included so the timed
#: pipeline measures computation, not first-use imports.
_COMMON = ("repro", "repro.core", "repro.workloads", "repro.training.batch",
           "repro.training.parallel", "repro.experiments.runner")
MODULES = {
    "serve-dispatch": _COMMON + ("repro.serve",),
    "serve-faulty-traced": _COMMON + ("repro.serve", "repro.obs"),
    "sweep": _COMMON + ("repro.experiments.scaling",
                        "repro.experiments.design_space",
                        "repro.obs.profile"),
}

SWEEP_MODELS = ("SqueezeNet", "MobileNet", "ResNet-50", "VGG-16",
                "BERT-base", "LSTM-small")
SWEEP_ALGORITHMS = ("DP-SGD", "DP-SGD(R)", "SGD")
SWEEP_CHIPS = (1, 16)
BUCKET_BYTES = 4 * 2**20
#: (pp, tp) factorizations of the 3D points (16 chips).
GRID_3D = ((2, 1), (1, 2), (2, 2))
CHIPS_3D = (16,)
DESIGN_MODELS = ("SqueezeNet", "MobileNet", "ResNet-50", "VGG-16",
                 "BERT-base")
DESIGN_SIDES = (32, 128, 256)
#: Grid points re-priced by the scalar oracles on every run.
ORACLE_SCALING_POINTS = 6
ORACLE_DESIGN_POINTS = 3


def import_modules(workload: str) -> None:
    for name in MODULES[workload]:
        importlib.import_module(name)


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _status_mb(field: str) -> float:
    """``VmRSS`` or ``VmHWM`` (peak RSS) of this process, from procfs."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/self/status has no {field}")


def _export_rss_delta_mb(obs: Any) -> float:
    """Export ``obs``; the peak RSS during export above the RSS before it.

    The kernel's peak mark is reset to the current RSS first, so the
    figure is export's own footprint even when the simulation peaked
    higher.  The reset also lowers ``ru_maxrss``: callers take the
    process peak before calling this.
    """
    before = _status_mb("VmRSS")
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    obs.export()
    return _status_mb("VmHWM") - before


def run(workload: str, seed: int, tracer: Tracer | None,
        scratch: str) -> dict[str, Any]:
    """Run ``workload`` once; returns its measurement record.

    The record holds ``wall_s`` (the timed pipeline), ``items`` (jobs
    or grid points), ``peak_rss_mb``, the ``digest`` of simulated
    statistics, ``errors`` from the output checks (run after timing),
    and, when traced, ``layers`` (per-layer metrics).
    """
    if workload in SERVE:
        return _run_serve(SERVE[workload], seed, tracer)
    return _run_sweep(seed, tracer, scratch)


# -- serve -----------------------------------------------------------------

def _run_serve(spec: ServeSpec, seed: int,
               tracer: Tracer | None) -> dict[str, Any]:
    from repro.obs import MetricsRegistry, TraceRecorder, fleet
    from repro.serve import budget, faults, job, scheduler

    rss_delta_mb = 0.0
    start = time.perf_counter()
    trace = job.generate_trace_arrays(job.TraceConfig(
        jobs=spec.jobs, seed=seed, mean_interarrival_s=MEAN_INTERARRIVAL_S))
    admission = budget.AdmissionController(
        budget.TenantBudget(epsilon=EPSILON))
    decisions = admission.admit_batch(trace)
    fault_model = obs = None
    if spec.faulty_traced:
        fault_model = faults.FaultModel(faults.FaultConfig(**FAULTS))
        obs = fleet.FleetObs(recorder=TraceRecorder(),
                             metrics=MetricsRegistry())
    report = scheduler.simulate_fleet_streaming(
        trace, scheduler.FleetConfig(chips=CHIPS), policy="fifo",
        admission=admission, decisions=decisions, faults=fault_model,
        obs=obs)
    rss = peak_rss_mb()
    if obs is not None and tracer is not None:
        rss_delta_mb = _export_rss_delta_mb(obs)
    elif obs is not None:
        obs.export()
    wall = time.perf_counter() - start
    # ``_export_rss_delta_mb`` may have lowered the peak mark.
    rss = max(rss, peak_rss_mb())

    errors = []
    if report.submitted != spec.jobs:
        errors.append(f"submitted {report.submitted} != {spec.jobs} jobs")
    if report.completed + report.failed + report.rejected \
            != report.submitted:
        errors.append("submitted != completed + failed + rejected")
    for usage in report.tenants:
        if usage.epsilon_spent > usage.budget_epsilon:
            errors.append(f"tenant {usage.tenant} overspent epsilon "
                          f"{usage.epsilon_spent} > {usage.budget_epsilon}")
    if report.records != ():
        errors.append("streaming report retained per-job records")
    events = len(obs.recorder.events) if obs is not None else 0
    if spec.faulty_traced and report.retries <= 0:
        errors.append("faulty workload produced no retries")
    if spec.faulty_traced and events <= 0:
        errors.append("trace export produced no events")

    digest = {
        "submitted": report.submitted,
        "completed": report.completed,
        "truncated": report.truncated,
        "rejected": report.rejected,
        "failed": report.failed,
        "retries": report.retries,
        "sim_wait_p50_s": report.wait_p50_s,
        "sim_wait_p99_s": report.wait_p99_s,
        "utilization": report.utilization,
        "sim_makespan_s": report.makespan_s,
    }
    record: dict[str, Any] = {
        "wall_s": wall, "items": spec.jobs, "peak_rss_mb": rss,
        "digest": digest, "errors": errors,
    }
    if tracer is not None:
        record["layers"] = {
            "serve.faults.failed": report.failed,
            "serve.faults.retries": report.retries,
            "serve.faults.degradations": report.degradations,
            "serve.faults.goodput": report.goodput,
            "obs.fleet.events": events,
            "obs.fleet.export.rss_delta_mb": rss_delta_mb,
        }
    return record


# -- sweep -----------------------------------------------------------------

def sweep_calls() -> list[tuple[str, dict[str, Any]]]:
    """The grid as ``(experiment, kwargs)`` calls, in canonical order."""
    calls: list[tuple[str, dict[str, Any]]] = []
    for topology, chips_per_node in (("ring", 1), ("hierarchical", 2)):
        for bucket in (None, BUCKET_BYTES):
            for overlap in (True, False):
                calls.append(("scaling", dict(
                    models=SWEEP_MODELS, chips=SWEEP_CHIPS,
                    algorithms=SWEEP_ALGORITHMS, topology=topology,
                    chips_per_node=chips_per_node, bucket_bytes=bucket,
                    overlap=overlap)))
    for pp, tp in GRID_3D:
        for fabric in (None, "two-tier"):
            calls.append(("scaling", dict(
                models=SWEEP_MODELS, chips=CHIPS_3D,
                algorithms=SWEEP_ALGORITHMS, bucket_bytes=BUCKET_BYTES,
                pp=pp, tp=tp, fabric=fabric)))
    calls.append(("design_space", dict(
        models=DESIGN_MODELS, heights=DESIGN_SIDES, widths=DESIGN_SIDES)))
    return calls


def _sweep_pass(calls: list, order: list[int], cache: Any,
                profiler: Any) -> list[list[dict]]:
    from repro.experiments import design_space, scaling

    modules = {"scaling": scaling, "design_space": design_space}
    rows: list[list[dict]] = [[] for _ in calls]
    for index in order:
        experiment, kwargs = calls[index]
        rows[index] = modules[experiment].run(
            **kwargs, cache=cache, profiler=profiler)
    return rows


def _run_sweep(seed: int, tracer: Tracer | None,
               scratch: str) -> dict[str, Any]:
    import shutil
    import tempfile

    from repro.experiments import design_space, runner, scaling
    from repro.obs.profile import Profiler

    rng = random.Random(seed)
    calls = sweep_calls()
    # The seed picks the evaluation order and the oracle sample; the
    # rows (and so the digest) must not depend on either.
    order = list(range(len(calls)))
    rng.shuffle(order)
    def phase(name: str) -> ContextManager[int]:
        return tracer.span(name) if tracer is not None else nullcontext(-1)

    cold_profiler = Profiler("cold") if tracer is not None else None
    warm_profiler = Profiler("warm") if tracer is not None else None
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=scratch)
    try:
        cache = runner.ResultCache(cache_dir)
        with phase("sweep.cold") as cold_span:
            start = time.perf_counter()
            cold = _sweep_pass(calls, order, cache, cold_profiler)
            wall = time.perf_counter() - start
        rss = peak_rss_mb()
        with phase("sweep.warm") as warm_span:
            warm_start = time.perf_counter()
            warm = _sweep_pass(calls, order, cache, warm_profiler)
            warm_s = time.perf_counter() - warm_start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if tracer is not None:
        # The scalar oracles below reach wrapped functions too; keep
        # them out of the layer figures.
        tracer.active = False
    points = sum(len(rows) for rows in cold)

    errors = []
    if warm != cold:
        errors.append("warm rows differ from cold rows")
    scaling_points = [(call, row) for (experiment, call), rows
                      in zip(calls, cold) if experiment == "scaling"
                      for row in rows]
    for call, row in rng.sample(scaling_points, ORACLE_SCALING_POINTS):
        base, clamped = scaling.default_global_batch_info(
            row["model"], tuple(sorted(set(call["chips"]))))
        oracle = scaling.evaluate_point(
            row["model"], row["chips"], row["algorithm"], "strong",
            row["topology"], base, row["overlap"], call["bucket_bytes"],
            row["chips_per_node"], clamped, row["pp"], row["tp"],
            row["fabric"])
        if oracle != row:
            errors.append(f"scaling point {oracle['model']} "
                          f"x{oracle['chips']} differs from the oracle")
    for row in rng.sample(cold[-1], ORACLE_DESIGN_POINTS):
        oracle = design_space.evaluate_point(row["model"], row["height"],
                                             row["width"])
        if oracle != row:
            errors.append(f"design point {row['model']} {row['height']}x"
                          f"{row['width']} differs from the oracle")

    payload = json.dumps(cold, sort_keys=True).encode()
    record: dict[str, Any] = {
        "wall_s": wall, "items": points, "peak_rss_mb": rss,
        "warm_s": warm_s,
        "digest": {"points": points,
                   "rows_sha256": hashlib.sha256(payload).hexdigest()},
        "errors": errors,
    }
    if tracer is not None:
        assert cold_profiler is not None and warm_profiler is not None
        if cold_profiler.counters.get("cache_hits", 0) != 0:
            errors.append("cold pass hit a fresh cache")
        if warm_profiler.counters.get("cache_misses", 0) != 0:
            errors.append("warm pass missed the cache")
        record["layers"] = {
            "experiments.runner.cached_batch.cold_s": tracer.seconds(
                "experiments.runner.cached_batch", under=cold_span),
            "experiments.runner.cached_batch.warm_s": tracer.seconds(
                "experiments.runner.cached_batch", under=warm_span),
            "experiments.runner.cold.lookup_s":
                cold_profiler.stage_seconds("cache/lookup"),
            "experiments.runner.cold.compute_s":
                cold_profiler.stage_seconds("cache/compute"),
            "experiments.runner.cold.write_s":
                cold_profiler.stage_seconds("cache/write"),
            "experiments.runner.warm.lookup_s":
                warm_profiler.stage_seconds("cache/lookup"),
            "experiments.runner.cache_hits":
                warm_profiler.counters.get("cache_hits", 0),
            "experiments.runner.cache_misses":
                cold_profiler.counters.get("cache_misses", 0),
        }
    return record

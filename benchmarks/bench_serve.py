"""Benchmark: streaming fleet-simulator throughput + memory record.

Replays a 10k-job and a 1M-job synthetic trace through the array-backed
streaming scheduler (vectorized trace generation, batched admission,
an 8-byte-per-dispatch wait column with exact percentiles) and
persists jobs/sec and peak RSS to
``BENCH_serve.json`` at the repo root — gitignored locally, uploaded as
a CI artifact like the other perf records, and floor-checked by
``tools/check_bench.py`` so a throughput regression fails the build.

A final instrumented point replays the 1M-job trace with full
observability (``repro.obs.FleetObs`` tracing + metrics) attached and
records the in-loop overhead ratio against the uninstrumented run, and
the export's cost as a ratio of that loop (``export_ratio``);
``tools/check_bench.py`` caps them at ``OVERHEAD_CEILING`` and
``EXPORT_RATIO_CEILING`` so neither the zero-overhead-when-disabled
contract nor the bulk export can silently erode.
"""

import json
import resource
import sys
import time
from pathlib import Path

from repro.obs import FleetObs, MetricsRegistry, TraceRecorder
from repro.serve import (
    AdmissionController,
    AutoscalerPolicy,
    FaultConfig,
    FaultModel,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    simulate_fleet_streaming,
)

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: Trace lengths recorded: a quick smoke point and the million-job
#: tentpole the streaming path exists for.
TRACE_SIZES = (10_000, 1_000_000)
#: Mean inter-arrival keeping a 16-chip fleet contended even at 1M jobs.
MEAN_INTERARRIVAL_S = 0.5


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def test_streaming_serve_throughput(capsys):
    """Time the 10k and 1M traces end to end; persist the record.

    The 1M trace runs twice: on the static 16-chip fleet, and
    autoscaled from 4 clusters (the reactive controller makes a scale
    decision after every event, so its overhead is exactly what the
    autoscale floor in ``tools/check_bench.py`` guards).
    """
    points = []
    runs = [(jobs, None) for jobs in TRACE_SIZES]
    runs.append((TRACE_SIZES[-1],
                 AutoscalerPolicy(max_clusters=64,
                                  provision_delay_s=30.0,
                                  cooldown_s=30.0)))
    for jobs, autoscaler in runs:
        start = time.perf_counter()
        trace = generate_trace_arrays(TraceConfig(
            jobs=jobs, seed=7, mean_interarrival_s=MEAN_INTERARRIVAL_S))
        admission = AdmissionController(TenantBudget(epsilon=3.0))
        decisions = admission.admit_batch(trace)
        fleet = FleetConfig(chips=16) if autoscaler is None \
            else FleetConfig(chips=4)
        report = simulate_fleet_streaming(
            trace, fleet, policy="fifo",
            admission=admission, decisions=decisions,
            autoscaler=autoscaler)
        wall = time.perf_counter() - start

        # Streaming contract: every job accounted for, no per-job
        # records retained.
        assert report.submitted == jobs
        assert report.completed + report.rejected == jobs
        assert report.records == ()
        for usage in report.tenants:
            assert usage.epsilon_spent <= usage.budget_epsilon + 1e-9
        if autoscaler is not None:
            assert report.scale_events
            assert report.chip_hours > 0.0

        points.append({
            "jobs": jobs,
            "autoscale": autoscaler is not None,
            "wall_seconds": wall,
            "jobs_per_sec": jobs / wall,
            "peak_rss_mb": _peak_rss_mb(),
            "completed": report.completed,
            "rejected": report.rejected,
            "wait_p99_s": report.wait_p99_s,
            "peak_clusters": report.peak_clusters,
            "chip_hours": report.chip_hours,
        })

    # Instrumentation overhead: replay the 1M static trace back to
    # back with observability off and on (twice each, keeping the
    # best wall time) and record the in-loop overhead ratio.  Span
    # building and metric folding are deferred to ``FleetObs.export``
    # outside the event loop, so the loop only pays O(1) dispatch
    # bookkeeping — ``tools/check_bench.py`` holds the ratio under
    # ``OVERHEAD_CEILING``; the export cost is recorded alongside.
    jobs = TRACE_SIZES[-1]
    trace = generate_trace_arrays(TraceConfig(
        jobs=jobs, seed=7, mean_interarrival_s=MEAN_INTERARRIVAL_S))
    admission_budget = TenantBudget(epsilon=3.0)
    fleet = FleetConfig(chips=16)
    plain_wall = instrumented_wall = float("inf")
    obs = None
    for _ in range(3):
        for instrumented in (False, True):
            admission = AdmissionController(admission_budget)
            decisions = admission.admit_batch(trace)
            run_obs = FleetObs(recorder=TraceRecorder(),
                               metrics=MetricsRegistry()) \
                if instrumented else None
            start = time.perf_counter()
            report = simulate_fleet_streaming(
                trace, fleet, policy="fifo",
                admission=admission, decisions=decisions, obs=run_obs)
            wall = time.perf_counter() - start
            assert report.completed + report.rejected == jobs
            if instrumented:
                if wall < instrumented_wall:
                    instrumented_wall, obs = wall, run_obs
            else:
                plain_wall = min(plain_wall, wall)
    start = time.perf_counter()
    obs.export()
    export_wall = time.perf_counter() - start
    overhead = instrumented_wall / plain_wall
    # Export against the loop it describes: tools/check_bench.py caps
    # it at EXPORT_RATIO_CEILING so export cannot regrow per-row work.
    export_ratio = export_wall / instrumented_wall
    points.append({
        "jobs": jobs,
        "autoscale": False,
        "instrumented": True,
        "wall_seconds": instrumented_wall,
        "plain_wall_seconds": plain_wall,
        "overhead_ratio": overhead,
        "export_seconds": export_wall,
        "export_ratio": export_ratio,
        "trace_events": len(obs.recorder),
        "jobs_per_sec": jobs / instrumented_wall,
        "peak_rss_mb": _peak_rss_mb(),
    })

    # Fault injection: replay the 1M static trace with the failure
    # machinery attached — once with an MTBF no trace can reach (every
    # attempt stays clean, pricing the pure fault-bookkeeping overhead
    # against ``plain_wall``) and once under real fire (crashes,
    # checkpoint restarts, backed-off retries).  ``tools/check_bench.py``
    # floors the faulty jobs/s and caps the zero-failure overhead
    # ratio, so neither the fault path nor the clean-run tax
    # can silently regress.
    # The zero-failure run is timed twice (best kept), like plain_wall,
    # so the ratio compares best against best.
    fault_walls = {}
    fault_report = None
    for tag, mtbf_hours in (("zero_failure", 1e9), ("zero_failure", 1e9),
                            ("faulty", 2.0)):
        faults = FaultModel(FaultConfig(
            mtbf_hours=mtbf_hours, repair_hours=0.05,
            degrade_fraction=0.5, seed=11))
        admission = AdmissionController(admission_budget)
        decisions = admission.admit_batch(trace)
        start = time.perf_counter()
        report = simulate_fleet_streaming(
            trace, fleet, policy="fifo",
            admission=admission, decisions=decisions, faults=faults)
        fault_walls[tag] = min(fault_walls.get(tag, float("inf")),
                               time.perf_counter() - start)
        assert report.completed + report.failed + report.rejected == jobs
        if tag == "faulty":
            fault_report = report
            assert report.retries > 0
        else:
            assert report.failed == 0 and report.retries == 0
    fault_overhead = fault_walls["zero_failure"] / plain_wall
    points.append({
        "jobs": jobs,
        "autoscale": False,
        "faults": True,
        "wall_seconds": fault_walls["faulty"],
        "jobs_per_sec": jobs / fault_walls["faulty"],
        "zero_failure_wall_seconds": fault_walls["zero_failure"],
        "fault_overhead_ratio": fault_overhead,
        "failed": fault_report.failed,
        "retries": fault_report.retries,
        "goodput": fault_report.goodput,
        "peak_rss_mb": _peak_rss_mb(),
    })

    payload = {
        "benchmark": "serve_streaming",
        "chips": 16,
        "policy": "fifo",
        "mean_interarrival_s": MEAN_INTERARRIVAL_S,
        "points": points,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        for point in points:
            tag = " autoscaled" if point["autoscale"] else ""
            if point.get("instrumented"):
                tag += " instrumented"
            if point.get("faults"):
                tag += " faulty"
            print(f"\nserve streaming — {point['jobs']:,}{tag} jobs in "
                  f"{point['wall_seconds']:.2f}s "
                  f"({point['jobs_per_sec']:,.0f} jobs/s, peak RSS "
                  f"{point['peak_rss_mb']:.0f} MB) -> {BENCH_JSON.name}")
        print(f"serve streaming — observability in-loop overhead "
              f"{overhead:.3f}x, export {export_wall:.1f}s for "
              f"{len(obs.recorder):,} events "
              f"({export_ratio:.2f}x the loop)")
        print(f"serve streaming — fault machinery zero-failure "
              f"overhead {fault_overhead:.3f}x, "
              f"{fault_report.retries:,} retries under fire")
    # Loose in-test floors; the CI guard applies the real thresholds.
    assert points[-1]["jobs_per_sec"] > 1_000
    assert overhead < 2.0
    assert fault_overhead < 5.0

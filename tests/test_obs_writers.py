"""Streamed trace and metrics writers against ``json.dumps``.

``TraceRecorder.write`` and ``MetricsRegistry.write`` stream their
documents in fixed-size chunks, rendering column blocks through
templates.  Each must write exactly ``json.dumps(to_dict(), indent=1)
+ "\\n"`` (``to_dict`` builds every event and point as a dict).  Pinned
here on an empty document, training-step spans, a recorder shared by
three autoscaled policies, names that need escaping, non-finite floats
and documents larger than one chunk.  A ``tracemalloc`` guard holds
the export of a 20k-job faulty run to its per-event footprint, and the
writes to a fraction of the file they write.
"""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from repro.obs import FleetObs, MetricsRegistry, TraceRecorder
from repro.obs.jsonstream import CHUNK_CHARS
from repro.serve import (
    AdmissionController,
    FaultConfig,
    FaultModel,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    simulate_fleet_streaming,
)
from repro.serve.autoscale import AutoscalerPolicy

AUTOSCALE = AutoscalerPolicy(max_clusters=32, provision_delay_s=30.0,
                             cooldown_s=20.0, target_p99_wait_s=60.0)


def _assert_streams_dumps(writable, path):
    """``writable.write(path)`` equals ``json.dumps`` of its document."""
    writable.write(path)
    got = path.read_text()
    want = json.dumps(writable.to_dict(), indent=1) + "\n"
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"{path.name} differs at offset {at}: "
                    f"{got[at - 80:at + 80]!r} != {want[at - 80:at + 80]!r}")
    return got


def _run(trace, obs, policy="fifo", epsilon=3.0, **kwargs):
    return simulate_fleet_streaming(
        trace, FleetConfig(chips=8), policy=policy,
        admission=AdmissionController(TenantBudget(epsilon=epsilon)),
        obs=obs, **kwargs)


def test_empty_documents(tmp_path):
    assert _assert_streams_dumps(TraceRecorder(), tmp_path / "t.json") \
        == '{\n "traceEvents": [],\n "displayTimeUnit": "ms"\n}\n'
    assert _assert_streams_dumps(MetricsRegistry(), tmp_path / "m.json") \
        == '{\n "window_s": 60.0,\n "metrics": []\n}\n'


def test_training_step_spans_with_async_slices(tmp_path):
    from repro.arch.interconnect import InterconnectConfig
    from repro.core import build_cluster
    from repro.training import Algorithm, simulate_sharded_training_step
    from repro.workloads import build_model

    cluster = build_cluster(
        "diva", n_chips=4,
        interconnect=InterconnectConfig(bucket_bytes=25 * 2**20))
    recorder = TraceRecorder()
    simulate_sharded_training_step(
        build_model("ResNet-50"), Algorithm.DP_SGD, cluster, 256,
        recorder=recorder)
    assert {"b", "e", "X", "M"} <= {e["ph"] for e in recorder.events}
    _assert_streams_dumps(recorder, tmp_path / "step.json")


def test_shared_recorder_three_autoscaled_policies(tmp_path):
    """Blocks and plain dict events interleave across three runs."""
    trace = generate_trace_arrays(TraceConfig(
        jobs=3_000, seed=13, mean_interarrival_s=1.0))
    recorder = TraceRecorder()
    for policy in ("fifo", "sjf", "budget"):
        metrics = MetricsRegistry()
        obs = FleetObs(recorder=recorder, metrics=metrics)
        report = _run(trace, obs, policy=policy, autoscaler=AUTOSCALE)
        obs.export()
        assert report.scale_events and report.rejected > 0
        text = _assert_streams_dumps(metrics,
                                     tmp_path / f"metrics_{policy}.json")
        assert len(text) > CHUNK_CHARS
    # A dict event after the blocks, on another process.
    recorder.span("tail", 1.0, 2.0, pid=recorder.pid("other"))
    text = _assert_streams_dumps(recorder, tmp_path / "fleet.json")
    assert len(text) > 4 * CHUNK_CHARS
    assert len(recorder) == len(recorder.events)


def test_names_needing_escapes_and_non_finite_floats(tmp_path):
    """Tenant, model and policy names with quotes, backslashes and
    non-ASCII characters; NaN and infinite epsilons, spans, counter
    values and metric samples."""
    trace = generate_trace_arrays(TraceConfig(jobs=400, seed=5))
    run = FleetObs(metrics=MetricsRegistry())
    _run(trace, run, epsilon=1.0)
    attached = run._run
    renamed = dataclasses.replace(
        trace,
        tenants=tuple(f'tenant "{i}" \\ é→{i}' for i in
                      range(len(trace.tenants))),
        models=tuple(f"{name} «ü»" for name in trace.models))
    decisions = attached["decisions"]
    epsilon = decisions.epsilon_after.copy()
    epsilon[:3] = (math.nan, math.inf, -math.inf)
    decisions = dataclasses.replace(decisions, epsilon_after=epsilon)
    obs = FleetObs(recorder=TraceRecorder(), metrics=MetricsRegistry())
    obs.starts = run.starts
    obs.samples = run.samples
    obs.attach(policy='fifo "quoted" ∞', trace=renamed,
               decisions=decisions, service=attached["service"],
               state=None)
    obs.export()
    recorder = obs.recorder
    recorder.span("nan span", math.nan, math.inf, args={"x": -math.inf})
    recorder.counter("inf counter", 1.0, {"v": math.inf})
    metrics = obs.metrics
    metrics.series("odd").add_many(
        [1.0, 2.0, 61.0, 62.0, 200.0],
        [math.nan, 1.0, -0.0, 0.0, math.inf])
    metrics.gauge("nan gauge").set(math.nan)
    metrics.histogram("inf histogram").observe(math.inf)
    trace_text = _assert_streams_dumps(recorder, tmp_path / "t.json")
    metrics_text = _assert_streams_dumps(metrics, tmp_path / "m.json")
    assert '\\u00e9' in trace_text and "NaN" in trace_text \
        and "-Infinity" in trace_text
    assert '\\"' in metrics_text and "NaN" in metrics_text


def test_series_blocks_from_add_and_add_many(tmp_path):
    """One series whose closed windows come from both ``add`` (one-row
    blocks) and ``add_many`` (column blocks), ints and floats."""
    registry = MetricsRegistry(window_s=10.0)
    series = registry.series("mixed")
    series.add(1.0, 3)
    series.add(12.0, 2.5)
    series.add_many(np.arange(15.0, 3_000.0, 3.0),
                    np.arange(995, dtype=np.int64))
    series.add(3_000.0, True)
    registry.series("empty")
    _assert_streams_dumps(registry, tmp_path / "m.json")


def test_export_and_write_memory(tmp_path):
    """Export keeps columns, not one dict per event; the writes stream.

    On the 20k-job faulty run (~48k events), export's traced peak read
    98.5 bytes per event (763 when it built an event dict list); the
    bound leaves 50 % margin.  Each write peaks at about 12-18 % of
    the file it writes (a few batches of rows and one chunk); the
    bound is a quarter.
    """
    trace = generate_trace_arrays(TraceConfig(
        jobs=20_000, seed=1, mean_interarrival_s=10.0))
    obs = FleetObs(recorder=TraceRecorder(), metrics=MetricsRegistry())
    simulate_fleet_streaming(
        trace, FleetConfig(chips=16), policy="fifo",
        admission=AdmissionController(TenantBudget(epsilon=1e6)),
        faults=FaultModel(FaultConfig(mtbf_hours=2.0, repair_hours=0.05,
                                      degrade_fraction=0.5, seed=11)),
        obs=obs)
    tracemalloc.start()
    try:
        obs.export()
        export_peak = tracemalloc.get_traced_memory()[1]
        peaks = {}
        for name, writable in (("trace", obs.recorder),
                               ("metrics", obs.metrics)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            writable.write(tmp_path / f"{name}.json")
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    events = len(obs.recorder)
    assert events > 45_000
    assert export_peak / events <= 150
    for name, peak in peaks.items():
        size = (tmp_path / f"{name}.json").stat().st_size
        assert peak <= size / 4, (name, peak, size)

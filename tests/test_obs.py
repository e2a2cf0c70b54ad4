"""Tests for ``repro.obs``: tracing, metrics, profiling, cache stats.

The load-bearing contracts:

* every emitted event satisfies the Chrome-trace schema
  (:func:`repro.obs.validate_events` — the same check Perfetto's
  loader effectively applies);
* identical simulation inputs produce byte-identical trace files
  (the recorder never reads a host clock);
* an exported fleet run's spans and metrics account for every job
  (the per-row export reference is ``test_fleet_export.py``);
* observability off (the default) changes nothing — reports and
  dispatch logs are equal with and without an observer attached.
"""

import json

import pytest

from repro.obs import (
    Counter,
    FleetObs,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
    TimeSeries,
    TraceRecorder,
    load_trace,
    render_summary,
    summarize,
    validate_events,
)
from repro.serve import (
    AdmissionController,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    simulate_fleet_streaming,
)
from repro.serve.autoscale import AutoscalerPolicy


# ---------------------------------------------------------------------------
# TraceRecorder: schema, ids, round trip
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_all_event_kinds_schema_valid(self):
        rec = TraceRecorder()
        pid = rec.pid("proc")
        tid = rec.tid(pid, "thread")
        rec.span("work", 1.0, 2.0, pid=pid, tid=tid, args={"n": 3})
        rec.instant("mark", 1.5, pid=pid, tid=tid)
        rec.counter("load", 2.0, {"queued": 4}, pid=pid)
        rec.async_span("overlap", 0.5, 1.0, span_id=1, pid=pid, tid=tid)
        assert validate_events(rec.events) == []
        # Required keys per the Chrome trace event format.
        span = next(e for e in rec.events if e["ph"] == "X")
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            assert key in span
        assert span["ts"] == 1.0e6 and span["dur"] == 2.0e6
        instant = next(e for e in rec.events if e["ph"] == "i")
        assert instant["s"] == "t"
        begin = next(e for e in rec.events if e["ph"] == "b")
        end = next(e for e in rec.events if e["ph"] == "e")
        assert begin["id"] == end["id"] == 1
        assert end["ts"] == pytest.approx(1.5e6)

    def test_pid_tid_allocation_deterministic(self):
        rec = TraceRecorder()
        assert rec.pid("a") == 0
        assert rec.pid("b") == 1
        assert rec.pid("a") == 0  # idempotent, no second metadata event
        assert rec.tid(0, "x") == 0
        assert rec.tid(1, "y") == 0  # tids are per-process
        assert rec.tid(0, "z") == 1
        metas = [e for e in rec.events if e["ph"] == "M"]
        assert len(metas) == 5  # 2 process_name + 3 thread_name
        assert validate_events(rec.events) == []

    def test_write_load_round_trip(self, tmp_path):
        rec = TraceRecorder()
        rec.span("s", 0.0, 1.0, pid=rec.pid("p"))
        path = rec.write(tmp_path / "t.json")
        events = load_trace(path)
        assert events == rec.events
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_load_trace_accepts_bare_list(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([
            {"name": "s", "ph": "X", "ts": 0, "dur": 1,
             "pid": 0, "tid": 0}]))
        assert len(load_trace(path)) == 1

    def test_load_trace_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "s", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]}))
        with pytest.raises(ValueError, match="missing dur"):
            load_trace(path)
        path.write_text(json.dumps({"traceEvents": [{"ph": "?"}]}))
        with pytest.raises(ValueError, match="unknown ph"):
            load_trace(path)

    def test_summarize_and_render(self):
        rec = TraceRecorder()
        pid = rec.pid("proc")
        rec.span("short", 0.0, 1.0, pid=pid)
        rec.span("long", 1.0, 5.0, pid=pid)
        rec.instant("mark", 2.0, pid=pid)
        summary = summarize(rec.events)
        assert summary["events"] == len(rec.events)
        (proc,) = summary["processes"]
        assert proc["name"] == "proc"
        assert proc["spans"] == 2 and proc["instants"] == 1
        assert proc["longest_span"]["name"] == "long"
        assert proc["end_ts"] == pytest.approx(6.0e6)
        text = render_summary(summary)
        assert "proc: 2 spans" in text
        assert "'long'" in text


# ---------------------------------------------------------------------------
# Training-step tracing
# ---------------------------------------------------------------------------
class TestTrainingTrace:
    @staticmethod
    def _sim(recorder=None):
        from repro.core import build_accelerator
        from repro.training import (
            Algorithm, max_batch_size, simulate_training_step,
        )
        from repro.workloads import build_model

        network = build_model("SqueezeNet")
        accel = build_accelerator("diva", with_ppu=True)
        batch = max_batch_size(network, Algorithm.DP_SGD)
        return simulate_training_step(
            network, Algorithm.DP_SGD_R, accel, batch, recorder=recorder)

    def test_recorder_does_not_change_report(self):
        rec = TraceRecorder()
        traced = self._sim(recorder=rec)
        plain = self._sim()
        assert traced.phases == plain.phases
        assert traced.total_seconds == plain.total_seconds
        assert rec.events and validate_events(rec.events) == []

    def test_phase_spans_cover_the_step(self):
        rec = TraceRecorder()
        report = self._sim(recorder=rec)
        phase_spans = [e for e in rec.events
                       if e["ph"] == "X" and e.get("cat") == "phase"]
        total_us = sum(e["dur"] for e in phase_spans)
        assert total_us == pytest.approx(report.total_seconds * 1e6)
        # Phases are laid back to back: each starts where the previous
        # ended.
        cursor = 0.0
        for span in phase_spans:
            assert span["ts"] == pytest.approx(cursor)
            cursor += span["dur"]
        # Per-op spans (gemm + vector) partition each phase.
        op_us = sum(e["dur"] for e in rec.events
                    if e["ph"] == "X" and e.get("cat") in ("gemm",
                                                           "vector"))
        assert op_us == pytest.approx(total_us)

    def test_sharded_step_emits_hidden_overlap_slice(self):
        from repro.arch.interconnect import InterconnectConfig
        from repro.core import build_cluster
        from repro.training import (
            Algorithm, simulate_sharded_training_step,
        )
        from repro.workloads import build_model

        cluster = build_cluster(
            "diva", n_chips=4,
            interconnect=InterconnectConfig(bucket_bytes=25 * 2**20))
        rec = TraceRecorder()
        report = simulate_sharded_training_step(
            build_model("ResNet-50"), Algorithm.DP_SGD, cluster, 256,
            recorder=rec)
        assert validate_events(rec.events) == []
        assert report.comm.hidden_cycles > 0
        begin = next(e for e in rec.events if e["ph"] == "b")
        end = next(e for e in rec.events if e["ph"] == "e")
        comm = next(e for e in rec.events
                    if e["ph"] == "X" and e.get("cat") == "comm")
        # The hidden slice ends exactly where the exposed span begins.
        assert end["ts"] == pytest.approx(comm["ts"])
        hidden_s = report.comm.hidden_cycles / report.frequency_hz
        assert end["ts"] - begin["ts"] == pytest.approx(hidden_s * 1e6)

    @pytest.mark.parametrize("model", ("ResNet-50", "BERT-base"))
    def test_spans_equal_the_per_op_oracle(self, model):
        """The single-chip and 3D sharded steps lay exactly the spans
        (names such as ``gemm MxKxN xC [layer]``, timestamps, ``args``)
        that the oracles' reports and op logs lay."""
        import step_oracle
        from repro.arch.cluster import ParallelPlan
        from repro.core import build_accelerator, build_cluster
        from repro.obs.trace import (
            add_cluster_step_spans, add_training_step_spans,
        )
        from repro.training import (
            Algorithm, simulate_sharded_training_step,
            simulate_training_step,
        )
        from repro.workloads import build_model

        network = build_model(model)
        accel = build_accelerator("diva")
        cluster = build_cluster("diva", n_chips=8)
        for algorithm in Algorithm:
            got = TraceRecorder()
            simulate_training_step(network, algorithm, accel, 16,
                                   recorder=got)
            want = TraceRecorder()
            add_training_step_spans(
                want, *step_oracle.chip_step(network, algorithm, accel, 16))
            assert got.events == want.events, algorithm
            assert any(e.get("cat") == "gemm" and " x16 [" in e["name"]
                       for e in got.events) == algorithm.is_private

            plan = ParallelPlan(dp=2, pp=2, tp=2)
            got = TraceRecorder()
            simulate_sharded_training_step(network, algorithm, cluster, 32,
                                           plan=plan, recorder=got)
            want = TraceRecorder()
            add_cluster_step_spans(want, *step_oracle.sharded_step(
                network, algorithm, cluster, 32, plan=plan))
            assert got.events == want.events, algorithm
            assert any(e.get("cat") == "pipeline" for e in got.events)

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for i in range(2):
            rec = TraceRecorder()
            self._sim(recorder=rec)
            paths.append(rec.write(tmp_path / f"t{i}.json"))
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# Fleet observability
# ---------------------------------------------------------------------------
AUTOSCALE = AutoscalerPolicy(max_clusters=32, provision_delay_s=30.0,
                             cooldown_s=20.0, target_p99_wait_s=60.0)


def _fleet_inputs(jobs=2_000, seed=13):
    config = TraceConfig(jobs=jobs, seed=seed, mean_interarrival_s=0.5)
    return generate_trace_arrays(config), FleetConfig(chips=4)


class TestFleetObs:
    def test_constructor_requires_a_sink(self):
        with pytest.raises(ValueError, match="recorder"):
            FleetObs()

    def test_export_requires_a_run(self):
        obs = FleetObs(metrics=MetricsRegistry())
        with pytest.raises(RuntimeError, match="no run attached"):
            obs.export()

    def test_one_obs_per_run(self):
        trace, fleet = _fleet_inputs(jobs=50)
        obs = FleetObs(metrics=MetricsRegistry())
        simulate_fleet_streaming(
            trace, fleet, policy="fifo", obs=obs,
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        with pytest.raises(RuntimeError, match="already observed"):
            simulate_fleet_streaming(
                trace, fleet, policy="fifo", obs=obs,
                admission=AdmissionController(TenantBudget(epsilon=3.0)))

    def test_disabled_path_is_byte_identical(self):
        """obs=None (the default) changes no decision and no output."""
        trace, fleet = _fleet_inputs()
        log_plain: list = []
        log_obs: list = []
        plain = simulate_fleet_streaming(
            trace, fleet, policy="sjf", autoscaler=AUTOSCALE,
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            dispatch_log=log_plain)
        observed = simulate_fleet_streaming(
            trace, fleet, policy="sjf", autoscaler=AUTOSCALE,
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            dispatch_log=log_obs,
            obs=FleetObs(recorder=TraceRecorder(),
                         metrics=MetricsRegistry()))
        assert log_plain == log_obs
        assert plain.to_dict() == observed.to_dict()
        assert plain.render() == observed.render()

    def test_exported_content_reflects_the_run(self):
        trace, fleet = _fleet_inputs()
        recorder = TraceRecorder()
        metrics = MetricsRegistry()
        obs = FleetObs(recorder=recorder, metrics=metrics)
        report = simulate_fleet_streaming(
            trace, fleet, policy="fifo", autoscaler=AUTOSCALE,
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            obs=obs)
        obs.export()
        obs.export()  # idempotent
        runs = [e for e in recorder.events
                if e["ph"] == "X" and e.get("cat") == "run"]
        rejects = [e for e in recorder.events
                   if e["ph"] == "i" and e.get("cat") == "admission"]
        scales = [e for e in recorder.events
                  if e["ph"] == "i" and e.get("cat") == "autoscale"]
        assert len(runs) == report.completed
        assert len(rejects) == report.rejected
        assert len(scales) == len(report.scale_events)
        assert any(e["ph"] == "C" for e in recorder.events)
        # Metrics fold the same totals.
        doc = metrics.to_dict()
        jobs_total = sum(m["value"] for m in doc["metrics"]
                         if m["name"] == "jobs")
        assert jobs_total == report.submitted
        truncated = sum(m["value"] for m in doc["metrics"]
                        if m["name"] == "jobs"
                        and m["labels"]["outcome"] == "truncated")
        assert truncated == report.truncated
        waits = next(m for m in doc["metrics"] if m["name"] == "wait_s")
        assert waits["count"] == report.completed


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.set(2)
        assert gauge.to_dict() == {"value": 2.0}

    def test_histogram_quantiles_exact_below_warmup(self):
        histogram = Histogram()
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(49.5)
        assert histogram.maximum == 99.0
        assert histogram.quantile(0.5) == 49.0
        assert histogram.to_dict() == {
            "count": 100.0, "mean": 49.5, "max": 99.0,
            "p50": 49.0, "p95": 94.0, "p99": 98.0}

    def test_timeseries_windows(self):
        series = TimeSeries(window_s=10.0)
        series.add(1.0, 5.0)
        series.add(9.0, 3.0)
        series.add(25.0, 7.0)  # skips window 1 entirely
        doc = series.to_dict()
        assert doc["window_s"] == 10.0
        assert doc["points"] == [
            {"t": 0.0, "count": 2, "sum": 8.0, "min": 3.0, "max": 5.0,
             "last": 3.0},
            {"t": 20.0, "count": 1, "sum": 7.0, "min": 7.0, "max": 7.0,
             "last": 7.0},
        ]

    def test_timeseries_rejects_time_travel(self):
        series = TimeSeries(window_s=10.0)
        series.add(25.0, 1.0)
        with pytest.raises(ValueError, match="precedes"):
            series.add(5.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            TimeSeries(window_s=0.0)

    def test_registry_labels_and_kind_conflicts(self):
        registry = MetricsRegistry()
        a = registry.counter("jobs", policy="fifo", tenant="t0")
        b = registry.counter("jobs", tenant="t0", policy="fifo")
        assert a is b  # label order does not matter
        assert registry.counter("jobs", policy="sjf", tenant="t0") is not a
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("jobs", policy="fifo", tenant="t0")

    def test_registry_document_deterministic(self, tmp_path):
        def build():
            registry = MetricsRegistry(window_s=30.0)
            registry.counter("z").inc()
            registry.gauge("a", policy="x").set(1.0)
            registry.series("q").add(3.0, 2.0)
            return registry

        first, second = build().to_dict(), build().to_dict()
        assert first == second
        assert [m["name"] for m in first["metrics"]] == ["a", "q", "z"]
        path = build().write(tmp_path / "m.json")
        assert json.loads(path.read_text()) == first


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------
class TestProfiler:
    def test_stages_and_counters(self, tmp_path):
        profiler = Profiler("unit")
        for _ in range(3):
            with profiler.stage("work"):
                pass
        profiler.count("items", 5)
        profiler.count("items", 2)
        manifest = profiler.manifest()
        assert manifest["profile"] == "unit"
        assert manifest["stages"]["work"]["calls"] == 3
        assert manifest["stages"]["work"]["seconds"] >= 0.0
        assert manifest["counters"] == {"items": 7.0}
        assert manifest["wall_seconds"] > 0.0
        assert profiler.stage_seconds("missing") == 0.0
        path = profiler.write(tmp_path / "p.json")
        assert json.loads(path.read_text())["profile"] == "unit"

    def test_stage_times_exceptions_too(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.stage("boom"):
                raise RuntimeError("x")
        assert profiler.manifest()["stages"]["boom"]["calls"] == 1


# ---------------------------------------------------------------------------
# Cache stats + profiled runner stages
# ---------------------------------------------------------------------------
class TestCacheStats:
    def test_lookup_statuses(self, tmp_path, cache_table):
        from repro.experiments.runner import CacheStats, ResultCache

        def lookup(key_hash):
            stats = CacheStats()
            [value] = cache.get_many([key_hash], stats=stats)
            status = ("hit" if stats.hits else
                      "miss" if stats.misses else "stale")
            return value, status

        cache = ResultCache(tmp_path)
        assert lookup("aaaa") == (None, "miss")
        cache.put_many([("aaaa", {"k": 1}, {"v": 2}),
                        ("bbbb", {"k": 2}, {"v": 3}),
                        ("cccc", {"k": 3}, {"v": 4})])
        assert lookup("aaaa") == ({"v": 2}, "hit")
        cache_table(tmp_path).set_value("bbbb", "{ not json")
        assert lookup("bbbb") == (None, "stale")
        cache_table(tmp_path).set_value("cccc", "null")
        assert lookup("cccc") == (None, "stale")

    def test_cached_batch_tallies_and_profiles(self, tmp_path,
                                               cache_table):
        from repro.experiments.runner import (
            CacheStats, ResultCache, cached_batch,
        )

        cache = ResultCache(tmp_path)
        key_fn = lambda item: {"item": item}  # noqa: E731

        stats = CacheStats()
        profiler = Profiler()
        out = cached_batch(lambda items: [i * 10 for i in items],
                           [1, 2, 3], key_fn=key_fn, cache=cache,
                           stats=stats, profiler=profiler)
        assert out == [10, 20, 30]
        assert (stats.hits, stats.misses, stats.stale) == (0, 3, 0)
        assert profiler.counters["batch_items"] == 3.0
        assert profiler.counters["cache_misses"] == 3.0
        stages = profiler.manifest()["stages"]
        assert set(stages) == {"cache/lookup", "cache/compute",
                               "cache/write"}

        # Second pass: all hits, accumulated into the same stats.
        out = cached_batch(lambda items: [i * 10 for i in items],
                           [1, 2, 3], key_fn=key_fn, cache=cache,
                           stats=stats)
        assert out == [10, 20, 30]
        assert (stats.hits, stats.misses, stats.stale) == (3, 3, 0)

        # Corrupt one entry: recomputed, tallied stale.
        from repro.experiments.runner import config_hash
        cache_table(tmp_path).set_value(config_hash(key_fn(2)), "garbage")
        out = cached_batch(lambda items: [i * 10 for i in items],
                           [1, 2, 3], key_fn=key_fn, cache=cache,
                           stats=stats)
        assert out == [10, 20, 30]
        assert (stats.hits, stats.misses, stats.stale) == (5, 3, 1)
        assert stats.render() == "cache: 5 hits, 3 misses, 1 stale"

    def test_record_rejects_unknown_status(self):
        from repro.experiments.runner import CacheStats

        with pytest.raises(ValueError, match="unknown"):
            CacheStats().record("hot")


# ---------------------------------------------------------------------------
# FleetReport.render golden output
# ---------------------------------------------------------------------------
GOLDEN_RENDER = """\
Fleet: 4 chips as 4 x 1-chip clusters, policy=fifo
Jobs: 40 submitted, 16 completed (11 truncated), 24 rejected
Makespan 267 s, 215.7 jobs/h, chip utilization 31.4%
Queueing wait p50/p95/p99: 0.0 / 0.0 / 0.0 s

Per-tenant privacy budget
Tenant   | Budget eps | Spent eps | Used | Admitted | Truncated | Rejected
---------+------------+-----------+------+----------+-----------+---------
tenant-0 |       3.00 |      3.00 | 100% |        3 |         2 |        3
tenant-1 |       3.00 |      3.00 | 100% |        0 |         3 |        8
tenant-2 |       3.00 |      3.00 | 100% |        2 |         4 |        3
tenant-3 |       3.00 |      3.00 | 100% |        0 |         2 |       10"""


class TestFleetReportGolden:
    def test_render_matches_golden(self):
        trace = generate_trace_arrays(TraceConfig(jobs=40, seed=3))
        report = simulate_fleet_streaming(
            trace, FleetConfig(chips=4), policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=3.0)))
        assert report.render() == GOLDEN_RENDER


# ---------------------------------------------------------------------------
# CLI integration: serve/simulate/trace subcommands
# ---------------------------------------------------------------------------
class TestCli:
    def test_serve_outputs_and_inspector(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "fleet.json"
        metrics_dir = tmp_path / "metrics"
        profile_path = tmp_path / "profile.json"
        assert main(["serve", "--jobs", "120", "--policy", "fifo",
                     "--trace", str(trace_path),
                     "--metrics-out", str(metrics_dir),
                     "--profile", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "trace ->" in out and "profile ->" in out
        events = load_trace(trace_path)
        assert validate_events(events) == []
        assert (metrics_dir / "metrics_fifo.json").exists()
        manifest = json.loads(profile_path.read_text())
        assert "serve/simulate" in manifest["stages"]

        assert main(["trace", str(trace_path)]) == 0
        assert "fleet: fifo" in capsys.readouterr().out
        assert main(["trace", str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == len(events)

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["trace", str(bad)]) == 2
        assert "trace:" in capsys.readouterr().err
        assert main(["trace", str(tmp_path / "missing.json")]) == 2

    def test_serve_rows_unchanged_by_observability(self, tmp_path):
        from repro.experiments import serve

        plain = serve.run(policies=("fifo", "sjf"), trace_jobs=150)
        observed = serve.run(policies=("fifo", "sjf"), trace_jobs=150,
                             trace_path=str(tmp_path / "t.json"),
                             metrics_dir=str(tmp_path / "m"),
                             profiler=Profiler("serve"))
        assert plain == observed

    def test_simulate_trace_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "step.json"
        assert main(["simulate", "SqueezeNet", "--chips", "2",
                     "--trace", str(path)]) == 0
        assert "2x diva" in capsys.readouterr().out
        assert validate_events(load_trace(path)) == []

    def test_design_space_prints_cache_stats(self, tmp_path, capsys):
        from repro.__main__ import main

        args = ["design-space", "--models", "SqueezeNet",
                "--heights", "32", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "cache: 0 hits, 1 misses, 0 stale" in \
            capsys.readouterr().out
        assert main(args) == 0
        assert "cache: 1 hits, 0 misses, 0 stale" in \
            capsys.readouterr().out

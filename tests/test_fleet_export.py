"""``FleetObs.export`` against a naive per-row reference.

The export builds per-job NumPy columns and emits spans / folds metrics
in bulk.  This file keeps the straightforward per-row implementation it
replaced (one registry lookup and one ``TimeSeries.add`` per job) as
the reference, and pins byte-equal trace JSON and metrics JSON between
the two:

* over fifo / sjf / budget on static and autoscaled fleets at
  ``epsilon=3`` (rejects and truncations present), plus a fully
  admitted run and a faulty run whose 5k observations cross the P²
  warmup of the ``wait_s`` / ``service_s`` histograms — the faulty
  reference rows come from ``simulate_fleet``'s job records;
* between the job-list and array entry points under faults, for a
  retry/degrade failure process and one that abandons jobs.

Hypothesis pins the batched ``TimeSeries.add_many`` to repeated
``add``, bit for bit.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import FleetObs, MetricsRegistry, TimeSeries, TraceRecorder
from repro.obs.trace import validate_events
from repro.serve import (
    AdmissionController,
    FaultConfig,
    FaultModel,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    simulate_fleet,
    simulate_fleet_streaming,
)
from repro.serve.autoscale import AutoscalerPolicy
from repro.serve.budget import AdmissionStatus

_OUTCOMES = ("admitted", "truncated", "rejected")

AUTOSCALE = AutoscalerPolicy(max_clusters=32, provision_delay_s=30.0,
                             cooldown_s=20.0, target_p99_wait_s=60.0)

#: The benchmark's faulty fleet (retries and degraded continuations).
RETRY_FAULTS = FaultConfig(mtbf_hours=2.0, repair_hours=0.05,
                           degrade_fraction=0.5, seed=11)
#: No retries, no degradation: every crash abandons its job.
ABANDON_FAULTS = FaultConfig(mtbf_hours=2.0, repair_hours=0.05,
                             degrade_fraction=0.0, max_retries=0, seed=11)
#: Two-chip clusters, so a crashed job can continue degraded at dp=1.
FAULTY_FLEET = FleetConfig(chips=16, chips_per_cluster=2)


# ---------------------------------------------------------------------------
# The naive per-row reference
# ---------------------------------------------------------------------------


def _record_rows(records):
    code = {AdmissionStatus.ADMITTED: 0, AdmissionStatus.TRUNCATED: 1,
            AdmissionStatus.REJECTED: 2}
    for rec in records:
        yield (rec.job.job_id, rec.job.tenant, rec.job.model,
               float(rec.job.arrival_s), code[rec.decision.status],
               int(rec.decision.granted_steps), int(rec.job.steps),
               float(rec.decision.epsilon_after),
               rec.start_s, rec.finish_s)


def _streaming_rows(trace, decisions, service, dispatches):
    """Zero-fault streaming rows: one dispatch per job, finish = start +
    service (the float the loop pushed onto its completion heap)."""
    starts = dict(dispatches)
    for job in range(len(trace)):
        start = starts.get(job)
        finish = float(start + service[job]) if start is not None \
            else None
        yield (job, trace.tenants[int(trace.tenant[job])],
               trace.models[int(trace.model[job])],
               float(trace.arrival_s[job]),
               int(decisions.status[job]),
               int(decisions.granted_steps[job]),
               int(trace.steps[job]),
               float(decisions.epsilon_after[job]),
               start, finish)


def _emit_spans(recorder, policy, rows, samples, scale_events,
                fault_events):
    pid = recorder.pid(f"fleet: {policy}")
    for (job, tenant, model, arrival, status, granted, requested,
         eps_after, start, finish) in rows:
        tid = recorder.tid(pid, tenant)
        if status == 2 or start is None:
            recorder.instant(
                f"job-{job} rejected", arrival, pid=pid, tid=tid,
                cat="admission",
                args={"model": model, "requested_steps": requested,
                      "epsilon_after": eps_after})
            continue
        recorder.span(f"job-{job} wait", arrival, start - arrival,
                      pid=pid, tid=tid, cat="queue")
        if finish is None:  # abandoned: no run span
            continue
        args = {"model": model, "granted_steps": granted,
                "requested_steps": requested,
                "epsilon_after": eps_after}
        if status == 1:
            args["truncated"] = True
        recorder.span(f"job-{job} run", start, finish - start,
                      pid=pid, tid=tid, cat="run", args=args)
    scale_tid = recorder.tid(pid, "autoscaler")
    for event in scale_events:
        recorder.instant(
            event.label, event.time_s, pid=pid, tid=scale_tid,
            cat="autoscale", args=event.to_dict())
    if fault_events:
        fault_tid = recorder.tid(pid, "faults")
        crash_at = {(e.job_id, e.attempt): e.time_s
                    for e in fault_events if e.kind == "failure"}
        for event in fault_events:
            args = {"job": event.job_id, "attempt": event.attempt}
            if event.kind == "retry":
                crash_s = crash_at[(event.job_id, event.attempt)]
                recorder.span(
                    f"job-{event.job_id} backoff", crash_s,
                    event.time_s - crash_s, pid=pid, tid=fault_tid,
                    cat="fault", args=args)
            else:
                recorder.instant(
                    f"job-{event.job_id} {event.kind}", event.time_s,
                    pid=pid, tid=fault_tid, cat="fault", args=args)
    for t, queued, idle, active, pending in samples:
        recorder.counter("queue depth", t, {"queued": queued}, pid=pid)
        recorder.counter("clusters", t,
                         {"running": active - idle, "idle": idle,
                          "pending": pending}, pid=pid)


def _fold_metrics(metrics, policy, rows, samples, scale_events,
                  fault_events):
    waits = metrics.histogram("wait_s", policy=policy)
    service = metrics.histogram("service_s", policy=policy)
    for (job, tenant, model, arrival, status, granted, requested,
         eps_after, start, finish) in rows:
        outcome = _OUTCOMES[status]
        metrics.counter("jobs", policy=policy, tenant=tenant,
                        outcome=outcome).inc()
        metrics.series("arrival_rate", policy=policy,
                       outcome=outcome).add(arrival, 1.0)
        metrics.series("tenant_epsilon_spent", policy=policy,
                       tenant=tenant).add(arrival, eps_after)
        if start is not None:
            waits.observe(start - arrival)
            if finish is not None:
                service.observe(finish - start)
    for t, queued, idle, active, pending in samples:
        running = active - idle
        metrics.series("queue_depth", policy=policy).add(t, queued)
        metrics.series("running_jobs", policy=policy).add(t, running)
        metrics.series("active_clusters", policy=policy).add(t, active)
        metrics.series("utilization", policy=policy).add(
            t, running / active if active > 0 else 0.0)
    for event in scale_events:
        metrics.counter("scale_decisions", policy=policy,
                        action=event.action, reason=event.reason).inc()
    for fault in fault_events:
        metrics.counter("fault_events", policy=policy,
                        kind=fault.kind).inc()
    if samples:
        metrics.gauge("peak_queue_depth", policy=policy).set(
            max(sample[1] for sample in samples))


def _reference(obs, records=None):
    """Per-row trace + metrics JSON of the run ``obs`` observed.

    Faulty runs need ``records`` (``simulate_fleet``'s job records):
    the per-row zero-fault rows cannot see retries.
    """
    run = obs._run
    if records is not None:
        rows = list(_record_rows(records))
    else:
        assert run["faults"] is None  # the per-row twin is zero-fault
        rows = list(_streaming_rows(run["trace"], run["decisions"],
                                    run["service"], obs.dispatches))
    scale_events = tuple(run["state"].events) \
        if run["state"] is not None else ()
    fault_events = run["faults"].events if run["faults"] is not None \
        else []
    recorder, metrics = TraceRecorder(), MetricsRegistry()
    _emit_spans(recorder, run["policy"], rows, obs.samples, scale_events,
                fault_events)
    _fold_metrics(metrics, run["policy"], rows, obs.samples, scale_events,
                  fault_events)
    return recorder.to_json(), json.dumps(metrics.to_dict())


def _assert_identical(actual, expected):
    """Byte-equality of two (trace JSON, metrics JSON) pairs.

    On a mismatch, report the first differing offset with context —
    pytest's own diff of two megabyte strings would run for minutes.
    """
    for name, got, want in zip(("trace", "metrics"), actual, expected):
        if got != want:
            at = len(os.path.commonprefix([got, want]))
            pytest.fail(f"{name} JSON differs at offset {at}: "
                        f"{got[at - 120:at + 120]!r} != "
                        f"{want[at - 120:at + 120]!r}")


def _exported(obs):
    obs.export()
    assert validate_events(obs.recorder.events) == []
    return obs.recorder.to_json(), json.dumps(obs.metrics.to_dict())


def _observer():
    return FleetObs(recorder=TraceRecorder(), metrics=MetricsRegistry())


# ---------------------------------------------------------------------------
# Column export == per-row reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_trace():
    return generate_trace_arrays(TraceConfig(jobs=5_000, seed=13,
                                             mean_interarrival_s=2.0))


class TestReferenceExport:
    @pytest.mark.parametrize("policy", ("fifo", "sjf", "budget"))
    @pytest.mark.parametrize("autoscaled", (False, True),
                             ids=("static", "autoscaled"))
    def test_matches_per_row_reference(self, reference_trace, policy,
                                       autoscaled):
        obs = _observer()
        report = simulate_fleet_streaming(
            reference_trace, FleetConfig(chips=8), policy=policy,
            autoscaler=AUTOSCALE if autoscaled else None,
            admission=AdmissionController(TenantBudget(epsilon=3.0)),
            obs=obs)
        assert report.rejected > 0 and report.truncated > 0
        expected = _reference(obs)
        _assert_identical(_exported(obs), expected)

    def test_fully_admitted_run_crosses_the_p2_warmup(self,
                                                      reference_trace):
        obs = _observer()
        report = simulate_fleet_streaming(
            reference_trace, FleetConfig(chips=8), policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=1e6)),
            obs=obs)
        assert report.completed == len(reference_trace) > 4096
        expected = _reference(obs)
        _assert_identical(_exported(obs), expected)

    def test_faulty_run_matches_per_row_reference(self):
        trace = generate_trace_arrays(TraceConfig(
            jobs=5_000, seed=3, mean_interarrival_s=10.0))
        obs = _observer()
        report = simulate_fleet(
            trace.jobs(), FAULTY_FLEET, policy="fifo",
            admission=AdmissionController(TenantBudget(epsilon=1e6)),
            faults=FaultModel(RETRY_FAULTS), obs=obs)
        assert report.retries > 0 and report.degradations > 0
        expected = _reference(obs, report.records)
        exported = _exported(obs)
        _assert_identical(exported, expected)
        waits = next(m for m in json.loads(exported[1])["metrics"]
                     if m["name"] == "wait_s")
        assert waits["count"] > 4096


# ---------------------------------------------------------------------------
# Job-list and array exports agree under faults
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def faulty_trace():
    return generate_trace_arrays(TraceConfig(jobs=3_000, seed=3,
                                             mean_interarrival_s=10.0))


class TestFaultyExportDifferential:
    @pytest.mark.parametrize("config", (RETRY_FAULTS, ABANDON_FAULTS),
                             ids=("retry", "abandon"))
    def test_scalar_and_streaming_exports_identical(self, faulty_trace,
                                                    config):
        outputs, reports = [], []
        for mode in ("jobs", "arrays"):
            obs = _observer()
            admission = AdmissionController(TenantBudget(epsilon=1e6))
            if mode == "jobs":
                reports.append(simulate_fleet(
                    faulty_trace.jobs(), FAULTY_FLEET,
                    admission=admission, faults=FaultModel(config),
                    obs=obs))
            else:
                reports.append(simulate_fleet_streaming(
                    faulty_trace, FAULTY_FLEET,
                    admission=admission, faults=FaultModel(config),
                    obs=obs))
            outputs.append(_exported(obs))
        _assert_identical(outputs[1], outputs[0])
        report = reports[0]
        events = json.loads(outputs[0][0])["traceEvents"]
        runs = [e for e in events if e["ph"] == "X" and e["cat"] == "run"]
        waits = [e for e in events
                 if e["ph"] == "X" and e["cat"] == "queue"]
        # Abandoned jobs keep their wait span and lose the run span.
        assert len(runs) == report.completed
        assert len(waits) == report.completed + report.failed
        if config is ABANDON_FAULTS:
            assert report.failed > 0 and report.retries == 0
        else:
            assert report.retries > 0 and report.degradations > 0

    def test_wait_span_ends_at_the_first_dispatch(self, faulty_trace):
        log: list = []
        obs = _observer()
        simulate_fleet_streaming(
            faulty_trace, FAULTY_FLEET,
            admission=AdmissionController(TenantBudget(epsilon=1e6)),
            faults=FaultModel(RETRY_FAULTS), dispatch_log=log, obs=obs)
        obs.export()
        first: dict = {}
        for job, start in log:
            first.setdefault(job, start)
        retried = {e.job_id for e in obs._run["faults"].events
                   if e.kind == "retry"}
        assert retried
        spans = {e["name"]: e for e in obs.recorder.events
                 if e["ph"] == "X" and e["cat"] in ("queue", "run")}
        for job in retried:
            wait = spans[f"job-{job} wait"]
            assert wait["ts"] + wait["dur"] == pytest.approx(
                first[job] * 1e6)
            assert spans[f"job-{job} run"]["ts"] == first[job] * 1e6


# ---------------------------------------------------------------------------
# TimeSeries.add_many == repeated add
# ---------------------------------------------------------------------------

WINDOW_S = 60.0

#: Sample times built from window-relative steps: many samples on exact
#: window boundaries, lone samples per window, and multi-window gaps.
_steps = st.lists(st.one_of(
    st.just(0.0),
    st.sampled_from([WINDOW_S, 2 * WINDOW_S, 1000 * WINDOW_S]),
    st.floats(0.0, 3 * WINDOW_S, allow_nan=False)), max_size=60)
_float_values = st.floats(-1e6, 1e6, allow_nan=False)


def _series_dict(series):
    return json.dumps(series.to_dict())


@settings(max_examples=200, deadline=None)
@given(steps=_steps, data=st.data(), split=st.integers(0, 60),
       ints=st.booleans())
def test_add_many_equals_repeated_add(steps, data, split, ints):
    times = np.cumsum([0.0, *steps]).tolist()
    values = data.draw(st.lists(
        st.integers(-50, 50) if ints else _float_values,
        min_size=len(times), max_size=len(times)))
    one_by_one = TimeSeries(WINDOW_S)
    for t, value in zip(times, values):
        one_by_one.add(t, value)
    batched = TimeSeries(WINDOW_S)
    # Two batches: the second may continue the first's open window.
    split = min(split, len(times))
    batched.add_many(np.array(times[:split]), values[:split])
    batched.add_many(times[split:], values[split:])
    assert _series_dict(batched) == _series_dict(one_by_one)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_float_values, min_size=2, max_size=200))
@example(values=[1e16] + [1.0] * 15 + [-1e16])  # pairwise sums differ
def test_add_many_sums_are_sequential_left_folds(values):
    series = TimeSeries(WINDOW_S)
    # One full window that closes inside the batch, one left open.
    series.add_many([5.0] * len(values) + [65.0], [*values, 0.0])
    closed, _ = series.to_dict()["points"]
    total = 0.0
    for value in values:
        total += value
    assert closed["sum"] == total
    assert closed["count"] == len(values)
    assert closed["last"] == values[-1]


def test_add_many_rejects_time_travel():
    series = TimeSeries(WINDOW_S)
    series.add(200.0, 1.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        series.add_many([10.0], [1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        series.add_many([300.0, 250.0], [1.0, 2.0])
    series.add_many([], [])
    assert series.to_dict()["points"] == [
        {"t": 180.0, "count": 1, "sum": 1.0, "min": 1.0, "max": 1.0,
         "last": 1.0}]


def test_single_rejected_job_matches_reference():
    trace = generate_trace_arrays(TraceConfig(jobs=1, seed=1))
    obs = _observer()
    report = simulate_fleet_streaming(
        trace, FleetConfig(chips=2),
        admission=AdmissionController(TenantBudget(epsilon=1e-9)),
        obs=obs)
    assert report.rejected == 1
    expected = _reference(obs)
    _assert_identical(_exported(obs), expected)

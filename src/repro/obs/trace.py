"""Simulated-time tracing: Chrome-trace/Perfetto JSON recorder + inspector.

:class:`TraceRecorder` accumulates *simulated-time* events — spans,
instants, counters, async overlap slices — and serializes them in the
Chrome trace event format (the ``{"traceEvents": [...]}`` JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly).  The
clock is the simulation's, not the host's: span timestamps come from
event-loop ``now`` values or cycle counts divided by a clock frequency,
converted to the format's microsecond unit.

The recorder is deliberately dumb — callers hand it fully-resolved
events and it never reads a wall clock, so identical simulation inputs
produce byte-identical trace files (pinned by the determinism tests).
It keeps its events in emission order as plain dicts and column
blocks (:class:`EventBlock`); :meth:`TraceRecorder.write` streams both
as the exact ``json.dumps(..., indent=1)`` bytes, in fixed-size
chunks, without building a dict per block row.
Layout helpers for the two producers live alongside it:

* :func:`add_training_step_spans` /
  :func:`add_cluster_step_spans` lay one training step's per-phase and
  per-GEMM :class:`~repro.arch.accelerator.OpRun` records on a
  simulated timeline (communication overlap appears as an async
  ``hidden`` slice, since it runs concurrently with backward compute).
* :mod:`repro.obs.fleet` builds job-lifecycle spans and autoscaler
  instants for the fleet simulators.

The ``python -m repro trace`` inspector round-trips files through
:func:`load_trace` (schema validation: every event must carry its
phase's required keys — ``ph``/``ts``/``pid``/``tid`` at minimum) and
:func:`summarize`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol

from repro.obs.jsonstream import ChunkedWriter, dumps_at, write_list

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.training.simulate import (
        ClusterTrainingReport,
        GemmOp,
        TrainingReport,
    )
    from repro.arch.accelerator import OpRun

#: Microseconds per simulated second — the trace format's time unit.
US_PER_S = 1e6


class EventBlock(Protocol):
    """Events kept as columns, rendered only when read or written.

    ``texts()`` yields batches of the block's events as the text
    ``json.dumps(event, indent=1)`` gives for an item of the
    ``traceEvents`` list (nested at depth 2); ``len()`` counts them.
    """

    def __len__(self) -> int: ...

    def texts(self) -> Iterator[list[str]]: ...


class TraceRecorder:
    """Accumulates Chrome-trace events over simulated time.

    Processes (``pid``) and threads (``tid``) are allocated by name on
    first use, in call order, so a run that emits the same logical
    streams in the same order gets the same ids — a prerequisite for
    deterministic output and for the scalar/streaming span-set
    equality the fleet tests pin.
    """

    def __init__(self) -> None:
        #: Emission order: plain dict events and event blocks.
        self._parts: list[dict[str, Any] | EventBlock] = []
        self._count = 0
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def events(self) -> list[dict[str, Any]]:
        """Every event as a dict, in emission order.

        A block's dicts are parsed back from its rendered text on each
        access, so the event layout is stated once, in the block's
        templates; the writer (:meth:`write`) never needs them.
        """
        events: list[dict[str, Any]] = []
        for part in self._parts:
            if isinstance(part, dict):
                events.append(part)
                continue
            for batch in part.texts():
                events.extend(json.loads("[" + ",".join(batch) + "]"))
        return events

    def _emit(self, event: dict[str, Any]) -> None:
        self._parts.append(event)
        self._count += 1

    def add_block(self, block: EventBlock) -> None:
        """Append a column block of events after everything so far."""
        self._parts.append(block)
        self._count += len(block)

    # -- id allocation -----------------------------------------------------

    def pid(self, name: str) -> int:
        """Process id for ``name``, allocating (and naming) on first use."""
        if name not in self._pids:
            pid = self._pids[name] = len(self._pids)
            self._emit({
                "name": "process_name", "ph": "M", "ts": 0.0,
                "pid": pid, "tid": 0, "args": {"name": name}})
        return self._pids[name]

    def tid(self, pid: int, name: str) -> int:
        """Thread id for ``name`` under ``pid``, allocating on first use."""
        key = (pid, name)
        if key not in self._tids:
            tid = self._tids[key] = sum(
                1 for (p, _) in self._tids if p == pid)
            self._emit({
                "name": "thread_name", "ph": "M", "ts": 0.0,
                "pid": pid, "tid": tid, "args": {"name": name}})
        return self._tids[key]

    # -- event emission ----------------------------------------------------

    def span(self, name: str, start_s: float, dur_s: float, *,
             pid: int = 0, tid: int = 0, cat: str = "sim",
             args: Mapping[str, Any] | None = None) -> None:
        """One complete (``ph="X"``) span of ``dur_s`` simulated seconds."""
        event = {"name": name, "ph": "X", "cat": cat,
                 "ts": start_s * US_PER_S, "dur": dur_s * US_PER_S,
                 "pid": pid, "tid": tid}
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def instant(self, name: str, ts_s: float, *,
                pid: int = 0, tid: int = 0, cat: str = "sim",
                args: Mapping[str, Any] | None = None) -> None:
        """One thread-scoped instant (``ph="i"``) event."""
        event = {"name": name, "ph": "i", "cat": cat, "s": "t",
                 "ts": ts_s * US_PER_S, "pid": pid, "tid": tid}
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def counter(self, name: str, ts_s: float,
                values: Mapping[str, float], *, pid: int = 0) -> None:
        """One counter (``ph="C"``) sample — Perfetto plots each key."""
        self._emit({
            "name": name, "ph": "C", "cat": "metrics",
            "ts": ts_s * US_PER_S, "pid": pid, "tid": 0,
            "args": dict(values)})

    def async_span(self, name: str, start_s: float, dur_s: float, *,
                   span_id: int, pid: int = 0, tid: int = 0,
                   cat: str = "overlap",
                   args: Mapping[str, Any] | None = None) -> None:
        """One async (``ph="b"``/``"e"``) slice for overlapped work.

        Async events live on their own track per ``(cat, id)``, which
        is how work that runs *concurrently* with a synchronous span
        stack (hidden allreduce time behind backward compute) renders
        without distorting the stack.
        """
        begin = {"name": name, "ph": "b", "cat": cat,
                 "ts": start_s * US_PER_S, "pid": pid, "tid": tid,
                 "id": span_id}
        if args:
            begin["args"] = dict(args)
        self._emit(begin)
        self._emit({"name": name, "ph": "e", "cat": cat,
                    "ts": (start_s + dur_s) * US_PER_S,
                    "pid": pid, "tid": tid, "id": span_id})

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | Path) -> Path:
        """Serialize to ``path``; returns the written path.

        The bytes are exactly ``to_json(indent=1) + "\\n"``, streamed
        part by part in fixed-size chunks: blocks render their rows
        through templates, and no event dict is built for them.
        """
        path = Path(path)
        with open(path, "w") as handle:
            out = ChunkedWriter(handle)
            out.write('{\n "traceEvents": ')
            write_list(out, self._texts(), 1)
            out.write(',\n "displayTimeUnit": "ms"\n}\n')
            out.flush()
        return path

    def _texts(self) -> Iterator[list[str]]:
        """Batches of event texts at depth 2, in emission order."""
        for part in self._parts:
            if isinstance(part, dict):
                yield [dumps_at(part, 2)]
            else:
                yield from part.texts()


# -- training-step span layout ---------------------------------------------


def _gemm_label(op: "GemmOp") -> str:
    gemm = op.gemm
    label = f"gemm {gemm.m}x{gemm.k}x{gemm.n}"
    if gemm.count > 1:
        label += f" x{gemm.count}"
    if gemm.layer:
        label += f" [{gemm.layer}]"
    return label


def add_training_step_spans(
    recorder: TraceRecorder,
    report: "TrainingReport",
    op_log: "Iterable[tuple[GemmOp, OpRun]]",
    *,
    pid: int | None = None,
    offset_s: float = 0.0,
) -> float:
    """Lay one single-chip step on the recorder's timeline.

    Phases run back to back in :data:`~repro.training.phases.PHASE_ORDER`
    (the simulator charges them as a serial critical path); within each
    phase the vector-unit slice precedes the GEMMs in schedule order.
    Returns the end-of-step time in seconds, so a caller stacking a
    communication phase on top (:func:`add_cluster_step_spans`) knows
    where to continue.
    """
    from repro.training.phases import PHASE_ORDER

    if pid is None:
        pid = recorder.pid(f"step: {report.network} "
                           f"{report.algorithm.value} "
                           f"B={report.batch} on {report.accelerator}")
    tid = recorder.tid(pid, "phases")
    op_tid = recorder.tid(pid, "ops")
    hz = report.frequency_hz
    by_phase: dict[Any, list[tuple[GemmOp, OpRun]]] = {}
    for op, run in op_log:
        by_phase.setdefault(op.phase, []).append((op, run))

    cursor = offset_s
    for phase in PHASE_ORDER:
        run = report.phases.get(phase)
        if run is None:
            continue
        phase_s = run.cycles / hz
        recorder.span(str(phase), cursor, phase_s, pid=pid, tid=tid,
                      cat="phase", args=run.trace_args())
        op_cursor = cursor
        gemm_cycles = sum(r.cycles for _, r in by_phase.get(phase, ()))
        vector_cycles = run.cycles - gemm_cycles
        if vector_cycles > 0:
            recorder.span(f"{phase} vector", op_cursor,
                          vector_cycles / hz, pid=pid, tid=op_tid,
                          cat="vector")
            op_cursor += vector_cycles / hz
        for op, op_run in by_phase.get(phase, ()):
            op_s = op_run.cycles / hz
            recorder.span(_gemm_label(op), op_cursor, op_s, pid=pid,
                          tid=op_tid, cat="gemm",
                          args=op_run.trace_args())
            op_cursor += op_s
        cursor += phase_s
    return cursor


def add_cluster_step_spans(
    recorder: TraceRecorder,
    report: "ClusterTrainingReport",
    op_log: "Iterable[tuple[GemmOp, OpRun]]",
) -> float:
    """Lay one sharded step (shard phases + collectives) on the timeline.

    The shard timeline is one chip's (all chips are identical); the
    exposed collective time appears as a ``Comm`` span after the local
    phases, and any overlapped wire time (``comm.hidden_cycles``)
    becomes an async ``allreduce (hidden)`` slice ending where the
    exposed span begins — the wire was busy *during* backward compute.

    Pipelined steps (``report.pipeline_cycles > 0``) additionally get
    one track per pipeline stage, each span staggered by one
    microbatch's fill delay, and the schedule's idle time as an async
    ``pipeline bubble`` slice — concurrent with the stage stack, the
    same way hidden allreduce time renders.
    """
    from repro.training.phases import Phase

    pid = recorder.pid(f"step: {report.shard.network} "
                       f"{report.shard.algorithm.value} "
                       f"B={report.global_batch} on {report.cluster} "
                       f"x{report.n_chips}")
    comm_start = add_training_step_spans(
        recorder, report.shard, op_log, pid=pid)
    tid = recorder.tid(pid, "phases")
    hz = report.frequency_hz
    if report.pipeline_cycles > 0 and report.stage_cycles:
        m = max(report.microbatches, 1)
        bounds = report.stage_bounds
        fill_s = 0.0
        for j, cycles in enumerate(report.stage_cycles):
            label = f"stage {j}"
            if len(bounds) > j + 1:
                label += f" [L{bounds[j]}:{bounds[j + 1]})"
            stage_tid = recorder.tid(pid, label)
            recorder.span(label, fill_s, cycles / hz, pid=pid,
                          tid=stage_tid, cat="pipeline",
                          args={"cycles": cycles,
                                "microbatches": report.microbatches})
            # The next stage starts after one microbatch drains here.
            fill_s += cycles / m / hz
        if report.bubble_cycles > 0:
            bubble_s = report.bubble_cycles / hz
            recorder.async_span(
                "pipeline bubble", 0.0, bubble_s, span_id=2, pid=pid,
                tid=tid, cat="pipeline",
                args={"bubble_cycles": report.bubble_cycles,
                      "plan": str(report.plan)})
    comm = report.comm
    if comm.hidden_cycles > 0:
        hidden_s = comm.hidden_cycles / hz
        recorder.async_span(
            "allreduce (hidden)", comm_start - hidden_s, hidden_s,
            span_id=1, pid=pid, tid=tid, cat="comm",
            args={"hidden_cycles": comm.hidden_cycles,
                  "link_bytes": comm.link_bytes})
    exposed_s = comm.cycles / hz
    recorder.span(str(Phase.COMM), comm_start, exposed_s, pid=pid,
                  tid=tid, cat="comm", args=comm.trace_args())
    return comm_start + exposed_s


# -- inspector: load / validate / summarize --------------------------------

#: Keys every event of a given phase type must carry.  ``ph``/``pid``/
#: ``tid``/``ts`` are universal in the files this package writes;
#: phase-specific extras follow the Chrome trace event format spec.
_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "X": ("name", "ph", "ts", "dur", "pid", "tid"),
    "i": ("name", "ph", "ts", "pid", "tid", "s"),
    "I": ("name", "ph", "ts", "pid", "tid"),
    "C": ("name", "ph", "ts", "pid", "tid", "args"),
    "M": ("name", "ph", "pid", "tid", "args"),
    "b": ("name", "ph", "ts", "pid", "tid", "id", "cat"),
    "e": ("name", "ph", "ts", "pid", "tid", "id", "cat"),
    "B": ("name", "ph", "ts", "pid", "tid"),
    "E": ("ph", "ts", "pid", "tid"),
}


def validate_events(events: Any) -> list[str]:
    """Schema problems of a ``traceEvents`` list (empty = valid)."""
    problems: list[str] = []
    if not isinstance(events, list):
        return [f"traceEvents is {type(events).__name__}, expected list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        ph = event.get("ph")
        required = _REQUIRED_KEYS.get(ph)  # type: ignore[arg-type]
        if required is None:
            problems.append(f"event {index}: unknown ph {ph!r}")
            continue
        missing = [key for key in required if key not in event]
        if missing:
            problems.append(
                f"event {index} (ph={ph}): missing {', '.join(missing)}")
            continue
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                problems.append(
                    f"event {index} (ph={ph}): {key} is not numeric")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(
                    f"event {index} (ph={ph}): {key} is not an int")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    return problems


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load + schema-validate a trace file; returns its event list.

    Accepts both the ``{"traceEvents": [...]}`` object form this
    package writes and the bare JSON-array form the Chrome format also
    allows.  Raises ``ValueError`` listing the first schema problems.
    """
    payload = json.loads(Path(path).read_text())
    events = payload.get("traceEvents") if isinstance(payload, dict) \
        else payload
    problems = validate_events(events)
    if problems:
        raise ValueError(
            f"{path}: not a valid Chrome trace: " + "; ".join(problems))
    return events


def summarize(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Inspector summary: per-process span counts, duration, extremes."""
    names: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = event["args"]["name"]
    processes: dict[int, dict[str, Any]] = {}
    counts: dict[str, int] = {}
    for event in events:
        counts[event["ph"]] = counts.get(event["ph"], 0) + 1
        if event["ph"] == "M":
            continue
        info = processes.setdefault(event["pid"], {
            "name": names.get(event["pid"], f"pid {event['pid']}"),
            "spans": 0, "instants": 0, "counters": 0, "async": 0,
            "end_ts": 0.0, "longest_span": None})
        end = event.get("ts", 0.0) + event.get("dur", 0.0)
        info["end_ts"] = max(info["end_ts"], end)
        if event["ph"] == "X":
            info["spans"] += 1
            longest = info["longest_span"]
            if longest is None or event["dur"] > longest["dur"]:
                info["longest_span"] = {"name": event["name"],
                                        "dur": event["dur"]}
        elif event["ph"] in ("i", "I"):
            info["instants"] += 1
        elif event["ph"] == "C":
            info["counters"] += 1
        elif event["ph"] in ("b", "e"):
            info["async"] += 1
    return {
        "events": len(events),
        "by_phase_type": dict(sorted(counts.items())),
        "processes": [processes[pid] for pid in sorted(processes)],
    }


def render_summary(summary: dict[str, Any]) -> str:
    """Human-readable inspector output for one summarized trace."""
    by_type = ", ".join(f"{count} {ph}" for ph, count
                        in summary["by_phase_type"].items())
    lines = [f"{summary['events']} events ({by_type})"]
    for proc in summary["processes"]:
        line = (f"  {proc['name']}: {proc['spans']} spans, "
                f"{proc['instants']} instants, "
                f"{proc['counters']} counter samples, "
                f"{proc['async']} async slices, "
                f"ends at {proc['end_ts'] / US_PER_S:.3f}s")
        longest = proc["longest_span"]
        if longest is not None:
            line += (f"; longest span {longest['name']!r} "
                     f"({longest['dur'] / US_PER_S * 1e3:.3f}ms)")
        lines.append(line)
    return "\n".join(lines)

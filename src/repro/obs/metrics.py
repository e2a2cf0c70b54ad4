"""Labeled metrics registry with windowed time-series output.

A deliberately small, dependency-free slice of the Prometheus data
model, clocked on *simulated* time:

* :class:`Counter` — monotone count (jobs admitted, cache hits).
* :class:`Gauge` — last-write-wins level (active clusters).
* :class:`Histogram` — distribution over observations, stored as one
  8-byte column: count / mean / max and exact nearest-rank p50 / p95 /
  p99 through :func:`repro.serve.metrics.percentile`, the helper the
  fleet report's wait percentiles use.
* :class:`TimeSeries` — per-window aggregates (count / sum / min /
  max / last) of a sampled value, the "queue depth over time" shape
  Perfetto counters and dashboards want.

Metrics are keyed by ``(name, sorted labels)`` through one
:class:`MetricsRegistry`, whose :meth:`~MetricsRegistry.to_dict` /
:meth:`~MetricsRegistry.write` emit a deterministic JSON document —
identical runs serialize byte-identically.  ``write`` streams the
same bytes as ``json.dumps(to_dict(), indent=1)``, rendering each
series' window columns through one template.
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.obs.jsonstream import (
    BATCH_ROWS,
    ChunkedWriter,
    dumps_at,
    numbers,
    template,
    write_list,
)
from repro.serve.metrics import percentile

#: A metric's identity: name plus its sorted label pairs.
MetricKey = "tuple[str, tuple[tuple[str, str], ...]]"

#: Percentiles every :class:`Histogram` reports, as ``p50``-style keys.
HISTOGRAM_PERCENTILES = (50, 95, 99)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Last-write-wins instantaneous level."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Distribution over observations, kept as one float column."""

    kind = "histogram"

    def __init__(self) -> None:
        self._values: array[float] = array("d")

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        """Correctly rounded mean (``math.fsum``): independent of the
        observation order and of the Python version's ``sum``."""
        values = self._values
        return math.fsum(values) / len(values) if values else 0.0

    @property
    def maximum(self) -> float:
        return max(self._values, default=0.0)

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each float of ``values`` in order."""
        self._values.extend(values)

    def quantile(self, p: float) -> float:
        """Exact nearest-rank ``p`` quantile (``p`` in [0, 1])."""
        return percentile(self._values, 100 * p)

    def to_dict(self) -> dict[str, Any]:
        summary: dict[str, Any] = {
            "count": float(self.count),
            "mean": self.mean,
            "max": self.maximum,
        }
        for pct in HISTOGRAM_PERCENTILES:
            summary[f"p{pct}"] = percentile(self._values, pct)
        return summary


#: A closed window's fields, in document order.
POINT_FIELDS = ("t", "count", "sum", "min", "max", "last")

#: Windows longer than this fold their sums one at a time; the rest
#: fold together, one column step per sample position.
_COLUMN_STEPS = 64

_POINT = template(dict.fromkeys(POINT_FIELDS, "%s"), 4)


class TimeSeries:
    """Per-window aggregates of a value sampled in time order.

    ``add(t, v)`` folds ``v`` into the window ``floor(t / window_s)``;
    samples must arrive with nondecreasing ``t`` (simulation event
    order), so each window closes exactly once and memory is one open
    window plus the closed windows, kept as columns: one array per
    field of :data:`POINT_FIELDS`.
    """

    kind = "series"

    __slots__ = ("window_s", "_closed", "_window", "_count", "_total",
                 "_min", "_max", "_last")

    def __init__(self, window_s: float = 60.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        #: Closed windows as blocks of one array per field.  An array's
        #: ``tolist`` gives back the Python types ``add`` would keep.
        self._closed: list[tuple[NDArray[Any], ...]] = []
        self._window: int | None = None
        self._count = 0
        self._total = 0.0
        self._min: Any = 0.0
        self._max: Any = 0.0
        self._last: Any = 0.0

    @property
    def points(self) -> list[dict[str, Any]]:
        """Closed windows as one dict each (built on each access)."""
        return [dict(zip(POINT_FIELDS, row)) for block in self._closed
                for row in zip(*(column.tolist() for column in block))]

    def _close(self) -> None:
        if self._window is None:
            return
        self._closed.append(tuple(np.array([value]) for value in (
            self._window * self.window_s, self._count, self._total,
            self._min, self._max, self._last)))
        self._count = 0
        self._total = 0.0

    def _seal(self) -> None:
        """Close the open window; the next sample opens a new one."""
        self._close()
        self._window = None

    def add(self, t: float, value: float) -> None:
        window = int(t // self.window_s)
        if self._window is None or window > self._window:
            self._close()
            self._window = window
            self._min = self._max = value
        elif window < self._window:
            raise ValueError(
                f"sample at t={t} precedes open window {self._window}")
        else:
            self._min = min(self._min, value)
            self._max = max(self._max, value)
        self._count += 1
        self._total += value
        self._last = value

    def add_many(self, times: ArrayLike, values: Any) -> None:
        """Fold time-ordered samples; bitwise equal to ``add`` per sample.

        Samples joining the already-open window fold one by one.  The
        rest fold as columns with no per-window Python: counts and
        last values come from the window cuts, min / max from
        ``np.minimum`` / ``np.maximum.reduceat`` (a window holding a
        NaN or a negative zero takes the builtins' left fold instead,
        which keeps the first of equal values and skips a later NaN),
        and sums from :func:`_window_sums`, the same sequential left
        fold ``add``'s running ``+=`` performs.  ``values`` is an
        int64 or float64 array or a list of one Python number type:
        int samples stay ints, float samples floats.  Anything else
        (mixed types, bools, other dtypes) folds one by one.
        """
        stamps = np.asarray(times, dtype=float)
        windows = (stamps // self.window_s).astype(np.int64)
        n = len(windows)
        if not n:
            return
        if (self._window is not None and windows[0] < self._window) \
                or np.any(windows[1:] < windows[:-1]):
            raise ValueError("samples must arrive in nondecreasing time, "
                             "at or after the open window")
        column = _sample_column(values)
        if column is None:
            for t, value in zip(stamps.tolist(), values):
                self.add(t, value)
            return
        lo = 0
        if windows[0] == self._window:
            lo = int(np.searchsorted(windows, windows[0], side="right"))
            for t, value in zip(stamps[:lo].tolist(),
                                column[:lo].tolist()):
                self.add(t, value)
            if lo == n:
                return
        windows, column = windows[lo:], column[lo:]
        cuts = np.flatnonzero(windows[1:] != windows[:-1]) + 1
        firsts = np.concatenate(([0], cuts))
        ends = np.append(cuts, len(column))
        lows = np.minimum.reduceat(column, firsts)
        highs = np.maximum.reduceat(column, firsts)
        if column.dtype.kind == "f":
            odd = np.isnan(column) | ((column == 0) & np.signbit(column))
            if odd.any():
                for k in np.flatnonzero(
                        np.logical_or.reduceat(odd, firsts)).tolist():
                    chunk = column[firsts[k]:ends[k]].tolist()
                    lows[k], highs[k] = min(chunk), max(chunk)
        counts = ends - firsts
        block = (windows[firsts] * self.window_s, counts,
                 _window_sums(column, firsts, counts), lows, highs,
                 column[ends - 1])
        self._close()
        if len(firsts) > 1:
            self._closed.append(tuple(field[:-1] for field in block))
        self._window = int(windows[-1])
        (_, self._count, self._total, self._min, self._max,
         self._last) = (field[-1].item() for field in block)

    def point_texts(self) -> Iterator[list[str]]:
        """Batches of the closed windows as JSON text at depth 4 (an
        item of a metric's ``points`` list)."""
        for block in self._closed:
            for lo in range(0, len(block[0]), BATCH_ROWS):
                rows = zip(*(numbers(column[lo:lo + BATCH_ROWS])
                             for column in block))
                yield [_POINT % row for row in rows]

    def to_dict(self) -> dict[str, Any]:
        self._seal()
        return {"window_s": self.window_s, "points": self.points}


def _sample_column(values: Any) -> NDArray[Any] | None:
    """``values`` as an int64 or float64 array whose ``tolist`` gives
    back the samples' own Python types; None if there is no such
    array (mixed or other types)."""
    if isinstance(values, np.ndarray):
        column = values
    else:
        kinds = set(map(type, values))
        if kinds not in ({int}, {float}):
            return None
        column = np.asarray(values)
    return column if column.dtype in (np.int64, np.float64) else None


@np.errstate(over="ignore", invalid="ignore")  # silent, as Python's +
def _window_sums(values: NDArray[Any], firsts: NDArray[np.int64],
                 counts: NDArray[np.int64]) -> NDArray[np.float64]:
    """``functools.reduce(operator.add, window, 0.0)`` of every window,
    bit for bit.

    Windows of up to :data:`_COLUMN_STEPS` samples fold together:
    step ``j`` adds each window's ``j``-th sample to its running sum,
    which starts at ``+0.0`` as the fold does.  Sorting the windows
    longest first makes the windows still open at step ``j`` a prefix.
    A longer window folds through ``np.add.accumulate``, whose running
    sum is the fold's once its first term is ``0.0 + x`` (the final
    ``+ 0.0`` turns the only possible difference, a ``-0.0``, into
    the fold's ``+0.0``).
    """
    sums = np.zeros(len(firsts))
    short = np.flatnonzero(counts <= _COLUMN_STEPS)
    short = short[np.argsort(-counts[short], kind="stable")]
    if len(short):
        starts, lengths = firsts[short], counts[short]
        running = np.zeros(len(short))
        steps = int(lengths[0])
        # Windows still open at each step (lengths sorted descending).
        live = np.searchsorted(-lengths, -np.arange(steps), side="left")
        for step, open_ in enumerate(live.tolist()):
            running[:open_] += values[starts[:open_] + step]
        sums[short] = running
    for k in np.flatnonzero(counts > _COLUMN_STEPS).tolist():
        window = values[firsts[k]:firsts[k] + counts[k]]
        sums[k] = np.add.accumulate(window, dtype=float)[-1] + 0.0
    return sums


class MetricsRegistry:
    """Name + label keyed store of the four metric kinds."""

    def __init__(self, window_s: float = 60.0) -> None:
        self.window_s = window_s
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]],
                            Counter | Gauge | Histogram | TimeSeries] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[tuple[
            tuple[str, tuple[tuple[str, str], ...]], Any]]:
        return iter(self._metrics.items())

    @staticmethod
    def _key(name: str, labels: Mapping[str, Any]
             ) -> tuple[str, tuple[tuple[str, str], ...]]:
        return name, tuple(sorted(
            (key, str(value)) for key, value in labels.items()))

    def _get(self, name: str, labels: Mapping[str, Any],
             factory: Any) -> Any:
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        elif not isinstance(metric, type(factory())):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{metric.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(name, labels, Histogram)

    def series(self, name: str, **labels: Any) -> TimeSeries:
        return self._get(name, labels,
                         lambda: TimeSeries(self.window_s))

    def _sorted(self) -> list[tuple[dict[str, Any], Any]]:
        return [({"name": name, "labels": dict(labels),
                  "kind": metric.kind}, metric)
                for (name, labels), metric in sorted(
                    self._metrics.items(), key=lambda item: item[0])]

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON document: one entry per metric, sorted."""
        return {"window_s": self.window_s,
                "metrics": [{**head, **metric.to_dict()}
                            for head, metric in self._sorted()]}

    def write(self, path: str | Path) -> Path:
        """Write :meth:`to_dict` as ``json.dumps(..., indent=1) + "\\n"``.

        The bytes are streamed in fixed-size chunks: a series renders
        its point columns through one template, and no point dict is
        built.  Like :meth:`to_dict`, it closes every open window.
        """
        path = Path(path)
        with open(path, "w") as handle:
            out = ChunkedWriter(handle)
            out.write('{\n "window_s": %s,\n "metrics": '
                      % json.dumps(self.window_s))
            write_list(out, self._entry_texts(out), 1)
            out.write("\n}\n")
            out.flush()
        return path

    def _entry_texts(self, out: ChunkedWriter) -> Iterator[list[str]]:
        """One metric entry per batch, at depth 2.  A series writes its
        points straight to ``out`` between its entry's head and tail."""
        slot = json.dumps("%s")
        for head, metric in self._sorted():
            if not isinstance(metric, TimeSeries):
                yield [dumps_at({**head, **metric.to_dict()}, 2)]
                continue
            metric._seal()
            text = dumps_at({**head, "window_s": metric.window_s,
                             "points": "%s"}, 2)
            # ``points`` is the entry's last key: its slot is the last.
            before, _, after = text.rpartition(slot)
            yield [before]
            write_list(out, metric.point_texts(), 3)
            out.write(after)

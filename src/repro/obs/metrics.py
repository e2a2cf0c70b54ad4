"""Labeled metrics registry with windowed time-series output.

A deliberately small, dependency-free slice of the Prometheus data
model, clocked on *simulated* time:

* :class:`Counter` — monotone count (jobs admitted, cache hits).
* :class:`Gauge` — last-write-wins level (active clusters).
* :class:`Histogram` — streamed distribution over observations,
  backed by :class:`repro.serve.stream.StreamingStats` (exact below
  the warmup size, P² quantile estimates beyond — the same
  machinery the streaming fleet simulator uses for its wait
  percentiles, so a million observations cost O(1) memory).
* :class:`TimeSeries` — per-window aggregates (count / sum / min /
  max / last) of a sampled value, the "queue depth over time" shape
  Perfetto counters and dashboards want.

Metrics are keyed by ``(name, sorted labels)`` through one
:class:`MetricsRegistry`, whose :meth:`~MetricsRegistry.to_dict` /
:meth:`~MetricsRegistry.write` emit a deterministic JSON document —
identical runs serialize byte-identically.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import add
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.serve.stream import StreamingStats

#: A metric's identity: name plus its sorted label pairs.
MetricKey = "tuple[str, tuple[tuple[str, str], ...]]"


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
    """Streamed distribution; quantiles via the shared P² machinery."""

    kind = "histogram"

    def __init__(self, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
                 ) -> None:
        self._stats = StreamingStats(quantiles)

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def mean(self) -> float:
        return self._stats.mean

    @property
    def maximum(self) -> float:
        return self._stats.maximum

    def observe(self, value: float) -> None:
        self._stats.add(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each float of ``values`` in order."""
        add_one = self._stats.add
        for value in values:
            add_one(value)

    def quantile(self, p: float) -> float:
        return self._stats.quantile(p)

    def to_dict(self) -> dict[str, Any]:
        return dict(self._stats.to_dict())


class TimeSeries:
    """Per-window aggregates of a value sampled in time order.

    ``add(t, v)`` folds ``v`` into the window ``floor(t / window_s)``;
    samples must arrive with nondecreasing ``t`` (simulation event
    order), so each window closes exactly once and memory is one open
    window plus the closed points.
    """

    kind = "series"

    __slots__ = ("window_s", "points", "_window", "_count", "_total",
                 "_min", "_max", "_last")

    def __init__(self, window_s: float = 60.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        self.points: list[dict[str, float]] = []
        self._window: int | None = None
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._last = 0.0

    def _close(self) -> None:
        if self._window is None:
            return
        self.points.append({
            "t": self._window * self.window_s,
            "count": self._count,
            "sum": self._total,
            "min": self._min,
            "max": self._max,
            "last": self._last,
        })
        self._count = 0
        self._total = 0.0

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

    def add_many(self, times: ArrayLike, values: Sequence[Any]) -> None:
        """Fold time-ordered samples; bitwise equal to ``add`` per sample.

        Window indices come from one vectorized floor division.  Each
        closed window's min / max / last come from the builtins over its
        slice (the same left fold ``add`` performs), and its sum is a
        sequential left fold (``functools.reduce``), never a pairwise
        NumPy sum, so totals match ``add``'s running ``+=`` exactly.
        ``values`` keep their Python types (int samples stay ints).
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
        lo = 0
        if windows[0] == self._window:
            # Samples joining the already-open window fold one by one.
            lo = int(np.searchsorted(windows, windows[0], side="right"))
            for t, value in zip(stamps[:lo].tolist(), values[:lo]):
                self.add(t, value)
            if lo == n:
                return
        cuts = (np.flatnonzero(np.diff(windows[lo:])) + lo + 1).tolist()
        firsts = [lo, *cuts]
        chunks = [values[a:b] for a, b in zip(firsts, [*cuts, n])]
        opened = windows[firsts].tolist()
        self._close()
        self.points.extend(
            {"t": window * self.window_s, "count": len(chunk),
             "sum": reduce(add, chunk, 0.0), "min": min(chunk),
             "max": max(chunk), "last": chunk[-1]}
            for window, chunk in zip(opened[:-1], chunks[:-1]))
        chunk = chunks[-1]
        self._window = opened[-1]
        self._count = len(chunk)
        self._total = reduce(add, chunk, 0.0)
        self._min = min(chunk)
        self._max = max(chunk)
        self._last = chunk[-1]

    def to_dict(self) -> dict[str, Any]:
        self._close()
        self._window = None
        return {"window_s": self.window_s, "points": list(self.points)}


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

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON document: one entry per metric, sorted."""
        metrics = []
        for (name, labels), metric in sorted(
                self._metrics.items(), key=lambda item: item[0]):
            metrics.append({"name": name, "labels": dict(labels),
                            "kind": metric.kind, **metric.to_dict()})
        return {"window_s": self.window_s, "metrics": metrics}

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1) + "\n")
        return path

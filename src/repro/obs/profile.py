"""Wall-clock self-profiling of the experiment harness.

Unlike the tracer and metrics registry — which observe *simulated*
time — the :class:`Profiler` measures the harness itself: how long the
cache lookup / batched evaluation / write-back stages of
:func:`repro.experiments.runner.cached_batch` actually took on the
host, plus counters the stages report (cache hits / misses / stale
entries, batch sizes).  The result is a small per-run JSON manifest —
the answer to "where did my sweep spend its time?".

This module is the sanctioned home of host-clock reads: lint rule
R006 (:mod:`repro.analysis.walltime`) forbids ``time.time()`` /
``time.perf_counter()`` everywhere else in ``src/repro`` so simulated
and wall time can never mix silently.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Profiler:
    """Accumulates named stage timings and counters for one run."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        #: stage -> [calls, total wall seconds]
        self._stages: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self._born = time.perf_counter()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one pass through stage ``name`` (re-entrant by name)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            entry = self._stages.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += time.perf_counter() - start

    def count(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def stage_seconds(self, name: str) -> float:
        return self._stages.get(name, [0, 0.0])[1]

    def manifest(self) -> dict[str, Any]:
        """The JSON document: total wall time, stages, counters."""
        return {
            "profile": self.name,
            "wall_seconds": time.perf_counter() - self._born,
            "stages": {
                name: {"calls": int(calls), "seconds": seconds}
                for name, (calls, seconds) in sorted(self._stages.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.manifest(), indent=1) + "\n")
        return path

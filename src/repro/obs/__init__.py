"""Opt-in observability: simulated-time tracing, metrics, profiling.

Three tiers, all disabled by default and zero-cost when off (the
simulators take ``None`` and skip every hook — the differential tests
pin the disabled path byte-identical to the pre-observability code):

* :mod:`repro.obs.trace` — :class:`TraceRecorder`, Chrome-trace /
  Perfetto JSON over *simulated* time (training-step op spans, fleet
  job lifecycles, autoscaler instants), plus the ``python -m repro
  trace`` inspector's loader.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of labeled
  counters / gauges / exact-quantile histograms / windowed time series.
* :mod:`repro.obs.profile` — :class:`Profiler`, *wall-clock*
  self-profiling of the experiment harness (cache stage timings,
  hit/miss counts) written to a per-run JSON manifest.

:class:`FleetObs` binds a recorder and/or registry to one fleet
simulation (``simulate_fleet_streaming(..., obs=FleetObs(recorder=...))``).
"""

from repro.obs.fleet import FleetObs
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.profile import Profiler
from repro.obs.trace import (
    TraceRecorder,
    load_trace,
    render_summary,
    summarize,
    validate_events,
)

__all__ = [
    "Counter",
    "FleetObs",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "TimeSeries",
    "TraceRecorder",
    "load_trace",
    "render_summary",
    "summarize",
    "validate_events",
]

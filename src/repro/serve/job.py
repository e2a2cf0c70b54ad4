"""Synthetic multi-tenant DP-training job traces.

A job is the unit of work the fleet simulator schedules: one tenant
asking for ``steps`` DP-SGD iterations of one zoo workload at a given
mini-batch and noise multiplier.  The privacy cost of a job follows
from exactly three of its fields — sampling rate
``batch / dataset_size``, ``noise_multiplier`` and ``steps`` — which
is what lets admission control (:mod:`repro.serve.budget`) price a job
before a single cycle is simulated.

:func:`generate_trace_arrays` produces a seeded synthetic arrival
stream as a :class:`TraceArrays` struct of arrays, one entry per job:
Poisson (or diurnal / bursty / multiregion) arrivals over a
configurable tenant / workload / algorithm mix, in the spirit of the
budget-and-model diversity documented by Jayaraman & Evans
("Evaluating Differentially Private Machine Learning in Practice").
The sampler is deterministic in ``TraceConfig.seed``: the same config
always yields the identical trace, and so the identical fleet report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
# Loaded here, not lazily by the first trace's ``np.random.default_rng``.
import numpy.random  # noqa: F401
from numpy.typing import NDArray

#: Algorithms a job may request; non-private SGD bypasses admission.
JOB_ALGORITHMS = ("SGD", "DP-SGD", "DP-SGD(R)")

#: Arrival-process shapes the trace generators understand.
#:
#: ``poisson``
#:     Homogeneous Poisson arrivals (the original model).
#: ``diurnal``
#:     Inhomogeneous Poisson with a sinusoidal day/night rate.
#: ``bursty``
#:     Two-state Markov-modulated Poisson process: long calm
#:     stretches punctuated by short high-rate bursts.
#: ``multiregion``
#:     Superposition of phase-shifted diurnal regions, each owning a
#:     slice of the tenant population.
TRACE_SHAPES = ("poisson", "diurnal", "bursty", "multiregion")


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace generator.

    The defaults describe the demo trace used by the ``serve``
    experiment and CLI: four tenants submitting mostly-private jobs
    over three small zoo workloads, sized so a default per-tenant
    budget of a few epsilon admits the early jobs and rejects or
    truncates the stragglers.
    """

    jobs: int = 60
    seed: int = 7
    #: Mean inter-arrival time of the arrival process, seconds.  The
    #: default loads the demo's 4-cluster fleet to ~40% utilization
    #: with bursty arrivals — enough contention that queueing waits
    #: (and therefore policy choice) are visible in the fleet report.
    #: Every shape is normalized to this long-run mean rate, so
    #: switching shapes changes *when* jobs arrive, not how many.
    mean_interarrival_s: float = 8.0
    #: Arrival-process shape; one of :data:`TRACE_SHAPES`.
    shape: str = "poisson"
    #: Day-length of the diurnal / multiregion sinusoid, seconds.
    diurnal_period_s: float = 3600.0
    #: Relative swing of the diurnal rate: the instantaneous rate is
    #: ``base x (1 + amplitude x sin(...))``, so 0 is flat Poisson and
    #: 1 swings between zero and double the mean rate.
    diurnal_amplitude: float = 0.8
    #: Burst-state arrival rate as a multiple of the calm-state rate.
    burst_rate_ratio: float = 8.0
    #: Long-run fraction of time the bursty process spends bursting.
    burst_fraction: float = 0.1
    #: Mean duration of one burst, seconds.
    burst_mean_s: float = 60.0
    #: Phase-shifted regions of the ``multiregion`` shape; region
    #: ``r`` owns tenants ``{i : i % regions == r}``.
    regions: int = 3
    n_tenants: int = 4
    models: tuple[str, ...] = ("SqueezeNet", "MobileNet", "BERT-base")
    algorithms: tuple[str, ...] = ("DP-SGD(R)", "DP-SGD", "SGD")
    #: Relative draw weights, aligned with ``algorithms``.
    algorithm_weights: tuple[float, ...] = (0.5, 0.3, 0.2)
    batches: tuple[int, ...] = (64, 128, 256)
    #: Inclusive range requested steps are drawn from.
    steps_range: tuple[int, int] = (200, 2000)
    noise_multipliers: tuple[float, ...] = (0.7, 1.0, 1.3)
    dataset_sizes: tuple[int, ...] = (20_000, 50_000)
    tenant_prefix: str = "tenant"

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be positive")
        if self.shape not in TRACE_SHAPES:
            raise ValueError(f"unknown trace shape {self.shape!r}; "
                             f"choose from {TRACE_SHAPES}")
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1], got "
                f"{self.diurnal_amplitude}")
        if self.burst_rate_ratio < 1.0:
            raise ValueError(
                f"burst_rate_ratio must be >= 1, got "
                f"{self.burst_rate_ratio}")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError(
                f"burst_fraction must be in (0, 1), got "
                f"{self.burst_fraction}")
        if self.burst_mean_s <= 0:
            raise ValueError("burst_mean_s must be positive")
        if self.regions < 1:
            raise ValueError(f"regions must be >= 1, got {self.regions}")
        if self.shape == "multiregion" and self.n_tenants < self.regions:
            raise ValueError(
                f"multiregion needs n_tenants >= regions, got "
                f"{self.n_tenants} tenants over {self.regions} regions")
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        for name in ("models", "algorithms", "batches",
                     "noise_multipliers", "dataset_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        weights = self.algorithm_weights
        if len(self.algorithms) != len(weights):
            raise ValueError(
                "algorithms and algorithm_weights must align")
        if not all(math.isfinite(w) and w >= 0 for w in weights) \
                or sum(weights) <= 0:
            raise ValueError(
                "algorithm_weights must be finite, >= 0 and not all "
                f"zero, got {weights}")
        lo, hi = self.steps_range
        if not 1 <= lo <= hi:
            raise ValueError(
                f"steps_range must satisfy 1 <= lo <= hi, got {lo, hi}")
        unknown = set(self.algorithms) - set(JOB_ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}; "
                             f"choose from {JOB_ALGORITHMS}")
        if any(batch < 1 for batch in self.batches):
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if any(size < 1 for size in self.dataset_sizes):
            raise ValueError(
                f"dataset_sizes must be >= 1, got {self.dataset_sizes}")
        if set(self.algorithms) - {"SGD"} \
                and any(sigma <= 0 for sigma in self.noise_multipliers):
            raise ValueError(
                "noise_multipliers must be > 0 for a private mix, got "
                f"{self.noise_multipliers}")

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(f"{self.tenant_prefix}-{i}"
                     for i in range(self.n_tenants))


def _bursty_rates(config: TraceConfig) -> tuple[float, float]:
    """(calm, burst) arrival rates whose time-average is the mean rate.

    Solves ``f x burst + (1 - f) x calm = 1 / mean_interarrival`` with
    ``burst = ratio x calm``, so the MMPP delivers the same long-run
    job count as the Poisson shape.
    """
    base_hz = 1.0 / config.mean_interarrival_s
    fraction = config.burst_fraction
    calm_hz = base_hz / (1.0 - fraction
                         + fraction * config.burst_rate_ratio)
    return calm_hz, calm_hz * config.burst_rate_ratio


def _region_tenants(config: TraceConfig, region: int) -> tuple[str, ...]:
    """Tenants owned by ``region``: every ``regions``-th index."""
    return config.tenants[region::config.regions]


@dataclass(frozen=True)
class TraceArrays:
    """A job trace as a struct of NumPy arrays (one entry per job).

    ~50 bytes per job, and the only trace representation the fleet
    simulator (:func:`repro.serve.scheduler.simulate_fleet_streaming`)
    and the batched admission controller consume.  ``tenant`` / ``model`` /
    ``algorithm`` are indices into the ``tenants`` / ``models`` /
    ``algorithms`` vocabularies; job ids are implicit array positions
    and arrivals are nondecreasing.
    """

    tenants: tuple[str, ...]
    models: tuple[str, ...]
    algorithms: tuple[str, ...]
    arrival_s: NDArray[Any]
    tenant: NDArray[Any]
    model: NDArray[Any]
    algorithm: NDArray[Any]
    batch: NDArray[Any]
    steps: NDArray[Any]
    noise_multiplier: NDArray[Any]
    dataset_size: NDArray[Any]

    def __post_init__(self) -> None:
        lengths = sorted({len(value) for value in vars(self).values()
                          if isinstance(value, np.ndarray)})
        if len(lengths) > 1:
            raise ValueError(f"trace columns differ in length: {lengths}")
        # The simulator's queues order jobs by array position.
        if not np.all(self.arrival_s[1:] >= self.arrival_s[:-1]):
            raise ValueError("arrival_s must be nondecreasing")

    def __len__(self) -> int:
        return self.arrival_s.shape[0]

    @property
    def is_private(self) -> NDArray[Any]:
        """Boolean mask of jobs that draw on a privacy budget."""
        sgd = np.array([name == "SGD" for name in self.algorithms])
        return ~sgd[self.algorithm]

    @property
    def sampling_rate(self) -> NDArray[Any]:
        """Per-job Poisson sampling rate ``min(1, batch / dataset)``."""
        return np.minimum(1.0, self.batch / self.dataset_size)


def _thinned_arrivals_array(config: TraceConfig, rng: np.random.Generator,
                            jobs: int, *, base_hz: float, phase: float
                            ) -> NDArray[Any]:
    """``jobs`` diurnal arrival times by chunked Lewis-Shedler thinning.

    Candidates stream at the peak rate in chunks; each keeps with
    probability ``rate(t) / peak`` (Lewis-Shedler's accept test).
    """
    peak_hz = base_hz * (1.0 + config.diurnal_amplitude)
    kept: list[NDArray[Any]] = [np.zeros(0)]
    have = 0
    clock = 0.0
    while have < jobs:
        chunk = max(1024, 2 * (jobs - have))
        times = clock + np.cumsum(rng.exponential(1.0 / peak_hz, chunk))
        rate = base_hz * (1.0 + config.diurnal_amplitude * np.sin(
            2.0 * np.pi * (times / config.diurnal_period_s + phase)))
        accepted = times[rng.random(chunk) * peak_hz <= rate]
        kept.append(accepted)
        have += accepted.shape[0]
        clock = float(times[-1])
    return np.concatenate(kept)[:jobs]


def _bursty_arrivals_array(config: TraceConfig, rng: np.random.Generator,
                           jobs: int) -> NDArray[Any]:
    """``jobs`` MMPP arrival times, one sojourn interval at a time.

    Conditioned on a sojourn, arrivals are a Poisson count placed
    uniformly in the interval — equivalent in law to racing the
    arrival and state-switch exponentials, and vectorized per
    interval.
    """
    calm_hz, burst_hz = _bursty_rates(config)
    fraction = config.burst_fraction
    calm_mean_s = config.burst_mean_s * (1.0 - fraction) / fraction
    kept: list[NDArray[Any]] = [np.zeros(0)]
    have = 0
    clock = 0.0
    in_burst = False
    while have < jobs:
        mean_s = config.burst_mean_s if in_burst else calm_mean_s
        rate_hz = burst_hz if in_burst else calm_hz
        duration_s = rng.exponential(mean_s)
        count = int(rng.poisson(rate_hz * duration_s))
        if count:
            kept.append(clock + np.sort(rng.random(count)) * duration_s)
            have += count
        clock += duration_s
        in_burst = not in_burst
    return np.concatenate(kept)[:jobs]


def _multiregion_arrivals_array(
    config: TraceConfig, rng: np.random.Generator, jobs: int,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """(arrival, region) arrays for the superposed multiregion shape.

    Each region contributes ``jobs`` candidates (enough that the
    merged first ``jobs`` are exact); a stable merge keeps ties
    deterministic.
    """
    regions = config.regions
    base_hz = 1.0 / config.mean_interarrival_s / regions
    times = [_thinned_arrivals_array(config, rng, jobs, base_hz=base_hz,
                                     phase=region / regions)
             for region in range(regions)]
    merged = np.concatenate(times)
    labels = np.repeat(np.arange(regions, dtype=np.int32), jobs)
    order = np.argsort(merged, kind="stable")[:jobs]
    return merged[order], labels[order]


def generate_trace_arrays(config: TraceConfig = TraceConfig()
                          ) -> TraceArrays:
    """Vectorized synthetic trace generation, straight into arrays.

    One NumPy pass per job attribute — Poisson arrivals are a
    ``cumsum`` over exponential inter-arrival draws, the job mix is a
    weighted categorical draw — so million-job traces generate in
    tens of milliseconds at a flat ~50 bytes/job.  Every
    :data:`TRACE_SHAPES` entry has a vectorized sampler here (chunked
    thinning for diurnal, per-sojourn Poisson counts for bursty, a
    stable ``regions``-way merge for multiregion).  Deterministic in
    ``config.seed`` (PCG64).
    """
    rng = np.random.default_rng(config.seed)
    jobs = config.jobs
    weights = np.asarray(config.algorithm_weights, dtype=float)
    region: NDArray[Any] | None = None
    if config.shape == "poisson":
        arrival = np.cumsum(
            rng.exponential(config.mean_interarrival_s, jobs))
    elif config.shape == "diurnal":
        arrival = _thinned_arrivals_array(
            config, rng, jobs,
            base_hz=1.0 / config.mean_interarrival_s, phase=0.0)
    elif config.shape == "bursty":
        arrival = _bursty_arrivals_array(config, rng, jobs)
    else:  # multiregion
        arrival, region = _multiregion_arrivals_array(config, rng, jobs)
    if region is None:
        tenant = rng.integers(0, config.n_tenants, jobs, dtype=np.int32)
    else:
        # Region r owns tenants {i : i % regions == r}; draw uniformly
        # within the arrival's region slice.
        counts = np.array(
            [len(_region_tenants(config, r))
             for r in range(config.regions)], dtype=np.int64)
        offset = np.floor(rng.random(jobs) * counts[region])
        tenant = (region
                  + config.regions * offset.astype(np.int32)).astype(
                      np.int32)
    return TraceArrays(
        tenants=config.tenants,
        models=tuple(config.models),
        algorithms=tuple(config.algorithms),
        arrival_s=arrival,
        tenant=tenant,
        model=rng.integers(0, len(config.models), jobs, dtype=np.int32),
        algorithm=rng.choice(
            len(config.algorithms), size=jobs,
            p=weights / weights.sum()).astype(np.int32),
        batch=rng.choice(np.asarray(config.batches, dtype=np.int64),
                         size=jobs),
        steps=rng.integers(config.steps_range[0],
                           config.steps_range[1] + 1, jobs,
                           dtype=np.int64),
        noise_multiplier=rng.choice(
            np.asarray(config.noise_multipliers, dtype=float), size=jobs),
        dataset_size=rng.choice(
            np.asarray(config.dataset_sizes, dtype=np.int64), size=jobs),
    )

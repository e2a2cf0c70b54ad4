"""A fleet trace one job object at a time, for the oracles.

The fleet simulator reads only array traces
(:class:`repro.serve.TraceArrays`).  The naive reference loop
(``test_fleet_oracle.reference_fleet``) and the scalar admission
(``admission_oracle.ScalarAdmission``) read one :class:`TrainingJob`
at a time, so this module keeps that job object, its one-job
step-latency prediction and the conversions between a job list and
arrays.  :func:`observed_run` gives a test the per-job lifecycle of
one array run.  Nothing under ``src/`` imports this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import FleetObs, MetricsRegistry
from repro.obs.fleet import job_columns
from repro.serve import (
    JOB_ALGORITHMS,
    TraceArrays,
    scheduler,
    simulate_fleet_streaming,
)


@dataclass(frozen=True)
class TrainingJob:
    """One tenant's training request: one row of a :class:`TraceArrays`.

    ``job_id`` is unique within a trace; every scheduling policy breaks
    ties on ``(arrival_s, job_id)``.  The Poisson sampling rate is
    ``batch / dataset_size``, capped at 1; ``noise_multiplier`` is
    ignored for non-private ``"SGD"`` jobs.
    """

    job_id: int
    tenant: str
    model: str
    algorithm: str
    batch: int
    steps: int
    noise_multiplier: float
    dataset_size: int
    arrival_s: float

    def __post_init__(self):
        if self.algorithm not in JOB_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {JOB_ALGORITHMS}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.dataset_size < 1:
            raise ValueError(
                f"dataset_size must be >= 1, got {self.dataset_size}")
        if self.arrival_s < 0:
            raise ValueError(
                f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.is_private and self.noise_multiplier <= 0:
            raise ValueError(
                "private jobs need a positive noise multiplier, got "
                f"{self.noise_multiplier}")

    @property
    def is_private(self):
        return self.algorithm != "SGD"

    @property
    def sampling_rate(self):
        return min(1.0, self.batch / self.dataset_size)


def to_arrays(jobs):
    """``jobs`` as arrays, in ``(arrival_s, job_id)`` order.

    The simulator's job ids are array positions, so a caller keeps the
    sorted list to map a position back to its own id.
    """
    jobs = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
    tenants = tuple(dict.fromkeys(j.tenant for j in jobs))
    models = tuple(dict.fromkeys(j.model for j in jobs))
    algorithms = tuple(dict.fromkeys(j.algorithm for j in jobs))

    def codes(names, field):
        index = {name: i for i, name in enumerate(names)}
        return np.array([index[getattr(j, field)] for j in jobs],
                        dtype=np.int32)

    def column(field, dtype):
        return np.array([getattr(j, field) for j in jobs], dtype=dtype)

    return TraceArrays(
        tenants=tenants, models=models, algorithms=algorithms,
        arrival_s=column("arrival_s", float),
        tenant=codes(tenants, "tenant"), model=codes(models, "model"),
        algorithm=codes(algorithms, "algorithm"),
        batch=column("batch", np.int64), steps=column("steps", np.int64),
        noise_multiplier=column("noise_multiplier", float),
        dataset_size=column("dataset_size", np.int64))


def jobs_of(trace):
    """One :class:`TrainingJob` per row of ``trace``, id = position."""
    return tuple(
        TrainingJob(
            job_id=i,
            tenant=trace.tenants[trace.tenant[i]],
            model=trace.models[trace.model[i]],
            algorithm=trace.algorithms[trace.algorithm[i]],
            batch=int(trace.batch[i]),
            steps=int(trace.steps[i]),
            noise_multiplier=float(trace.noise_multiplier[i]),
            dataset_size=int(trace.dataset_size[i]),
            arrival_s=float(trace.arrival_s[i]))
        for i in range(len(trace)))


def predict_step_seconds(fleet, job, cache=None):
    """Step latency of ``job`` on one of ``fleet``'s clusters.

    The batch rounds up to a multiple of the cluster's data-parallel
    width, as the simulator's service table rounds it, and is priced
    through the scheduler's own batched table (so a test that patches
    the scheduler's prices patches these too).
    """
    batch = math.ceil(job.batch / fleet.dp) * fleet.dp
    return float(scheduler.predict_step_seconds_batch(
        fleet, [job.model], [job.algorithm], [batch], cache)[0])


def observed_run(trace, fleet, **kwargs):
    """``(report, JobColumns)`` of one array run of ``trace``.

    The run is observed, so its per-job columns (admission, first
    start, final finish) are the ones its export would read.
    """
    obs = FleetObs(metrics=MetricsRegistry())
    report = simulate_fleet_streaming(trace, fleet, obs=obs, **kwargs)
    run = obs._run
    return report, job_columns(run["trace"], run["decisions"],
                               run["service"], obs.starts, obs.finishes)

"""Seed-determinism and statistical sanity of the trace shapes.

Every arrival shape in :data:`repro.serve.TRACE_SHAPES` must be a
*seeded deterministic* sampler (same config, same trace — the
differential fleet tests depend on it) whose long-run arrival rate
matches the configured ``1 / mean_interarrival_s`` — the shapes
redistribute arrivals in time, they do not change how many there are.
Shape-specific signatures (diurnal peak/trough contrast, bursty
overdispersion, multiregion tenant partitioning) are pinned too, so a
generator that quietly degenerates to plain Poisson fails loudly.
"""

import numpy as np
import pytest

from repro.serve import (
    TRACE_SHAPES,
    TraceConfig,
    generate_trace_arrays,
)

from job_oracle import jobs_of

#: Enough arrivals that empirical rates settle within the tolerance
#: below for every shape (bursty converges slowest: the rate estimate
#: mixes at the sojourn, not the arrival, timescale).
_JOBS = 20_000
_RATE_TOLERANCE = 0.15


def _shape_config(shape: str, seed: int = 7) -> TraceConfig:
    return TraceConfig(jobs=_JOBS, seed=seed, shape=shape,
                       mean_interarrival_s=2.0,
                       diurnal_period_s=1200.0,
                       burst_mean_s=20.0)


class TestSeedDeterminism:
    @pytest.mark.parametrize("shape", TRACE_SHAPES)
    def test_scalar_same_seed_identical(self, shape):
        # Every column of every job, through the job-object view.
        config = TraceConfig(jobs=300, seed=11, shape=shape)
        assert jobs_of(generate_trace_arrays(config)) \
            == jobs_of(generate_trace_arrays(config))

    @pytest.mark.parametrize("shape", TRACE_SHAPES)
    def test_arrays_same_seed_identical(self, shape):
        config = TraceConfig(jobs=3000, seed=11, shape=shape)
        a = generate_trace_arrays(config)
        b = generate_trace_arrays(config)
        np.testing.assert_array_equal(a.arrival_s, b.arrival_s)
        np.testing.assert_array_equal(a.tenant, b.tenant)
        np.testing.assert_array_equal(a.model, b.model)
        np.testing.assert_array_equal(a.steps, b.steps)

    @pytest.mark.parametrize("shape", TRACE_SHAPES)
    def test_seed_changes_stream(self, shape):
        a = generate_trace_arrays(
            TraceConfig(jobs=500, seed=1, shape=shape))
        b = generate_trace_arrays(
            TraceConfig(jobs=500, seed=2, shape=shape))
        assert not np.array_equal(a.arrival_s, b.arrival_s)

    @pytest.mark.parametrize("shape", TRACE_SHAPES)
    def test_arrivals_nondecreasing_and_positive(self, shape):
        arrivals = generate_trace_arrays(
            TraceConfig(jobs=500, seed=3, shape=shape)).arrival_s
        assert arrivals.shape == (500,)
        assert arrivals[0] > 0.0
        assert (np.diff(arrivals) >= 0.0).all()

    @pytest.mark.parametrize("shape", TRACE_SHAPES)
    def test_empty_trace(self, shape):
        assert len(generate_trace_arrays(TraceConfig(jobs=0,
                                                     shape=shape))) == 0


class TestStatisticalSanity:
    @pytest.mark.parametrize("shape", TRACE_SHAPES)
    @pytest.mark.parametrize("generator", ("arrays",))
    def test_empirical_rate_matches_configured(self, shape, generator):
        config = _shape_config(shape)
        arrivals = generate_trace_arrays(config).arrival_s
        empirical_mean = arrivals[-1] / len(arrivals)
        assert empirical_mean == pytest.approx(
            config.mean_interarrival_s, rel=_RATE_TOLERANCE)

    def test_diurnal_peak_trough_contrast(self):
        """Arrivals crowd the rate peak and thin out at the trough."""
        config = _shape_config("diurnal")
        arrivals = generate_trace_arrays(config).arrival_s
        phase = np.mod(arrivals / config.diurnal_period_s, 1.0)
        # sin peaks at phase 0.25, troughs at 0.75.
        peak = np.sum(np.abs(phase - 0.25) < 0.125)
        trough = np.sum(np.abs(phase - 0.75) < 0.125)
        expected = (1.0 + config.diurnal_amplitude) \
            / (1.0 - config.diurnal_amplitude)
        ratio = peak / trough
        assert ratio > 1.0 + (expected - 1.0) / 3.0

    def test_bursty_is_overdispersed(self):
        """Windowed counts far exceed Poisson variance (CV > 1)."""
        config = _shape_config("bursty")
        arrivals = generate_trace_arrays(config).arrival_s
        window_s = config.burst_mean_s
        counts = np.bincount((arrivals / window_s).astype(int))
        poisson_config = _shape_config("poisson")
        poisson_arrivals = generate_trace_arrays(poisson_config).arrival_s
        poisson_counts = np.bincount(
            (poisson_arrivals / window_s).astype(int))
        bursty_dispersion = counts.var() / counts.mean()
        poisson_dispersion = poisson_counts.var() / poisson_counts.mean()
        assert poisson_dispersion < 2.0  # sanity: Poisson index ~ 1
        assert bursty_dispersion > 2.0 * poisson_dispersion

    def test_multiregion_partitions_tenants(self):
        """Tenant i belongs to region i % regions."""
        config = _shape_config("multiregion")
        arrays = generate_trace_arrays(config)
        assert set(np.unique(arrays.tenant)) <= set(
            range(config.n_tenants))
        six = generate_trace_arrays(TraceConfig(
            jobs=2000, seed=5, shape="multiregion", n_tenants=6,
            regions=3))
        seen = {six.tenants[code] for code in np.unique(six.tenant)}
        assert seen == {f"tenant-{i}" for i in range(6)}

    def test_multiregion_total_rate_flat(self):
        """Evenly spaced phases superpose to a near-constant rate."""
        config = _shape_config("multiregion")
        arrivals = generate_trace_arrays(config).arrival_s
        phase = np.mod(arrivals / config.diurnal_period_s, 1.0)
        quarters = np.bincount((phase * 4).astype(int), minlength=4)
        # A single diurnal stream at amplitude 0.8 would load its peak
        # quarter ~3x its trough quarter; superposition flattens that.
        assert quarters.max() < 1.5 * quarters.min()


class TestShapeValidation:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TraceConfig(shape="weekly")

    def test_multiregion_needs_enough_tenants(self):
        with pytest.raises(ValueError, match="regions"):
            TraceConfig(shape="multiregion", n_tenants=2, regions=3)

    @pytest.mark.parametrize("field,value", [
        ("algorithms", ("SGD", "DP-SGD", "Adam")),
        ("batches", (64, 0)),
        ("dataset_sizes", (0,)),
        ("noise_multipliers", (1.0, 0.0)),
        ("noise_multipliers", (-1.0,)),
        ("models", ()),
        ("algorithms", ()),
        ("batches", ()),
        ("dataset_sizes", ()),
        ("noise_multipliers", ()),
        ("algorithm_weights", (0.5, -0.5, 1.0)),
        ("algorithm_weights", (0.5, float("nan"), 1.0)),
        ("algorithm_weights", (0.5, float("inf"), 1.0)),
        ("algorithm_weights", (0.0, 0.0, 0.0)),
    ])
    def test_bad_job_mix_rejected(self, field, value):
        overrides = {field: value}
        if field == "algorithms":  # weights stay aligned with the list
            overrides["algorithm_weights"] = (1.0,) * len(value)
        with pytest.raises(ValueError, match=field):
            TraceConfig(**overrides)

    def test_non_private_mix_ignores_noise(self):
        TraceConfig(algorithms=("SGD",), algorithm_weights=(1.0,),
                    noise_multipliers=(0.0,))

    @pytest.mark.parametrize("field,value", [
        ("diurnal_period_s", 0.0),
        ("diurnal_amplitude", 1.5),
        ("burst_rate_ratio", 0.5),
        ("burst_fraction", 0.0),
        ("burst_fraction", 1.0),
        ("burst_mean_s", -1.0),
        ("regions", 0),
    ])
    def test_bad_shape_knobs_rejected(self, field, value):
        with pytest.raises(ValueError):
            TraceConfig(**{field: value})

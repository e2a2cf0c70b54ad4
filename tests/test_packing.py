"""Tests for the spatial GEMM-packing extension (repro.core.packing)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import Accelerator
from repro.arch.batch import gemm_stats_batch
from repro.arch.engine import ArrayConfig
from repro.core import build_accelerator
from repro.core.outer_product import OuterProductEngine
from repro.core.packing import (
    PackedOuterProductEngine,
    packing_overhead_fraction,
)
from repro.training import (
    Algorithm,
    simulate_training_step,
    training_step_batch,
)
from repro.training.batch import _PHASE_INDEX
from repro.workloads import build_model
from repro.workloads.gemms import Gemm


class TestPackingFactor:
    engine = PackedOuterProductEngine(bus_segments=4)

    def test_single_instance_never_packs(self):
        assert self.engine.packing_factor(Gemm(16, 8, 16)) == 1

    def test_full_array_instance_never_packs(self):
        assert self.engine.packing_factor(Gemm(128, 8, 128, count=32)) == 1

    def test_quarter_array_packs_four(self):
        assert self.engine.packing_factor(Gemm(64, 8, 64, count=32)) == 4

    def test_bounded_by_segments(self):
        assert self.engine.packing_factor(Gemm(8, 8, 8, count=1000)) == 4

    def test_bounded_by_count(self):
        assert self.engine.packing_factor(Gemm(8, 8, 8, count=3)) == 3

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            PackedOuterProductEngine(bus_segments=0)


class TestPackedStats:
    def test_packing_reduces_cycles(self):
        base = OuterProductEngine()
        packed = PackedOuterProductEngine(bus_segments=4)
        g = Gemm(9, 16, 1, count=512)  # MobileNet-style sliver GEMMs
        assert (packed.gemm_stats(g).compute_cycles
                < base.gemm_stats(g).compute_cycles / 2)

    def test_unpacked_shapes_identical_to_base(self):
        base = OuterProductEngine()
        packed = PackedOuterProductEngine(bus_segments=4)
        g = Gemm(128, 64, 128, count=8)
        assert (packed.gemm_stats(g).compute_cycles
                == base.gemm_stats(g).compute_cycles)

    def test_macs_preserved(self):
        packed = PackedOuterProductEngine(bus_segments=8)
        g = Gemm(16, 4, 16, count=100)
        assert packed.gemm_stats(g).macs == g.macs

    def test_sram_traffic_preserved(self):
        """Packing changes time, not data volume."""
        base = OuterProductEngine()
        packed = PackedOuterProductEngine(bus_segments=4)
        g = Gemm(16, 4, 16, count=100)
        assert (packed.gemm_stats(g).sram_read_bytes
                == base.gemm_stats(g).sram_read_bytes)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 128), k=st.integers(1, 64),
           n=st.integers(1, 128), count=st.integers(1, 64),
           segments=st.integers(1, 8))
    def test_utilization_bounded_and_no_worse(self, m, k, n, count,
                                              segments):
        base = OuterProductEngine()
        packed = PackedOuterProductEngine(bus_segments=segments)
        g = Gemm(m, k, n, count=count)
        base_stats = base.gemm_stats(g)
        packed_stats = packed.gemm_stats(g)
        assert 0.0 < packed_stats.utilization <= 1.0
        assert packed_stats.compute_cycles <= base_stats.compute_cycles


class TestBatchedPricing:
    """The batched evaluators price packed GEMMs exactly as the scalar
    engine and the scalar step driver do."""

    #: m, k, n, count grids around the packing thresholds (quarter- and
    #: sub-array footprints, counts below and above the segment count).
    DIMS = list(itertools.product((1, 4, 9, 64, 130), (1, 16, 64),
                                  (1, 4, 32, 128), (1, 3, 32, 100)))

    @pytest.mark.parametrize("segments", (1, 4, 8))
    def test_batched_equals_scalar(self, segments):
        engine = PackedOuterProductEngine(bus_segments=segments)
        m, k, n, count = (np.array(column) for column in zip(*self.DIMS))
        batch = gemm_stats_batch(engine, m, k, n, count)
        for i, dims in enumerate(self.DIMS):
            scalar = engine.gemm_stats_reference(Gemm(*dims))
            for field in ("compute_cycles", "macs", "tiles",
                          "sram_read_bytes", "sram_write_bytes"):
                assert int(getattr(batch, field)[i]) \
                    == getattr(scalar, field), (segments, dims, field)

    @pytest.mark.parametrize("algorithm",
                             (Algorithm.DP_SGD, Algorithm.DP_SGD_R))
    def test_training_step_batch_equals_scalar(self, algorithm):
        base = build_accelerator("diva")
        packed = Accelerator("DiVa-Pack", PackedOuterProductEngine(
            base.config), ppu=base.ppu)
        network = build_model("MobileNet")
        batches = (1, 8, 32)
        step = training_step_batch(
            [(packed, network, algorithm, batch) for batch in batches])
        for i, batch in enumerate(batches):
            report = simulate_training_step(network, algorithm, packed,
                                            batch)
            assert int(step.total_cycles[i]) == report.total_cycles
            for phase, run in report.phases.items():
                assert int(step.phase_cycles[i, _PHASE_INDEX[phase]]) \
                    == run.cycles, (batch, phase)


class TestOverheadModel:
    def test_one_segment_free(self):
        assert packing_overhead_fraction(1) == 0.0

    def test_grows_with_segments(self):
        assert (packing_overhead_fraction(8)
                > packing_overhead_fraction(2) > 0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            packing_overhead_fraction(0)


class TestAblationExperiment:
    def test_drain_rate_monotone(self):
        from repro.experiments.ablation import drain_rate_sweep

        points = drain_rate_sweep("SqueezeNet", rates=(2, 8))
        assert points[1].speedup_vs_ws > points[0].speedup_vs_ws

    def test_packing_study_mobilenet(self):
        from repro.experiments.ablation import packing_study

        result = packing_study("MobileNet", segments=4)
        assert result.improvement > 2.0
        assert result.area_overhead_fraction == pytest.approx(0.06)

"""Tests for the memory system, vector unit and PPU models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import step_oracle
from repro.arch.memory import MemoryConfig, MemorySystem
from repro.arch.vector import VectorUnitConfig
from repro.core import build_accelerator
from repro.core.ppu import PostProcessingUnit, PpuConfig


class TestMemorySystem:
    def test_defaults_match_table2(self):
        cfg = MemoryConfig()
        assert cfg.bandwidth_bytes_per_s == 450e9
        assert cfg.access_latency_cycles == 100
        assert cfg.channels == 16
        assert cfg.sram_bytes == 16 * 2**20

    def test_bytes_per_cycle(self):
        mem = MemorySystem(frequency_hz=940e6)
        assert mem.bytes_per_cycle == pytest.approx(450e9 / 940e6)

    def test_zero_bytes_zero_cycles(self):
        mem = MemorySystem()
        assert step_oracle.transfer_cycles(mem, 0) == 0
        assert step_oracle.transfer_cycles(mem, -5) == 0

    def test_latency_added_once(self):
        mem = MemorySystem()
        assert step_oracle.transfer_cycles(mem, 1) == 1 + 100

    @given(num_bytes=st.integers(1, 10**10))
    def test_transfer_monotone(self, num_bytes):
        mem = MemorySystem()
        assert (step_oracle.transfer_cycles(mem, num_bytes)
                <= step_oracle.transfer_cycles(mem, num_bytes + 1000))

    def test_seconds(self):
        mem = MemorySystem(frequency_hz=1e9)
        cycles = step_oracle.transfer_cycles(mem, 450_000)
        assert step_oracle.seconds(mem, 450_000) == pytest.approx(cycles / 1e9)

    def test_fits_in_sram(self):
        mem = MemorySystem()
        assert step_oracle.fits_in_sram(mem, 16 * 2**20)
        assert not step_oracle.fits_in_sram(mem, 16 * 2**20 + 1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MemoryConfig(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            MemoryConfig(sram_bytes=0)


def _vector_cycles(elems, reduction=False):
    """Vector-unit cycles ``Accelerator.vector_charges`` charges one
    single-op kernel per entry of ``elems`` (a TPUv3-like vector unit,
    no DRAM traffic)."""
    accel = build_accelerator("ws")
    elems = np.asarray(elems, dtype=np.int64)
    zero = np.zeros_like(elems)
    charges = accel.vector_charges(
        elems, np.ones(len(elems)), zero, zero,
        np.full(len(elems), reduction))
    return charges.vector_cycles.tolist()


class TestVectorUnit:
    def test_ops_per_cycle(self):
        assert VectorUnitConfig().ops_per_cycle == 128 * 8

    def test_elementwise_cycles(self):
        assert _vector_cycles([1024, 1025]) == [1, 2]

    def test_zero_elems(self):
        assert _vector_cycles([0]) == [0]
        assert _vector_cycles([0], reduction=True) == [0]

    def test_reduction_overhead(self):
        """Reductions pay the permute overhead (Section IV-C)."""
        elems = [100_000]
        assert _vector_cycles(elems, reduction=True) \
            == [2 * cycles for cycles in _vector_cycles(elems)]

    @given(elems=st.integers(1, 10**8))
    def test_cycles_positive(self, elems):
        assert _vector_cycles([elems]) >= [1]


class TestPpu:
    def test_levels_for_128(self):
        """A 128-wide tree has log2(128) = 7 levels (Figure 11)."""
        assert PpuConfig().levels == 7

    def test_sustainable_bandwidth_matches_paper(self):
        """Section IV-C: 940 MHz x 8 rows x 128 elems x 4 B = 3.85 TB/s."""
        ppu = PpuConfig()
        assert ppu.sustainable_bytes_per_s == pytest.approx(3.85e12, rel=0.01)

    def test_elements_per_cycle(self):
        assert PpuConfig().elements_per_cycle == 8 * 128

    def test_matches_drain_rate(self):
        ppu = PostProcessingUnit()
        assert ppu.matches_drain_rate(8, 128)
        assert not ppu.matches_drain_rate(16, 128)
        assert not ppu.matches_drain_rate(8, 256)

    def test_flush_includes_tree_depth(self):
        ppu = PostProcessingUnit()
        assert ppu.flush_cycles() >= 7

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PpuConfig(tree_width=1)
        with pytest.raises(ValueError):
            PpuConfig(num_trees=0)

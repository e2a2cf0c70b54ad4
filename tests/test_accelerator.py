"""Tests for the Accelerator composition (repro.arch.accelerator)."""

import pytest

import step_oracle
from repro.arch.accelerator import OpRun
from repro.core import build_accelerator
from repro.workloads.gemms import Gemm


class TestOpRun:
    def test_zero_identity(self):
        run = OpRun(cycles=10, macs=5, dram_read_bytes=3)
        merged = run + OpRun.zero()
        assert merged == run

    def test_add_fields(self):
        a = OpRun(cycles=1, compute_cycles=2, vector_cycles=3, ppu_cycles=4,
                  macs=5, vector_ops=6, dram_read_bytes=7,
                  dram_write_bytes=8, sram_read_bytes=9, sram_write_bytes=10)
        b = a + a
        assert b.cycles == 2
        assert b.ppu_cycles == 8
        assert b.sram_write_bytes == 20

    def test_dram_bytes(self):
        run = OpRun(dram_read_bytes=3, dram_write_bytes=4)
        assert run.dram_bytes == 7


class TestRunGemm:
    def test_traffic_accounting(self):
        accel = build_accelerator("ws")
        g = Gemm(100, 50, 60)
        run = accel.run_gemm(g)
        ib, ob = accel.config.input_bytes, accel.config.acc_bytes
        assert run.dram_read_bytes == (100 * 50 + 50 * 60) * ib
        assert run.dram_write_bytes == 100 * 60 * ob
        assert run.macs == g.macs

    def test_skip_operand_reads(self):
        accel = build_accelerator("ws")
        g = Gemm(100, 50, 60)
        run = accel.run_gemm(g, write_output=False)
        assert run.dram_write_bytes == 0

    def test_latency_is_max_of_compute_and_memory(self):
        accel = build_accelerator("ws")
        g = Gemm(16, 16, 16)  # tiny compute, memory-latency bound
        run = accel.run_gemm(g)
        assert run.cycles == max(
            run.compute_cycles,
            step_oracle.transfer_cycles(accel.memory, run.dram_bytes),
        )

    def test_memory_bound_gemm(self):
        """A skinny GEMM with huge operands is DRAM-limited."""
        accel = build_accelerator("diva")
        g = Gemm(128, 1, 128, count=2000)
        run = accel.run_gemm(g)
        assert run.cycles > run.compute_cycles

    def test_count_scales_traffic(self):
        accel = build_accelerator("diva")
        one = accel.run_gemm(Gemm(64, 8, 64))
        many = accel.run_gemm(Gemm(64, 8, 64, count=4))
        assert many.dram_read_bytes == 4 * one.dram_read_bytes


class TestFuseNorm:
    def test_ws_cannot_fuse(self):
        accel = build_accelerator("ws")
        assert not accel.can_fuse_norm
        with pytest.raises(ValueError, match="fuse"):
            accel.run_gemm(Gemm(8, 8, 8), fuse_norm=True)

    def test_os_without_ppu_cannot_fuse(self):
        accel = build_accelerator("os", with_ppu=False)
        assert not accel.can_fuse_norm

    def test_diva_with_ppu_fuses(self):
        accel = build_accelerator("diva", with_ppu=True)
        assert accel.can_fuse_norm

    def test_fused_gemm_emits_norms_not_gradients(self):
        """The 99%-traffic-reduction mechanism (Section IV-C)."""
        accel = build_accelerator("diva", with_ppu=True)
        g = Gemm(576, 16, 512, count=32)
        spilled = accel.run_gemm(g, write_output=True, fuse_norm=False)
        fused = accel.run_gemm(g, write_output=False, fuse_norm=True)
        assert fused.dram_write_bytes == 32 * accel.config.acc_bytes
        assert spilled.dram_write_bytes == g.out_elems * 4
        assert fused.dram_write_bytes < spilled.dram_write_bytes / 1000

    def test_fuse_norm_charges_ppu_cycles(self):
        accel = build_accelerator("diva", with_ppu=True)
        run = accel.run_gemm(Gemm(64, 8, 64), fuse_norm=True)
        assert run.ppu_cycles > 0

    def test_unfused_gemm_no_ppu_cycles(self):
        accel = build_accelerator("diva", with_ppu=True)
        run = accel.run_gemm(Gemm(64, 8, 64))
        assert run.ppu_cycles == 0

    def test_fused_ppu_cycles_are_flush_only(self):
        """Regression: the whole GEMM compute was attributed to the PPU,
        inflating PPU utilization/energy breakdowns."""
        accel = build_accelerator("diva", with_ppu=True)
        gemm = Gemm(576, 16, 512, count=32)
        fused = accel.run_gemm(gemm, write_output=False, fuse_norm=True)
        assert fused.ppu_cycles == accel.ppu.flush_cycles() * gemm.count
        assert fused.ppu_cycles < fused.compute_cycles
        # The flush rides on top of the unfused GEMM latency.
        unfused = accel.run_gemm(gemm)
        assert (fused.compute_cycles
                == unfused.compute_cycles + fused.ppu_cycles)


class TestRunVector:
    def test_vector_cycles_tracked(self):
        accel = build_accelerator("ws")
        run = accel.run_vector(10_000)
        assert run.vector_cycles > 0
        assert run.compute_cycles == 0

    def test_memory_bound_vector_op(self):
        accel = build_accelerator("ws")
        run = accel.run_vector(1000, dram_read_bytes=10**9)
        assert run.cycles == step_oracle.transfer_cycles(accel.memory, 10**9)

    def test_reduction_slower_than_elementwise(self):
        accel = build_accelerator("ws")
        fast = accel.run_vector(100_000)
        slow = accel.run_vector(100_000, reduction=True)
        assert slow.vector_cycles > fast.vector_cycles

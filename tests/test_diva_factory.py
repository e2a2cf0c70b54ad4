"""Tests for the accelerator factory and DivaConfig (repro.core)."""

import pytest

from repro.arch.engine import ArrayConfig
from repro.core import (
    ACCELERATOR_KINDS,
    DivaConfig,
    build_accelerator,
)
from repro.core.ppu import PpuConfig


class TestFactory:
    def test_three_kinds(self):
        assert set(ACCELERATOR_KINDS) == {"ws", "os", "diva"}

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            build_accelerator("tpu")

    def test_ws_defaults_no_ppu(self):
        assert build_accelerator("ws").ppu is None

    def test_ws_with_ppu_rejected(self):
        """Section IV-C: WS output granularity cannot feed the PPU."""
        with pytest.raises(ValueError):
            build_accelerator("ws", with_ppu=True)

    def test_os_and_diva_default_ppu(self):
        assert build_accelerator("os").ppu is not None
        assert build_accelerator("diva").ppu is not None

    def test_ppu_ablation(self):
        assert build_accelerator("diva", with_ppu=False).ppu is None

    def test_engine_names(self):
        assert build_accelerator("ws").name == "WS"
        assert build_accelerator("os").name == "OS"
        assert build_accelerator("diva").name == "DiVa"

    def test_case_insensitive(self):
        assert build_accelerator("DiVa").name == "DiVa"

    def test_shared_frequency(self):
        accel = build_accelerator("diva")
        assert accel.frequency_hz == accel.engine.config.frequency_hz


class TestDivaConfig:
    def test_table2_rows(self):
        table = DivaConfig().table2()
        assert table["PE array dimension"] == "128 x 128"
        assert table["PE operating frequency"] == "940 MHz"
        assert table["On-chip SRAM size"] == "16 MB"
        assert table["Number of memory channels"] == "16"
        assert table["Memory bandwidth"] == "450 GB/sec"
        assert table["Memory access latency"] == "100 cycles"

    def test_ppu_must_cover_array_width(self):
        with pytest.raises(ValueError):
            DivaConfig(array=ArrayConfig(width=256),
                       ppu=PpuConfig(tree_width=128))

    def test_custom_array_flows_through(self):
        cfg = DivaConfig(array=ArrayConfig(height=64, width=64))
        accel = build_accelerator("diva", config=cfg)
        assert accel.config.height == 64

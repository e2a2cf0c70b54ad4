"""Tests for the energy/area/power models (repro.energy) — Table III."""

import pytest

from repro.core import build_accelerator
from repro.energy import EnergyModel
from repro.training import Algorithm, simulate_training_step
from repro.workloads import build_model

MODEL = EnergyModel()


class TestTable3Power:
    """Calibration against the paper's synthesis results."""

    def test_ws_power(self):
        assert MODEL.engine_power_w("ws") == pytest.approx(13.4, rel=0.01)

    def test_os_power(self):
        assert MODEL.engine_power_w("os") == pytest.approx(13.6, rel=0.01)

    def test_outer_product_power(self):
        assert MODEL.engine_power_w("diva") == pytest.approx(21.2, rel=0.01)

    def test_ppu_power(self):
        assert MODEL.ppu_power_w() == pytest.approx(2.6, rel=0.01)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            MODEL.engine_power_w("gpu")


class TestTable3Area:
    def test_ws_area(self):
        assert MODEL.engine_area_mm2("ws") == pytest.approx(68.0, rel=0.01)

    def test_os_area(self):
        assert MODEL.engine_area_mm2("os") == pytest.approx(70.0, rel=0.01)

    def test_outer_product_area(self):
        """Outer-product adds ~19.6% over WS (Section VI-B)."""
        diva = MODEL.engine_area_mm2("diva")
        ws = MODEL.engine_area_mm2("ws")
        assert diva / ws == pytest.approx(82.0 / 68.0, rel=0.02)

    def test_ppu_area(self):
        assert MODEL.ppu_area_mm2() == pytest.approx(3.0, rel=0.02)


class TestEngineProfile:
    def test_ratio_columns(self):
        profile = MODEL.engine_profile("diva", effective_tflops=6.6)
        assert profile.tflops_per_watt == pytest.approx(6.6 / 21.19,
                                                        rel=0.01)
        assert profile.tflops_per_mm2 == pytest.approx(6.6 / 82.35,
                                                       rel=0.01)

    def test_no_effective_means_no_ratios(self):
        profile = MODEL.engine_profile("ws")
        assert profile.tflops_per_watt is None
        assert profile.tflops_per_mm2 is None


class TestTrainingEnergy:
    def _report(self, kind, with_ppu):
        net = build_model("SqueezeNet")
        accel = (build_accelerator("ws") if kind == "ws"
                 else build_accelerator(kind, with_ppu=with_ppu))
        return simulate_training_step(net, Algorithm.DP_SGD_R, accel, 32)

    def test_components_positive(self):
        energy = MODEL.training_energy(self._report("ws", False), "ws")
        assert energy.engine_j > 0
        assert energy.dram_j > 0
        assert energy.sram_j > 0
        assert energy.total_j == pytest.approx(
            energy.engine_j + energy.ppu_j + energy.vector_j
            + energy.sram_j + energy.dram_j)

    def test_no_ppu_energy_without_ppu(self):
        energy = MODEL.training_energy(self._report("diva", False), "diva")
        assert energy.ppu_j == 0.0

    def test_ppu_energy_when_fused(self):
        energy = MODEL.training_energy(self._report("diva", True), "diva")
        assert energy.ppu_j > 0.0

    def test_diva_saves_energy_vs_ws(self):
        """Figure 16's headline: lower energy despite higher power."""
        ws = MODEL.training_energy(self._report("ws", False), "ws")
        diva = MODEL.training_energy(self._report("diva", True), "diva")
        assert diva.total_j < ws.total_j / 1.5

    def test_dram_savings_from_ppu(self):
        spill = MODEL.training_energy(self._report("ws", False), "ws")
        fused = MODEL.training_energy(self._report("diva", True), "diva")
        assert fused.dram_j < spill.dram_j / 2


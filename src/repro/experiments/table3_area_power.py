"""Table III: power, area and effective throughput per GEMM engine.

Paper values (65 nm, 940 MHz, 16384 MACs): 13.4 / 13.6 / 21.2 W and
68 / 70 / 82 mm^2 for WS / OS / outer-product; effective TFLOPS of
1.2 / 0.9 / 6.6 on the DP workloads, giving DiVa 3.5x TFLOPS/W and
4.6x TFLOPS/mm^2 over WS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy import EnergyModel, EngineProfile
from repro.experiments.common import (
    all_models,
    default_batch,
    get_accelerator,
)
from repro.experiments.report import format_table, mean
from repro.workloads import GemmKind, build_model

_KINDS = ("ws", "os", "diva")


@dataclass(frozen=True)
class Table3:
    """All Table III columns plus the PPU adjunct."""

    profiles: dict[str, EngineProfile]
    ppu_power_w: float
    ppu_area_mm2: float


def effective_tflops(kind: str,
                     models: tuple[str, ...] | None = None) -> float:
    """Average effective throughput on the per-example-gradient GEMMs.

    Table III profiles the engines on DP-SGD's defining bottleneck —
    the per-example weight-gradient derivation — where the dataflow
    differences are starkest.
    """
    accel = get_accelerator(kind, kind != "ws")
    per_model = []
    for name in models or all_models():
        network = build_model(name)
        batch = default_batch(name)
        flops = 0
        cycles = 0
        for gemm in network.gemms(GemmKind.WGRAD_EXAMPLE, batch):
            stats = accel.engine.gemm_stats(gemm)
            flops += 2 * stats.macs
            cycles += stats.compute_cycles
        per_model.append(flops / (cycles / accel.frequency_hz) / 1e12)
    return mean(per_model)


def run(models: tuple[str, ...] | None = None,
        energy_model: EnergyModel | None = None) -> Table3:
    """Assemble Table III from the area/power model + simulation."""
    em = energy_model or EnergyModel()
    profiles = {
        kind: em.engine_profile(kind, effective_tflops(kind, models))
        for kind in _KINDS
    }
    return Table3(
        profiles=profiles,
        ppu_power_w=em.ppu_power_w(),
        ppu_area_mm2=em.ppu_area_mm2(),
    )


def render(result: Table3 | None = None) -> str:
    """Table III as text."""
    result = result or run()
    rows = []
    for kind in _KINDS:
        p = result.profiles[kind]
        rows.append([
            p.name, p.macs, p.peak_tflops, p.effective_tflops, p.power_w,
            p.area_mm2, p.tflops_per_watt, p.tflops_per_mm2,
        ])
    table = format_table(
        ["GEMM engine", "MACs", "Peak TFLOPS", "Eff. TFLOPS", "Power (W)",
         "Area (mm2)", "Eff. TFLOPS/W", "Eff. TFLOPS/mm2"],
        rows,
        title="Table III: power, area and effective throughput",
    )
    ws = result.profiles["ws"]
    diva = result.profiles["diva"]
    footer = (
        f"\nPPU adjunct: {result.ppu_power_w:.1f} W, "
        f"{result.ppu_area_mm2:.1f} mm2 (paper: 2.6 W, ~3 mm2)"
        f"\nDiVa vs WS: TFLOPS/W "
        f"{diva.tflops_per_watt / ws.tflops_per_watt:.1f}x (paper: 3.5x), "
        f"TFLOPS/mm2 "
        f"{diva.tflops_per_mm2 / ws.tflops_per_mm2:.1f}x (paper: 4.6x)"
    )
    return table + footer


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

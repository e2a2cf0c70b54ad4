"""GEMM-shape robustness sweep across the three dataflows.

The paper validated its TPUv3 model "across a wide range of GEMM
shapes" (Pearson 0.95, Section V) and argues DiVa's outer product is
robust where systolic arrays are not.  This experiment maps the
utilization surface over the K dimension (the axis DP-SGD stresses),
making the crossover explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import runner
from repro.experiments.common import get_accelerator
from repro.experiments.report import format_table
from repro.workloads.gemms import Gemm

#: K values swept (per-example gradients live at the small end).
K_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)

_ENGINES = (("WS", "ws", False), ("OS", "os", False), ("DiVa", "diva", True))


@dataclass(frozen=True)
class SweepPoint:
    """Utilization of all engines at one GEMM shape."""

    gemm: Gemm
    utilization: dict[str, float]

    @property
    def diva_advantage(self) -> float:
        ws = self.utilization["WS"]
        return self.utilization["DiVa"] / ws if ws else float("inf")


def sweep_point(m: int, k: int, n: int) -> SweepPoint:
    """Utilization of every engine at one shape (picklable worker)."""
    util = {}
    for label, kind, with_ppu in _ENGINES:
        accel = get_accelerator(kind, with_ppu)
        util[label] = accel.engine.utilization(Gemm(m, k, n))
    return SweepPoint(gemm=Gemm(m, k, n), utilization=util)


def k_sweep(m: int = 1024, n: int = 512,
            ks: tuple[int, ...] = K_SWEEP) -> list[SweepPoint]:
    """Sweep the K dimension at a fixed (M, N) footprint."""
    return runner.sweep(sweep_point, [(m, k, n) for k in ks], star=True)


def render(points: list[SweepPoint] | None = None) -> str:
    """The K sweep as a text table."""
    points = points or k_sweep()
    rows = [
        [p.gemm.k,
         100 * p.utilization["WS"],
         100 * p.utilization["OS"],
         100 * p.utilization["DiVa"],
         p.diva_advantage]
        for p in points
    ]
    return format_table(
        ["K", "WS util %", "OS util %", "DiVa util %", "DiVa/WS"],
        rows,
        title=f"GEMM robustness sweep at M={points[0].gemm.m}, "
              f"N={points[0].gemm.n}",
    )


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

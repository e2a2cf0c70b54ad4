"""Figure 17: DiVa vs NVIDIA V100/A100 on DP-SGD's bottleneck GEMMs.

Paper result: on the backpropagation GEMM stages of DP-SGD(R), DiVa
averages 1.2x / 1.0x over V100 / A100 with Tensor Cores (max 4.1x /
3.4x) despite having only ~24% / ~9.5% of their peak FP16 throughput.
MobileNet is the exception where the GPUs win: their SIMD mapping of
tiny grouped GEMMs beats the spatial array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.gpu import A100, V100, GpuModel
from repro.experiments.common import (
    all_models,
    default_batch,
    get_accelerator,
)
from repro.experiments.report import format_table, mean
from repro.training import Algorithm, bottleneck_gemms
from repro.workloads import build_model


@dataclass(frozen=True)
class Fig17Row:
    """Bottleneck-GEMM latency of every device for one model."""

    model: str
    batch: int
    #: device label -> seconds on the backprop GEMM stages.
    seconds: dict[str, float]

    def speedup(self, device: str, baseline: str) -> float:
        return self.seconds[baseline] / self.seconds[device]


_DEVICES = (
    ("V100 (FP32)", V100, False),
    ("V100 (FP16)", V100, True),
    ("A100 (FP32)", A100, False),
    ("A100 (FP16)", A100, True),
)


def _diva_seconds(model: str, batch: int) -> float:
    """DiVa latency over the DP-SGD(R) backprop GEMM stages."""
    accel = get_accelerator("diva", True)
    network = build_model(model)
    total = 0
    for gemm in bottleneck_gemms(network, Algorithm.DP_SGD_R, batch):
        total += accel.run_gemm(gemm).cycles
    return total / accel.frequency_hz


def run(models: tuple[str, ...] | None = None) -> list[Fig17Row]:
    """Price the bottleneck GEMMs on every device."""
    rows: list[Fig17Row] = []
    for name in models or all_models():
        batch = default_batch(name)
        # GPUs execute grouped convolutions natively (dedicated
        # depthwise kernels); the arrays use the dense lowering.
        gpu_network = build_model(name, native_groups=True)
        gemms = bottleneck_gemms(gpu_network, Algorithm.DP_SGD_R, batch)
        seconds: dict[str, float] = {}
        for label, config, tensor_cores in _DEVICES:
            gpu = GpuModel(config, tensor_cores=tensor_cores)
            seconds[label] = gpu.gemms_seconds(gemms)
        seconds["DiVa (BF16)"] = _diva_seconds(name, batch)
        rows.append(Fig17Row(model=name, batch=batch, seconds=seconds))
    return rows


def summarize(rows: list[Fig17Row]) -> dict[str, float]:
    """Section VI-D aggregates."""
    v100 = [r.speedup("DiVa (BF16)", "V100 (FP16)") for r in rows]
    a100 = [r.speedup("DiVa (BF16)", "A100 (FP16)") for r in rows]
    return {
        "diva_vs_v100_avg": mean(v100),
        "diva_vs_v100_max": max(v100),
        "diva_vs_a100_avg": mean(a100),
        "diva_vs_a100_max": max(a100),
    }


def render(rows: list[Fig17Row] | None = None) -> str:
    """Figure 17 as a text table (speedups normalized to GPU FP32)."""
    rows = rows or run()
    table_rows = []
    for r in rows:
        table_rows.append([
            r.model,
            1.0,
            r.speedup("V100 (FP16)", "V100 (FP32)"),
            r.speedup("DiVa (BF16)", "V100 (FP32)"),
            1.0,
            r.speedup("A100 (FP16)", "A100 (FP32)"),
            r.speedup("DiVa (BF16)", "A100 (FP32)"),
        ])
    table = format_table(
        ["Model", "V100 FP32", "V100 FP16", "DiVa vs V100",
         "A100 FP32", "A100 FP16", "DiVa vs A100"],
        table_rows,
        title="Figure 17: bottleneck-GEMM speedup vs GPUs "
              "(normalized to each GPU's FP32)",
    )
    stats = summarize(rows)
    footer = (
        f"\nDiVa vs V100 Tensor Cores (avg): "
        f"{stats['diva_vs_v100_avg']:.1f}x (paper: 1.2x), max "
        f"{stats['diva_vs_v100_max']:.1f}x (paper: 4.1x)"
        f"\nDiVa vs A100 Tensor Cores (avg): "
        f"{stats['diva_vs_a100_avg']:.1f}x (paper: 1.0x), max "
        f"{stats['diva_vs_a100_max']:.1f}x (paper: 3.4x)"
    )
    return table + footer


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

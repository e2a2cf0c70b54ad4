"""Figure 7: WS-systolic FLOPS utilization per GEMM class.

Paper result: across all nine models, the per-example weight-gradient
GEMMs exhibit far lower compute utilization than forward /
activation-gradient / per-batch weight-gradient GEMMs, root-causing the
DP-SGD slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import all_models, default_batch, \
    get_accelerator
from repro.experiments.report import format_table
from repro.training import stage_utilization
from repro.workloads import GemmKind, build_model

#: Figure 7's x-axis stages, in order.
STAGES = (GemmKind.FORWARD, GemmKind.ACT_GRAD, GemmKind.WGRAD_BATCH,
          GemmKind.WGRAD_EXAMPLE)


@dataclass(frozen=True)
class Fig7Row:
    """Utilization of each GEMM class for one model."""

    model: str
    batch: int
    utilization: dict[GemmKind, float]


def run(models: tuple[str, ...] | None = None,
        kind: str = "ws", with_ppu: bool = False) -> list[Fig7Row]:
    """Compute per-stage FLOPS utilization on the chosen engine."""
    accel = get_accelerator(kind, with_ppu)
    rows: list[Fig7Row] = []
    for name in models or all_models():
        network = build_model(name)
        batch = default_batch(name)
        util = {
            stage: stage_utilization(accel, network.gemms(stage, batch))
            for stage in STAGES
        }
        rows.append(Fig7Row(model=name, batch=batch, utilization=util))
    return rows


def render(rows: list[Fig7Row] | None = None) -> str:
    """Figure 7 as a text table (percent utilization)."""
    rows = rows or run()
    table_rows = [
        [r.model, r.batch]
        + [100.0 * r.utilization[stage] for stage in STAGES]
        for r in rows
    ]
    table = format_table(
        ["Model", "B", "Fwdprop %", "Bwd(act grad) %",
         "Bwd(per-batch grad) %", "Bwd(per-example grad) %"],
        table_rows,
        title="Figure 7: WS FLOPS utilization per GEMM class",
    )
    worst = min(rows, key=lambda r: r.utilization[GemmKind.WGRAD_EXAMPLE])
    footer = (
        f"\nLowest per-example-grad utilization: {worst.model} "
        f"({100 * worst.utilization[GemmKind.WGRAD_EXAMPLE]:.2f}%)"
    )
    return table + footer


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

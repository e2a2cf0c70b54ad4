"""Figure 15: FLOPS-utilization improvement over the WS baseline.

Paper result: DiVa improves per-example weight-gradient utilization by
5.5x on average for CNNs (max 28.9x on SqueezeNet) and 2.2x for
Transformers/RNNs; OS alone does not help (it can even be worse).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DETAIL_MODELS,
    all_models,
    default_batch,
    get_accelerator,
)
from repro.experiments.fig07_utilization import STAGES
from repro.experiments.report import format_table, mean
from repro.training import stage_utilization
from repro.workloads import GemmKind, build_model
from repro.workloads.model import ModelFamily

_ENGINES = (("WS", "ws"), ("OS", "os"), ("DiVa", "diva"))


@dataclass(frozen=True)
class Fig15Row:
    """Per-stage utilization of one model on one engine."""

    model: str
    family: str
    engine: str
    utilization: dict[GemmKind, float]
    #: Utilization normalized to WS, per stage.
    improvement: dict[GemmKind, float]


def run(models: tuple[str, ...] | None = None) -> list[Fig15Row]:
    """Compute utilization improvements for every engine and stage."""
    rows: list[Fig15Row] = []
    for name in models or DETAIL_MODELS:
        network = build_model(name)
        batch = default_batch(name)
        per_engine: dict[str, dict[GemmKind, float]] = {}
        for label, kind in _ENGINES:
            accel = get_accelerator(kind, kind != "ws")
            per_engine[label] = {
                stage: stage_utilization(accel, network.gemms(stage, batch))
                for stage in STAGES
            }
        ws = per_engine["WS"]
        for label, _ in _ENGINES:
            util = per_engine[label]
            rows.append(Fig15Row(
                model=name,
                family=network.family,
                engine=label,
                utilization=util,
                improvement={
                    stage: (util[stage] / ws[stage]) if ws[stage] else 0.0
                    for stage in STAGES
                },
            ))
    return rows


def summarize(models: tuple[str, ...] | None = None) -> dict[str, float]:
    """Section VI-A aggregates: run over all nine models."""
    rows = run(models or all_models())
    diva = [r for r in rows if r.engine == "DiVa"]
    cnn = [r.improvement[GemmKind.WGRAD_EXAMPLE]
           for r in diva if r.family == ModelFamily.CNN]
    nlp = [r.improvement[GemmKind.WGRAD_EXAMPLE]
           for r in diva if r.family != ModelFamily.CNN]
    return {
        "cnn_example_grad_improvement": mean(cnn),
        "cnn_example_grad_improvement_max": max(cnn),
        "nlp_example_grad_improvement": mean(nlp),
    }


def render(rows: list[Fig15Row] | None = None) -> str:
    """Figure 15 as a text table (improvement vs WS)."""
    rows = rows or run()
    table_rows = [
        [r.model, r.engine]
        + [r.improvement[stage] for stage in STAGES]
        for r in rows
    ]
    table = format_table(
        ["Model", "Engine", "Fwdprop", "Bwd(act grad)",
         "Bwd(per-batch grad)", "Bwd(per-example grad)"],
        table_rows,
        title="Figure 15: FLOPS utilization improvement (normalized to WS)",
    )
    stats = summarize()
    footer = (
        f"\nDiVa per-example-grad improvement, CNNs (avg): "
        f"{stats['cnn_example_grad_improvement']:.1f}x (paper: 5.5x), "
        f"max {stats['cnn_example_grad_improvement_max']:.1f}x (paper: 28.9x)"
        f"\nDiVa per-example-grad improvement, Transformers/RNNs (avg): "
        f"{stats['nlp_example_grad_improvement']:.1f}x (paper: 2.2x)"
    )
    return table + footer


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

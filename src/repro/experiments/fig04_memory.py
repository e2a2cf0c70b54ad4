"""Figure 4: memory-usage breakdown of SGD vs DP-SGD vs DP-SGD(R).

Paper result: per-example weight gradients average ~78% of DP-SGD's
footprint; DP-SGD(R) shrinks total memory by ~3.8x on average, back to
near-SGD levels.  All three algorithms use the max DP-SGD batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import all_models, default_batch
from repro.experiments.report import format_table, mean
from repro.training import Algorithm, MemoryBreakdown, memory_breakdown
from repro.workloads import build_model


@dataclass(frozen=True)
class Fig4Row:
    """One bar of Figure 4."""

    model: str
    algorithm: Algorithm
    batch: int
    breakdown: MemoryBreakdown
    #: Total normalized to the same model's SGD footprint.
    normalized_total: float


def run(models: tuple[str, ...] | None = None) -> list[Fig4Row]:
    """Compute every Figure 4 bar."""
    rows: list[Fig4Row] = []
    for name in models or all_models():
        network = build_model(name)
        batch = default_batch(name)
        sgd_total = memory_breakdown(network, Algorithm.SGD, batch).total
        for algorithm in Algorithm:
            breakdown = memory_breakdown(network, algorithm, batch)
            rows.append(Fig4Row(
                model=name,
                algorithm=algorithm,
                batch=batch,
                breakdown=breakdown,
                normalized_total=breakdown.total / sgd_total,
            ))
    return rows


def summarize(rows: list[Fig4Row]) -> dict[str, float]:
    """Aggregate statistics quoted in Section III-A."""
    dp_rows = [r for r in rows if r.algorithm is Algorithm.DP_SGD]
    dp_r_rows = [r for r in rows if r.algorithm is Algorithm.DP_SGD_R]
    example_fraction = mean(
        [r.breakdown.fraction("example_gradients") for r in dp_rows])
    reduction = mean([
        dp.breakdown.total / dp_r.breakdown.total
        for dp, dp_r in zip(dp_rows, dp_r_rows)
    ])
    bloat = mean([r.normalized_total for r in dp_rows])
    return {
        "dp_sgd_example_grad_fraction": example_fraction,
        "dp_sgd_r_memory_reduction": reduction,
        "dp_sgd_memory_bloat_vs_sgd": bloat,
    }


def render(rows: list[Fig4Row] | None = None) -> str:
    """Figure 4 as a text table (normalized to per-model SGD)."""
    rows = rows or run()
    table_rows = []
    for r in rows:
        b = r.breakdown
        table_rows.append([
            r.model, str(r.algorithm), r.batch,
            b.weights / 2**20, b.activations / 2**20,
            b.batch_gradients / 2**20, b.example_gradients / 2**20,
            b.other / 2**20, b.total / 2**30, r.normalized_total,
        ])
    table = format_table(
        ["Model", "Algorithm", "B", "Weights(MB)", "Acts(MB)",
         "BatchGrad(MB)", "ExampleGrad(MB)", "Else(MB)", "Total(GB)",
         "Norm.vs SGD"],
        table_rows,
        title="Figure 4: memory usage breakdown",
    )
    stats = summarize(rows)
    footer = (
        f"\nDP-SGD per-example-gradient share (avg): "
        f"{stats['dp_sgd_example_grad_fraction'] * 100:.1f}% (paper: 78%)"
        f"\nDP-SGD(R) memory reduction vs DP-SGD (avg): "
        f"{stats['dp_sgd_r_memory_reduction']:.2f}x (paper: 3.8x)"
    )
    return table + footer


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

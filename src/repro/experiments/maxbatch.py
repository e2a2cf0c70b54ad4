"""Section III-A: maximum feasible mini-batch under 16 GB HBM.

Paper result: SGD trains ResNet-152 / BERT-base at mini-batch 8192 /
1024 while DP-SGD manages only 32 / 8; DP-SGD(R) restores near-SGD
batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import all_models
from repro.experiments.report import format_table
from repro.training import Algorithm, max_batch_size
from repro.workloads import build_model


@dataclass(frozen=True)
class MaxBatchRow:
    """Max batch of every algorithm for one model."""

    model: str
    sgd: int
    dp_sgd: int
    dp_sgd_r: int

    @property
    def dp_penalty(self) -> float:
        """How much smaller DP-SGD's max batch is vs SGD."""
        return self.sgd / self.dp_sgd


def run(models: tuple[str, ...] | None = None) -> list[MaxBatchRow]:
    """Compute the max-batch table."""
    rows: list[MaxBatchRow] = []
    for name in models or all_models():
        network = build_model(name)
        rows.append(MaxBatchRow(
            model=name,
            sgd=max_batch_size(network, Algorithm.SGD),
            dp_sgd=max_batch_size(network, Algorithm.DP_SGD),
            dp_sgd_r=max_batch_size(network, Algorithm.DP_SGD_R),
        ))
    return rows


def render(rows: list[MaxBatchRow] | None = None) -> str:
    """Section III-A as a text table."""
    rows = rows or run()
    table_rows = [
        [r.model, r.sgd, r.dp_sgd, r.dp_sgd_r, r.dp_penalty]
        for r in rows
    ]
    return format_table(
        ["Model", "SGD", "DP-SGD", "DP-SGD(R)", "SGD/DP-SGD"],
        table_rows,
        title="Section III-A: max mini-batch under 16 GB "
              "(paper: ResNet-152 8192 vs 32; BERT-base 1024 vs 8)",
    )


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

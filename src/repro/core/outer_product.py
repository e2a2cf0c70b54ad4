"""DiVa's outer-product GEMM engine (Section IV-B).

The engine decomposes an (M, K, N) GEMM into K rank-1 updates: each
cycle one column of the LHS (length m) and one row of the RHS (length n)
are broadcast over row/column buses and multiplied all-to-all, retiring
``m x n`` MACs *regardless of the K dimension* — the property that
rescues the tall-skinny per-example weight-gradient GEMMs of DP-SGD.
Outputs stay resident in per-PE accumulators (an output-stationary
dataflow) and drain at ``drain_rows_per_cycle`` rows per clock, either
to the SRAM output buffer or directly into the PPU.
"""

from __future__ import annotations

import math
from typing import Any

from numpy.typing import NDArray

from repro.arch.engine import (
    ArrayColumns,
    GemmEngine,
    TileShape,
    chunk_sizes,
)
from repro.workloads.gemms import Gemm


class OuterProductEngine(GemmEngine):
    """DiVa's all-to-all outer-product engine."""

    name = "DiVa"
    dataflow = "output_stationary"
    grid_axes = ("m", "n")

    def tiles(self, gemm: Gemm) -> list[TileShape]:
        """Tile M onto PE rows and N onto PE columns; K iterates in time."""
        cfg = self.config
        return [
            TileShape(mt, gemm.k, nt)
            for mt in chunk_sizes(gemm.m, cfg.height)
            for nt in chunk_sizes(gemm.n, cfg.width)
        ]

    def tile_cycle_phases(self, tile: TileShape) -> tuple[int, int]:
        """One rank-1 update per cycle: K cycles of compute, then drain."""
        cfg = self.config
        drain = math.ceil(tile.m / cfg.drain_rows_per_cycle)
        return drain, tile.k

    def tile_phases_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        drain = (m + cfg.drain_rows_per_cycle - 1) // cfg.drain_rows_per_cycle
        return drain, k

    def tile_sram_traffic(self, tile: TileShape) -> tuple[int, int]:
        """Streams one LHS column + one RHS row per cycle (Table I)."""
        cfg = self.config
        reads = (tile.m + tile.n) * tile.k * cfg.input_bytes
        writes = tile.m * tile.n * cfg.acc_bytes
        return reads, writes

    def tile_traffic_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        reads = (m + n) * k * cfg.input_bytes
        writes = m * n * cfg.acc_bytes
        return reads, writes

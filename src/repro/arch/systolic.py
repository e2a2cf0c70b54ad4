"""Weight-stationary and output-stationary systolic array cycle models.

The formulas follow Figure 3 of the paper:

* **WS** (Figure 3(c), Google TPU style): the RHS matrix is latched into
  the array at ``fill_rows_per_cycle`` rows/clock, then the LHS streams
  through for ``M + K + PE_W - 1`` cycles.  A GEMM whose K dimension is
  smaller than PE_H latches only ``K`` rows — the remaining PE rows idle,
  which is precisely why per-example weight-gradient GEMMs (tiny K)
  collapse WS utilization (Section III-C).
* **OS** (Figure 3(b)): both operands stream in diagonally; a tile of
  ``m x n`` outputs takes ``K + m + n - 1`` wavefront cycles, after which
  results drain at ``drain_rows_per_cycle`` rows/clock.  Small K again
  means short streams and mostly-idle PEs.
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


class WeightStationaryEngine(GemmEngine):
    """TPUv3-like weight-stationary systolic array."""

    name = "WS"
    dataflow = "weight_stationary"
    grid_axes = ("k", "n")

    def tiles(self, gemm: Gemm) -> list[TileShape]:
        """Tile K onto PE rows and N onto PE columns; M streams."""
        cfg = self.config
        return [
            TileShape(gemm.m, kt, nt)
            for kt in chunk_sizes(gemm.k, cfg.height)
            for nt in chunk_sizes(gemm.n, cfg.width)
        ]

    def tile_cycle_phases(self, tile: TileShape) -> tuple[int, int]:
        cfg = self.config
        fill = math.ceil(tile.k / cfg.fill_rows_per_cycle)
        stream = tile.m + tile.k + cfg.width - 1
        return fill, stream

    def tile_phases_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        fill = (k + cfg.fill_rows_per_cycle - 1) // cfg.fill_rows_per_cycle
        stream = m + k + cfg.width - 1
        return fill, stream

    def tile_sram_traffic(self, tile: TileShape) -> tuple[int, int]:
        cfg = self.config
        reads = (tile.m * tile.k + tile.k * tile.n) * cfg.input_bytes
        writes = tile.m * tile.n * cfg.acc_bytes
        return reads, writes

    def tile_traffic_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        reads = (m * k + k * n) * cfg.input_bytes
        writes = m * n * cfg.acc_bytes
        return reads, writes


class OutputStationaryEngine(GemmEngine):
    """Output-stationary systolic array (Figure 3(b))."""

    name = "OS"
    dataflow = "output_stationary"
    grid_axes = ("m", "n")

    def tiles(self, gemm: Gemm) -> list[TileShape]:
        """Tile M onto PE rows and N onto PE columns; K streams."""
        cfg = self.config
        return [
            TileShape(mt, gemm.k, nt)
            for mt in chunk_sizes(gemm.m, cfg.height)
            for nt in chunk_sizes(gemm.n, cfg.width)
        ]

    def tile_cycle_phases(self, tile: TileShape) -> tuple[int, int]:
        cfg = self.config
        drain = math.ceil(tile.m / cfg.drain_rows_per_cycle)
        wavefront = tile.k + tile.m + tile.n - 1
        return drain, wavefront

    def tile_phases_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        drain = (m + cfg.drain_rows_per_cycle - 1) // cfg.drain_rows_per_cycle
        wavefront = k + m + n - 1
        return drain, wavefront

    def tile_sram_traffic(self, tile: TileShape) -> tuple[int, int]:
        cfg = self.config
        reads = (tile.m * tile.k + tile.k * tile.n) * cfg.input_bytes
        writes = tile.m * tile.n * cfg.acc_bytes
        return reads, writes

    def tile_traffic_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        reads = (m * k + k * n) * cfg.input_bytes
        writes = m * n * cfg.acc_bytes
        return reads, writes

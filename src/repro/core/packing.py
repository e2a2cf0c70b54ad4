"""Spatial multi-GEMM packing: the paper's stated future work.

Section VII: "co-locating multiple skinny GEMMs within the ML
accelerator for spatial multi-tasking is an interesting approach that
can potentially lead to higher PE utility in DP-SGD ... we leave it as
future work."  This module implements that extension as a model: a
:class:`PackedOuterProductEngine` whose row/column broadcast buses are
*segmented* into ``bus_segments`` independent sectors, allowing several
small independent GEMMs (e.g. the ``B`` per-example weight-gradient
GEMMs, or MobileNet's per-channel grouped GEMMs) to occupy disjoint
array quadrants simultaneously.

Cost model: segmenting a bus adds repeaters/steering per segment; we
charge an area/power factor per extra segment (see
:func:`packing_overhead_fraction`), in the same spirit as the base
broadcast-bus overhead of Table III.
"""

from __future__ import annotations

import math

from repro.arch.engine import ArrayConfig, GemmStats
from repro.core.outer_product import OuterProductEngine
from repro.workloads.gemms import Gemm

#: Additional array-area fraction per extra bus segment (model constant;
#: segmented buses need repeaters and per-segment drivers).
SEGMENT_AREA_FRACTION = 0.02


def packing_overhead_fraction(bus_segments: int) -> float:
    """Fractional area/power overhead of ``bus_segments`` sectors."""
    if bus_segments < 1:
        raise ValueError("need at least one bus segment")
    return SEGMENT_AREA_FRACTION * (bus_segments - 1)


class PackedOuterProductEngine(OuterProductEngine):
    """Outer-product engine with segmented broadcast buses.

    When a batched GEMM's single-instance footprint (m x n) occupies
    only a fraction of the array, up to
    ``(H // m) * (W // n)`` instances (bounded by ``bus_segments``) are
    mapped onto disjoint sectors and execute concurrently — each sector
    broadcasting its own operand pair.  The closed form prices this
    through :meth:`GemmEngine.rounds`; :meth:`packing_factor` is its
    per-GEMM restatement for the per-tile reference.
    """

    name = "DiVa-Pack"

    def __init__(self, config: ArrayConfig | None = None,
                 bus_segments: int = 4) -> None:
        super().__init__(config)
        if bus_segments < 1:
            raise ValueError("need at least one bus segment")
        self.bus_segments = bus_segments

    def packing_factor(self, gemm: Gemm) -> int:
        """How many instances of ``gemm`` run concurrently."""
        cfg = self.config
        if gemm.count == 1:
            return 1
        fit = (cfg.height // gemm.m) * (cfg.width // gemm.n)
        if fit <= 1:
            return 1
        return max(1, min(self.bus_segments, fit, gemm.count))

    def gemm_stats_reference(self, gemm: Gemm) -> GemmStats:
        pack = self.packing_factor(gemm)
        if pack == 1:
            return super().gemm_stats_reference(gemm)
        # `pack` instances run concurrently; the batch completes in
        # ceil(count / pack) sequential rounds of one-instance latency.
        per_instance = super().gemm_stats_reference(gemm.single())
        rounds = math.ceil(gemm.count / pack)
        return GemmStats(
            gemm=gemm,
            engine=self.name,
            compute_cycles=per_instance.compute_cycles * rounds,
            macs=gemm.macs,
            peak_macs_per_cycle=per_instance.peak_macs_per_cycle,
            tiles=per_instance.tiles * gemm.count,
            sram_read_bytes=per_instance.sram_read_bytes * gemm.count,
            sram_write_bytes=per_instance.sram_write_bytes * gemm.count,
        )

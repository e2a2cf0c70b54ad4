"""DiVa's post-processing unit (PPU): pipelined adder-tree reductions.

Section IV-C: the PPU is ``R`` (= ``drain_rows_per_cycle``) instances of
a ``log2(PE_W)``-level pipelined adder tree.  As the output-stationary
GEMM engine drains R output rows per clock, each row feeds its own tree,
which squares and sums the row's PE_W elements — deriving the
per-example gradient L2 norm *on the fly*, without ever spilling
per-example gradients to DRAM.  With FREQ_PPU == FREQ_GEMM, the trees
exactly match the drain bandwidth (3.85 TB/s in the default
configuration), so norm derivation adds only a pipeline flush per GEMM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PpuConfig:
    """PPU parameters (Section IV-C defaults)."""

    num_trees: int = 8
    tree_width: int = 128
    frequency_hz: float = 940e6
    element_bytes: int = 4

    def __post_init__(self) -> None:
        if self.tree_width < 2:
            raise ValueError("adder tree needs at least 2 inputs")
        if self.num_trees <= 0:
            raise ValueError("need at least one adder tree")

    @property
    def levels(self) -> int:
        """Pipeline depth of one adder tree (7 for a 128-wide tree)."""
        return math.ceil(math.log2(self.tree_width))

    @property
    def elements_per_cycle(self) -> int:
        """Reduction throughput in elements per clock."""
        return self.num_trees * self.tree_width

    @property
    def sustainable_bytes_per_s(self) -> float:
        """Input bandwidth the PPU sustains (paper: 3.85 TB/s)."""
        return (self.elements_per_cycle * self.element_bytes
                * self.frequency_hz)


class PostProcessingUnit:
    """Latency model of the adder-tree reduction unit."""

    def __init__(self, config: PpuConfig | None = None) -> None:
        self.config = config or PpuConfig()

    def matches_drain_rate(self, drain_rows_per_cycle: int,
                           array_width: int) -> bool:
        """Whether the PPU keeps up with the GEMM engine drain (IV-C)."""
        return (self.config.num_trees >= drain_rows_per_cycle
                and self.config.tree_width >= array_width)

    def flush_cycles(self) -> int:
        """Pipeline flush after the last drained row of a GEMM."""
        # Tree depth plus the final accumulate/sqrt of the norm scalar.
        return self.config.levels + 4

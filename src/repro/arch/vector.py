"""TPU-style vector processing unit.

Google TPUv3 pairs its systolic MXU with a vector processor (128 lanes
x 8 sublanes) that handles element-wise math and — on the baseline —
the DP-SGD gradient post-processing: squaring/summing for norms,
clipping scales, reduction across examples and noise addition
(Section III-C).  Reductions are awkward on a SIMD vector unit: they
need ``O(log)`` permute/add passes, modeled by
``reduction_overhead_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VectorUnitConfig:
    """Vector unit parameters (TPUv3-like defaults)."""

    lanes: int = 128
    sublanes: int = 8
    frequency_hz: float = 940e6
    #: Multiplier on op counts for cross-lane reductions (vector
    #: permute + add iterations, Section IV-C).
    reduction_overhead_factor: float = 2.0

    @property
    def ops_per_cycle(self) -> int:
        return self.lanes * self.sublanes


class VectorUnit:
    """The vector unit of one accelerator; its kernels are priced by
    :meth:`repro.arch.accelerator.Accelerator.vector_charges`."""

    def __init__(self, config: VectorUnitConfig | None = None) -> None:
        self.config = config or VectorUnitConfig()

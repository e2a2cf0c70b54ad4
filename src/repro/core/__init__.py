"""DiVa core: outer-product GEMM engine, PPU, configuration, factory."""

from repro.core.config import DivaConfig
from repro.core.diva import (
    ACCELERATOR_KINDS,
    build_accelerator,
    build_cluster,
)
from repro.core.outer_product import OuterProductEngine
from repro.core.ppu import PostProcessingUnit, PpuConfig

__all__ = [
    "DivaConfig",
    "OuterProductEngine",
    "PostProcessingUnit",
    "PpuConfig",
    "ACCELERATOR_KINDS",
    "build_accelerator",
    "build_cluster",
]

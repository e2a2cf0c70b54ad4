"""Off-chip memory (HBM) and on-chip SRAM models.

The DRAM model is a bandwidth/latency abstraction matching Table II
(450 GB/s over 16 channels, 100-cycle access latency); GEMM DMA is
double-buffered so a transfer's cost is overlapped against compute by
the caller (``max(compute, transfer)``), with the access latency paid
once per transfer as an exposed startup.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryConfig:
    """Memory subsystem parameters (Table II defaults)."""

    bandwidth_bytes_per_s: float = 450e9
    access_latency_cycles: int = 100
    channels: int = 16
    sram_bytes: int = 16 * 2**20

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.sram_bytes <= 0:
            raise ValueError("SRAM capacity must be positive")


class MemorySystem:
    """DRAM bandwidth in engine-clock terms; transfers are charged as
    columns by :meth:`repro.arch.accelerator.Accelerator.gemm_charges`
    and :meth:`~repro.arch.accelerator.Accelerator.vector_charges`."""

    def __init__(self, config: MemoryConfig | None = None,
                 frequency_hz: float = 940e6) -> None:
        self.config = config or MemoryConfig()
        self.frequency_hz = frequency_hz

    @property
    def bytes_per_cycle(self) -> float:
        """DRAM bytes deliverable per engine clock."""
        return self.config.bandwidth_bytes_per_s / self.frequency_hz

"""Event-driven pipeline simulation with DMA prefetch."""

from repro.sim.engine import (
    OpTiming,
    PipelineSimulator,
    TimedOp,
    Timeline,
)

__all__ = [
    "TimedOp",
    "OpTiming",
    "Timeline",
    "PipelineSimulator",
]

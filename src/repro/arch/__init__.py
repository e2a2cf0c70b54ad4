"""Accelerator substrate: engines, memory, vector unit, bandwidth, GPUs,
and multi-chip clusters."""

from repro.arch.accelerator import Accelerator, OpRun
from repro.arch.cluster import Cluster, ParallelPlan
from repro.arch.interconnect import (
    FABRICS,
    TOPOLOGIES,
    Fabric,
    Interconnect,
    InterconnectConfig,
    LinkClass,
    fabric_named,
)
from repro.arch.bandwidth import (
    SramBandwidth,
    os_bandwidth,
    ws_bandwidth,
)
from repro.arch.engine import ArrayConfig, GemmEngine, GemmStats, TileShape
from repro.arch.memory import MemoryConfig, MemorySystem
from repro.arch.systolic import OutputStationaryEngine, WeightStationaryEngine
from repro.arch.vector import VectorUnit, VectorUnitConfig

__all__ = [
    "Accelerator",
    "OpRun",
    "Cluster",
    "ParallelPlan",
    "Interconnect",
    "InterconnectConfig",
    "TOPOLOGIES",
    "FABRICS",
    "Fabric",
    "LinkClass",
    "fabric_named",
    "ArrayConfig",
    "GemmEngine",
    "GemmStats",
    "TileShape",
    "MemoryConfig",
    "MemorySystem",
    "VectorUnit",
    "VectorUnitConfig",
    "WeightStationaryEngine",
    "OutputStationaryEngine",
    "SramBandwidth",
    "ws_bandwidth",
    "os_bandwidth",
]

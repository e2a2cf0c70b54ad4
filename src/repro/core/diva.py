"""Accelerator factory: DiVa and the WS/OS systolic baselines.

``build_accelerator`` constructs every design point evaluated in
Figures 13–16:

* ``"ws"`` — the TPUv3-like weight-stationary baseline (no PPU: its
  coarse output granularity cannot feed the adder trees, Section IV-C);
* ``"os"`` — output-stationary systolic array, with or without a PPU;
* ``"diva"`` — the outer-product engine, with or without a PPU.
"""

from __future__ import annotations

from repro.arch.accelerator import Accelerator
from repro.arch.cluster import Cluster
from repro.arch.interconnect import Interconnect, InterconnectConfig
from repro.arch.memory import MemorySystem
from repro.arch.systolic import OutputStationaryEngine, WeightStationaryEngine
from repro.arch.vector import VectorUnit
from repro.core.config import DivaConfig
from repro.core.outer_product import OuterProductEngine
from repro.core.ppu import PostProcessingUnit

ACCELERATOR_KINDS = ("ws", "os", "diva")

_ENGINES = {
    "ws": WeightStationaryEngine,
    "os": OutputStationaryEngine,
    "diva": OuterProductEngine,
}


def build_accelerator(
    kind: str,
    with_ppu: bool | None = None,
    config: DivaConfig | None = None,
) -> Accelerator:
    """Build an accelerator design point.

    Parameters
    ----------
    kind:
        One of :data:`ACCELERATOR_KINDS`.
    with_ppu:
        Attach the PPU.  Defaults to True for OS/DiVa and is rejected
        for WS (whose dataflow cannot exploit it, Section IV-C).
    config:
        Shared architecture configuration (Table II defaults).
    """
    kind = kind.lower()
    if kind not in _ENGINES:
        raise KeyError(f"unknown accelerator kind {kind!r}; "
                       f"choose from {ACCELERATOR_KINDS}")
    cfg = config or DivaConfig()
    if with_ppu is None:
        with_ppu = kind != "ws"
    if with_ppu and kind == "ws":
        raise ValueError(
            "a WS systolic array cannot integrate the PPU: its output "
            "tiles are vector-memory sized (tens of MB), not drain-rate "
            "sized (Section IV-C)"
        )
    engine = _ENGINES[kind](cfg.array)
    ppu = PostProcessingUnit(cfg.ppu) if with_ppu else None
    name = {"ws": "WS", "os": "OS", "diva": "DiVa"}[kind]
    return Accelerator(
        name=name,
        engine=engine,
        memory=MemorySystem(cfg.memory, frequency_hz=cfg.array.frequency_hz),
        vector=VectorUnit(cfg.vector),
        ppu=ppu,
    )


def build_cluster(
    kind: str = "diva",
    n_chips: int = 1,
    with_ppu: bool | None = None,
    config: DivaConfig | None = None,
    interconnect: Interconnect | InterconnectConfig | None = None,
) -> Cluster:
    """Build a homogeneous multi-chip cluster of one design point.

    ``n_chips`` identical accelerators (see :func:`build_accelerator`)
    behind one interconnect — the execution target of the data-parallel
    sharded training step and the ``scaling`` experiment.
    """
    if n_chips < 1:
        raise ValueError(f"n_chips must be >= 1, got {n_chips}")
    ic_config = interconnect.config \
        if isinstance(interconnect, Interconnect) else interconnect
    if ic_config is not None and (
            error := ic_config.node_grouping_error(n_chips)) is not None:
        raise ValueError(error)
    chips = [build_accelerator(kind, with_ppu=with_ppu, config=config)
             for _ in range(n_chips)]
    return Cluster(chips, interconnect=interconnect)

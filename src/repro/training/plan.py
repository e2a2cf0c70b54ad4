"""GEMM schedules per training phase, and the 3D placement planner.

:func:`phase_gemms` lowers a network + algorithm into the ordered GEMM
lists of each :class:`~repro.training.phases.Phase`.  Consumers include
the accelerator simulation driver (:mod:`repro.training.simulate`) and
the GPU comparison (Figure 17), which prices the same GEMM lists on the
GPU model.

:func:`plan_placement` searches the DP x PP x TP factorizations of a
chip count: every candidate is simulated closed-form on the requested
fabric, plans whose per-stage :func:`~repro.training.parallel.
stage_memory_breakdown` exceeds the HBM budget are refused, and the
fastest feasible plan wins (ties prefer fewer pipeline stages, then
fewer tensor shards — the least invasive parallelism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.training.algorithms import Algorithm
from repro.training.memory import (
    DEFAULT_CAPACITY_BYTES, DEFAULT_RESERVED_FRACTION,
)
from repro.training.phases import Phase
from repro.training.simulate import step_gemm_blocks
from repro.workloads.gemms import Gemm, GemmKind
from repro.workloads.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.cluster import ParallelPlan
    from repro.arch.interconnect import Fabric


def phase_gemms(network: Network, algorithm: Algorithm,
                batch: int) -> dict[Phase, list[Gemm]]:
    """GEMMs of each training phase for one mini-batch step.

    Expands the schedule rule
    :func:`~repro.training.simulate.step_gemm_blocks` with
    ``network.gemms(kind, batch)``.  Non-GEMM work (element-wise ops,
    norm derivation, clipping, reduction, noise) is attached by the
    simulation driver; this mapping covers only the matrix
    multiplications of Figure 6.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    gemms: dict[GemmKind, list[Gemm]] = {}
    plan: dict[Phase, list[Gemm]] = {phase: [] for phase in Phase}
    for block in step_gemm_blocks(algorithm):
        kind_gemms = gemms.get(block.kind)
        if kind_gemms is None:
            kind_gemms = gemms[block.kind] = network.gemms(block.kind, batch)
        plan[block.phase] = list(kind_gemms)
    return plan


def bottleneck_gemms(network: Network, algorithm: Algorithm,
                     batch: int) -> list[Gemm]:
    """The backpropagation GEMMs — the paper's bottleneck stages.

    Used by the GPU comparison (Figure 17), which evaluates "those key
    GEMM operations that constitute DP-SGD's backpropagation bottleneck
    stages" (Section VI-D).
    """
    plan = phase_gemms(network, algorithm, batch)
    gemms: list[Gemm] = []
    for phase in (Phase.BWD_ACT_1, Phase.BWD_EXAMPLE_GRAD,
                  Phase.BWD_ACT_2, Phase.BWD_BATCH_GRAD):
        gemms.extend(plan[phase])
    return gemms


# -- placement planning ------------------------------------------------------

@dataclass(frozen=True)
class PlanCandidate:
    """One evaluated DP x PP x TP factorization."""

    plan: "ParallelPlan"
    feasible: bool
    #: Why the plan was refused ("" when feasible).
    reason: str
    #: Modeled step latency (``inf`` when refused before simulation).
    step_seconds: float
    #: Largest per-stage HBM footprint across the grid, bytes.
    peak_stage_bytes: int


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of a placement search over one workload."""

    network: str
    algorithm: Algorithm
    n_chips: int
    global_batch: int
    candidates: tuple[PlanCandidate, ...]
    #: HBM budget each stage must fit under, bytes.
    budget_bytes: int

    @property
    def best(self) -> "ParallelPlan | None":
        """The fastest feasible plan (``None`` if nothing fits)."""
        feasible = [c for c in self.candidates if c.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda c: (
            c.step_seconds, c.plan.pp, c.plan.tp)).plan


def _factorizations(n_chips: int) -> "list[ParallelPlan]":
    """Every ``dp * pp * tp == n_chips`` grid, in deterministic order."""
    from repro.arch.cluster import ParallelPlan

    plans = []
    for dp in range(1, n_chips + 1):
        if n_chips % dp:
            continue
        rest = n_chips // dp
        for pp in range(1, rest + 1):
            if rest % pp:
                continue
            plans.append(ParallelPlan(dp=dp, pp=pp, tp=rest // pp))
    # Pure DP first, then increasingly model-parallel grids.
    plans.sort(key=lambda p: (p.pp, p.tp, -p.dp))
    return plans


def plan_placement(
    network: Network,
    algorithm: Algorithm,
    n_chips: int,
    global_batch: int,
    *,
    kind: str = "diva",
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    reserved_fraction: float = DEFAULT_RESERVED_FRACTION,
    topology: str = "ring",
    bucket_bytes: int | None = None,
    chips_per_node: int = 1,
    fabric: "Fabric | str | None" = None,
    overlap: bool = True,
) -> PlacementResult:
    """Search DP x PP x TP placements of one workload on ``n_chips``.

    Every factorization of ``n_chips`` is either refused with a reason
    (batch not divisible by ``dp``, more stages than layers, a stage's
    memory footprint over the HBM budget) or simulated closed-form;
    :attr:`PlacementResult.best` is the fastest feasible plan.  The
    memory refusal uses the same per-stage partition the simulator
    runs, so a plan the planner accepts is exactly the plan the
    cluster executes.
    """
    from repro.arch.interconnect import InterconnectConfig, fabric_named
    from repro.core.diva import build_cluster
    from repro.training.parallel import stage_memory_breakdown
    from repro.training.simulate import simulate_sharded_training_step

    if n_chips < 1:
        raise ValueError(f"n_chips must be >= 1, got {n_chips}")
    if global_batch < 1:
        raise ValueError(
            f"global batch must be positive, got {global_batch}")
    if isinstance(fabric, str):
        fabric = fabric_named(fabric)
    cluster = build_cluster(
        kind=kind, n_chips=n_chips,
        interconnect=InterconnectConfig(
            topology=topology, bucket_bytes=bucket_bytes,
            chips_per_node=chips_per_node, fabric=fabric))
    budget = int(capacity_bytes * (1.0 - reserved_fraction))
    n_layers = len(network.layers)
    candidates: list[PlanCandidate] = []
    for plan in _factorizations(n_chips):
        if global_batch % plan.dp:
            candidates.append(PlanCandidate(
                plan, False,
                f"global batch {global_batch} not divisible by "
                f"dp={plan.dp}", math.inf, 0))
            continue
        if plan.pp > n_layers:
            candidates.append(PlanCandidate(
                plan, False,
                f"pp={plan.pp} exceeds the {n_layers}-layer network",
                math.inf, 0))
            continue
        if (topology == "hierarchical" and plan.dp > 1
                and plan.dp % chips_per_node):
            candidates.append(PlanCandidate(
                plan, False,
                f"dp={plan.dp} does not group into hierarchical nodes "
                f"of {chips_per_node}", math.inf, 0))
            continue
        report = simulate_sharded_training_step(
            network, algorithm, cluster, global_batch, plan=plan,
            overlap=overlap)
        bounds = report.stage_bounds or (0, n_layers)
        peak = max(
            b.total for b in stage_memory_breakdown(
                network, algorithm, report.local_batch, bounds, plan.tp))
        if peak > budget:
            candidates.append(PlanCandidate(
                plan, False,
                f"stage memory {peak / 2**30:.1f} GiB exceeds the "
                f"{budget / 2**30:.1f} GiB budget",
                report.total_seconds, peak))
            continue
        candidates.append(PlanCandidate(
            plan, True, "", report.total_seconds, peak))
    return PlacementResult(
        network=network.name,
        algorithm=algorithm,
        n_chips=n_chips,
        global_batch=global_batch,
        candidates=tuple(candidates),
        budget_bytes=budget,
    )

"""GEMM schedules per training phase, and the 3D placement planner.

:func:`phase_gemms` lowers a network + algorithm into the ordered GEMM
lists of each :class:`~repro.training.phases.Phase`.  Consumers include
the accelerator simulation driver (:mod:`repro.training.simulate`) and
the GPU comparison (Figure 17), which prices the same GEMM lists on the
GPU model.

:func:`price_plans` prices DP x PP x TP plans in one batched call,
refusing those whose per-stage :func:`~repro.training.parallel.
stage_memory_breakdown` exceeds the HBM budget; :func:`plan_placement`
runs it over the factorizations of a chip count, and the fastest
feasible plan wins (ties prefer fewer pipeline stages, then fewer
tensor shards — the least invasive parallelism).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.arch.cluster import ParallelPlan
from repro.arch.interconnect import (
    TOPOLOGY_CODES, Fabric, InterconnectConfig, fabric_named,
)
from repro.core.diva import build_accelerator
from repro.training.algorithms import Algorithm
from repro.training.batch import _broadcast_column, _sharded_steps
from repro.training.memory import (
    DEFAULT_CAPACITY_BYTES, DEFAULT_RESERVED_FRACTION,
)
from repro.training.parallel import stage_memory_breakdown
from repro.training.phases import Phase
from repro.training.simulate import step_gemm_blocks
from repro.workloads.gemms import Gemm, GemmKind
from repro.workloads.model import Network


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

    plan: ParallelPlan
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
    def best(self) -> ParallelPlan | None:
        """The fastest feasible plan (``None`` if nothing fits)."""
        feasible = [c for c in self.candidates if c.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda c: (
            c.step_seconds, c.plan.pp, c.plan.tp)).plan


def _factorizations(n_chips: int) -> list[ParallelPlan]:
    """Every ``dp * pp * tp == n_chips`` grid, in deterministic order."""
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


def _refusal(plan: ParallelPlan, global_batch: int, n_layers: int,
             interconnect: InterconnectConfig) -> str | None:
    """Why ``plan`` is refused before pricing (``None`` if it is priced)."""
    if global_batch % plan.dp:
        return f"global batch {global_batch} not divisible by dp={plan.dp}"
    if plan.pp > n_layers:
        return f"pp={plan.pp} exceeds the {n_layers}-layer network"
    if (interconnect.topology == "hierarchical" and plan.dp > 1
            and plan.dp % interconnect.chips_per_node):
        return (f"dp={plan.dp} does not group into hierarchical nodes "
                f"of {interconnect.chips_per_node}")
    return interconnect.node_grouping_error(plan.n_chips)


def price_plans(
    network: Network,
    algorithm: Algorithm,
    plans: Sequence[ParallelPlan],
    global_batches: Sequence[int],
    *,
    interconnect: InterconnectConfig,
    budget_bytes: int = int(
        DEFAULT_CAPACITY_BYTES * (1.0 - DEFAULT_RESERVED_FRACTION)),
    kind: str = "diva",
    overlap: bool = True,
) -> list[PlanCandidate]:
    """Price each plan at its own global batch in one batched call.

    A plan :func:`_refusal` names a reason for is refused unpriced.
    The rest go through one :func:`~repro.training.batch._sharded_steps`
    call on a ``kind`` chip and are refused when a stage's
    :func:`~repro.training.parallel.stage_memory_breakdown`, at the
    local batch and stage bounds that call prices, exceeds
    ``budget_bytes``: an accepted plan is exactly the executed plan.
    """
    n_layers = len(network.layers)
    reasons = [_refusal(plan, batch, n_layers, interconnect)
               for plan, batch in zip(plans, global_batches)]
    priced = [i for i, reason in enumerate(reasons) if reason is None]
    grid = [plans[i] for i in priced]
    fits: dict[int, PlanCandidate] = {}
    if grid:
        ic, n = interconnect, len(grid)
        steps, _, schedules = _sharded_steps(
            [build_accelerator(kind)] * n, [network] * n, [algorithm] * n,
            *(_broadcast_column(column, n) for column in (
                [global_batches[i] for i in priced], [p.dp for p in grid],
                [p.pp for p in grid], [p.tp for p in grid],
                TOPOLOGY_CODES[ic.topology], ic.bucket_bytes or 0,
                ic.chips_per_node)),
            tuple(_broadcast_column(v, n) for v in ic.links.link_params()),
            _broadcast_column(overlap, n),
            microbatches=[p.microbatches for p in grid])
        for j, (i, plan, schedule) in enumerate(zip(priced, grid,
                                                    schedules)):
            bounds = (schedule and schedule.stage_bounds) or (0, n_layers)
            peak = max(b.total for b in stage_memory_breakdown(
                network, algorithm, int(steps.local_batch[j]), bounds,
                plan.tp))
            reason = "" if peak <= budget_bytes else (
                f"stage memory {peak / 2**30:.1f} GiB exceeds the "
                f"{budget_bytes / 2**30:.1f} GiB budget")
            fits[i] = PlanCandidate(plan, not reason, reason,
                                    float(steps.total_seconds[j]), peak)
    return [fits[i] if reason is None else
            PlanCandidate(plans[i], False, reason, math.inf, 0)
            for i, reason in enumerate(reasons)]


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
    fabric: Fabric | str | None = None,
    overlap: bool = True,
) -> PlacementResult:
    """Search DP x PP x TP placements of one workload on ``n_chips``.

    Every factorization of ``n_chips`` is refused with a reason or
    priced closed-form, all in one :func:`price_plans` call;
    :attr:`PlacementResult.best` is the fastest feasible plan.  A
    hierarchical ``n_chips`` that does not group into nodes raises, as
    :func:`~repro.core.diva.build_cluster` does.
    """
    if n_chips < 1:
        raise ValueError(f"n_chips must be >= 1, got {n_chips}")
    if global_batch < 1:
        raise ValueError(
            f"global batch must be positive, got {global_batch}")
    interconnect = InterconnectConfig(
        topology=topology, bucket_bytes=bucket_bytes,
        chips_per_node=chips_per_node,
        fabric=fabric_named(fabric) if isinstance(fabric, str) else fabric)
    if (error := interconnect.node_grouping_error(n_chips)) is not None:
        raise ValueError(error)
    budget = int(capacity_bytes * (1.0 - reserved_fraction))
    plans = _factorizations(n_chips)
    return PlacementResult(
        network=network.name,
        algorithm=algorithm,
        n_chips=n_chips,
        global_batch=global_batch,
        candidates=tuple(price_plans(
            network, algorithm, plans, [global_batch] * len(plans),
            budget_bytes=budget, interconnect=interconnect, kind=kind,
            overlap=overlap)),
        budget_bytes=budget,
    )

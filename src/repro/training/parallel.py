"""Pipeline/tensor-parallel schedule partitioning for 3D plans.

:func:`build_pipeline_schedule` splits one replica's whole-step
schedule — the :func:`repro.training.simulate.step_gemm_ops` ops as
:class:`~repro.training.batch.LoweredStep` columns plus the per-phase
vector totals — into ``pp`` contiguous layer stages and prices the
GPipe-style microbatched pipeline in closed form.  It consumes only
*already-priced* integer op cycles, so the scalar driver and the NumPy
batched evaluator (:mod:`repro.training.batch`) feed it the same
integers and get bit-identical schedules back.

Modeling choices
----------------
* Stages are contiguous layer ranges, balanced on per-layer GEMM
  cycles (the dominant cost; layers without GEMMs ride with their
  neighbors).  Cuts are placed deterministically at the smallest prefix
  reaching each ``j/pp`` share of the total.
* Per-phase vector cycles are apportioned to stages by largest
  remainder — activation-proportional phases by each stage's
  element-wise activation elements, parameter-proportional phases by
  stage parameters — so the stage totals always sum exactly to the
  replica's totals.
* The microbatched makespan is ``ceil((sum_s + (M-1)*max_s) / M)`` over
  the per-stage *per-microbatch* work, plus the per-step optimizer tail
  (reduce/noise/update), which runs once after the drain and is never
  amortized by ``M``.  The bubble is the bottleneck stage's idle time,
  ``steady - max_s``.
* Tensor-parallel collectives are aggregated: every forward /
  activation-gradient GEMM allgathers its column-sharded output, and
  private algorithms combine per-example norm partials once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.arch.cluster import ParallelPlan
from repro.training.algorithms import Algorithm
from repro.training.batch import STEP_PHASES, LoweredStep
from repro.training.memory import MemoryBreakdown
from repro.training.phases import PHASE_ORDER, Phase
from repro.workloads.model import Network

#: Gradient / activation storage widths — mirrors repro.training.simulate.
_GRAD_BYTES = 4
_ACT_BYTES = 2

#: Per :data:`STEP_PHASES` row: do the phase's GEMM outputs hold
#: activations that TP must allgather?
_TP_GATHERS = np.array([p in (Phase.FWD, Phase.BWD_ACT_1, Phase.BWD_ACT_2)
                        for p in STEP_PHASES])

#: Phases whose vector work scales with activations, not parameters.
_ACT_PHASES = frozenset((Phase.FWD, Phase.BWD_ACT_1, Phase.BWD_ACT_2))


@dataclass(frozen=True)
class PipelineSchedule:
    """One replica's schedule split into pipeline stages (all integers)."""

    plan: ParallelPlan
    microbatches: int
    #: ``pp + 1`` layer indices; stage ``s`` holds layers
    #: ``[stage_bounds[s], stage_bounds[s+1])``.
    stage_bounds: tuple[int, ...]
    #: Whole-step cycles of each stage (sums to the replica total).
    stage_cycles: tuple[int, ...]
    #: Parameters owned by each stage (before TP sharding).
    stage_params: tuple[int, ...]
    #: Microbatched makespan of the bottleneck replica, cycles.
    pipeline_cycles: int
    #: Fill/drain idle cycles inside the makespan.
    bubble_cycles: int
    #: Bottleneck stage's share of the gradient-producing phase — the
    #: window the DP allreduce may overlap into.
    overlappable_cycles: int
    #: Per-chip DP gradient allreduce payload: the bottleneck stage's
    #: TP-sharded parameters.
    dp_payload_bytes: int
    #: Total gathered activation bytes of the step's TP allgathers.
    tp_payload_bytes: int
    tp_collectives: int
    #: One microbatch's activation bytes across all stage cuts.
    boundary_micro_bytes: int
    cuts: int


def partition_layers(costs: Sequence[int], pp: int) -> tuple[int, ...]:
    """Contiguous ``pp``-way split of ``costs``, balanced deterministically.

    Cut ``j`` lands at the smallest prefix holding at least ``j/pp`` of
    the total cost (compared in exact integers), nudged so every stage
    keeps at least one layer.  Returns ``pp + 1`` boundary indices.
    """
    n = len(costs)
    if pp < 1:
        raise ValueError(f"pp must be >= 1, got {pp}")
    if pp > n:
        raise ValueError(
            f"cannot split {n} layers into {pp} pipeline stages")
    total = sum(costs)
    bounds = [0]
    prefix = 0
    index = 0
    for j in range(1, pp):
        target = j * total
        while index < n and prefix * pp < target:
            prefix += costs[index]
            index += 1
        # Keep this stage non-empty and leave enough layers behind.
        cut = max(index, bounds[-1] + 1)
        cut = min(cut, n - (pp - j))
        if cut > index:
            prefix += sum(costs[index:cut])
            index = cut
        elif cut < index:
            prefix -= sum(costs[cut:index])
            index = cut
        bounds.append(cut)
    bounds.append(n)
    return tuple(bounds)


def _apportion(value: int, weights: Sequence[int]) -> list[int]:
    """Split ``value`` by ``weights`` with largest-remainder rounding.

    Exact: the shares always sum to ``value``.  Zero total weight falls
    back to uniform weights so nothing is silently dropped.
    """
    n = len(weights)
    total = sum(weights)
    if total == 0:
        weights = [1] * n
        total = n
    shares = [value * w // total for w in weights]
    remainder = value - sum(shares)
    if remainder:
        order = sorted(range(n), key=lambda s: (-(value * weights[s] % total),
                                                s))
        for s in order[:remainder]:
            shares[s] += 1
    return shares


def build_pipeline_schedule(
    network: Network,
    algorithm: Algorithm,
    step: LoweredStep,
    op_cycles: "Sequence[int] | np.ndarray",
    phase_cycles: Mapping[Phase, int],
    local_batch: int,
    plan: ParallelPlan,
) -> PipelineSchedule:
    """Split one replica's priced schedule into a pipeline schedule.

    ``step`` holds the step's GEMM ops as columns (built with the
    plan's ``tp``; its ``layer`` column assigns each op to a layer) and
    ``op_cycles`` each op's integer cycles; ``phase_cycles`` maps every
    phase of the step to its *total* cycles (GEMM + vector).  The scalar
    driver passes :meth:`LoweredStep.from_ops` of its op log and the
    batched evaluator its :func:`~repro.training.batch.lowered_step`;
    both produce identical integers here, which makes the resulting
    schedule — and everything priced from it — bitwise-equal across the
    two paths.  Per-op sums run in int64 NumPy.
    """
    pp, tp = plan.pp, plan.tp
    layers = network.layers
    cycles = np.asarray(op_cycles, dtype=np.int64)
    layer_cost = np.zeros(len(layers), dtype=np.int64)
    np.add.at(layer_cost, step.layer, cycles)
    bounds = partition_layers(layer_cost.tolist(), pp)

    # -- per-stage, per-phase cycles ----------------------------------------
    # Stage s holds layers below bounds[s + 1].
    stage = np.searchsorted(bounds[1:], step.layer, side="right")
    gemm = np.zeros((len(STEP_PHASES), pp), dtype=np.int64)
    np.add.at(gemm, (step.phase, stage), cycles)

    spans = list(zip(bounds, bounds[1:]))
    params_w = [network.params_prefix[b] - network.params_prefix[a]
                for a, b in spans]
    act_w = [network.vector_path_prefix[b] - network.vector_path_prefix[a]
             for a, b in spans]

    stage_phase: dict[Phase, list[int]] = {}
    for phase in PHASE_ORDER:
        if phase not in phase_cycles:
            continue
        gemm_row = gemm[STEP_PHASES.index(phase)].tolist()
        weights = act_w if phase in _ACT_PHASES else params_w
        shares = _apportion(phase_cycles[phase] - sum(gemm_row), weights)
        stage_phase[phase] = [g + v for g, v in zip(gemm_row, shares)]

    stage_cycles = [sum(column) for column in zip(*stage_phase.values())]
    tail = stage_phase.get(Phase.BWD_REDUCE_NOISE, [0] * pp)
    micro = [stage_cycles[s] - tail[s] for s in range(pp)]

    # -- microbatched makespan ----------------------------------------------
    m = plan.resolved_microbatches(local_batch)
    sum_micro = sum(micro)
    max_micro = max(micro)
    steady = -(-(sum_micro + (m - 1) * max_micro) // m)
    pipeline_cycles = steady + max(tail)
    bubble_cycles = steady - max_micro

    bottleneck = stage_cycles.index(max(stage_cycles))
    overlap_phase = (Phase.BWD_GRAD_CLIP if algorithm is Algorithm.DP_SGD
                     else Phase.BWD_BATCH_GRAD)
    overlappable = stage_phase.get(overlap_phase, [0] * pp)[bottleneck]

    # -- communication payloads ---------------------------------------------
    dp_payload = max(-(-p // tp) for p in params_w) * _GRAD_BYTES
    tp_payload = 0
    tp_collectives = 0
    if tp > 1:
        gathers = _TP_GATHERS[step.phase]
        tp_payload = (int((step.m * step.n * step.count)[gathers].sum())
                      * tp * _ACT_BYTES)
        tp_collectives = int(gathers.sum())
        if algorithm.is_private:
            # Per-example norm partials combine once across the TP group.
            tp_payload += local_batch * _GRAD_BYTES
            tp_collectives += 1

    micro_examples = -(-local_batch // m)
    boundary_micro_bytes = sum(
        micro_examples * layers[bounds[j] - 1].out_elems * _ACT_BYTES
        for j in range(1, pp))

    return PipelineSchedule(
        plan=plan,
        microbatches=m,
        stage_bounds=bounds,
        stage_cycles=tuple(stage_cycles),
        stage_params=tuple(params_w),
        pipeline_cycles=pipeline_cycles,
        bubble_cycles=bubble_cycles,
        overlappable_cycles=overlappable,
        dp_payload_bytes=dp_payload,
        tp_payload_bytes=tp_payload,
        tp_collectives=tp_collectives,
        boundary_micro_bytes=boundary_micro_bytes,
        cuts=pp - 1,
    )


def stage_memory_breakdown(
    network: Network,
    algorithm: Algorithm,
    local_batch: int,
    stage_bounds: Sequence[int],
    tp: int = 1,
    act_bytes: int = 2,
    grad_bytes: int = 4,
    master_bytes: int = 4,
    optimizer_slots: int = 1,
) -> list[MemoryBreakdown]:
    """Per-stage HBM footprint of one pipeline replica's chips.

    Mirrors :func:`repro.training.memory.memory_breakdown` category by
    category, restricted to the layers of each stage and with every
    parameter-proportional term sharded ``ceil(.../tp)`` across the TP
    group (activations stay replicated: TP ranks hold the gathered
    tensors).  With one stage and ``tp=1`` the single entry reproduces
    the whole-chip breakdown exactly — pinned in tests.
    """
    if local_batch <= 0:
        raise ValueError(f"batch must be positive, got {local_batch}")
    breakdowns: list[MemoryBreakdown] = []
    for s in range(len(stage_bounds) - 1):
        layers = network.layers[stage_bounds[s]:stage_bounds[s + 1]]
        params = sum(l.params for l in layers)
        shard_params = -(-params // tp)
        weights = shard_params * (master_bytes + act_bytes)
        act_elems = sum(l.out_elems for l in layers)
        if s == 0:
            act_elems += network.input_elems
        activations = act_elems * local_batch * act_bytes
        batch_gradients = shard_params * grad_bytes
        if algorithm.stores_example_gradients:
            example_gradients = shard_params * grad_bytes * local_batch
        elif algorithm.is_private:
            largest = max((l.params for l in layers), default=0)
            example_gradients = (-(-largest // tp)) * grad_bytes * local_batch
        else:
            example_gradients = 0
        other = shard_params * grad_bytes * optimizer_slots
        if s == 0:
            other += network.input_elems * local_batch * act_bytes
        if algorithm.is_private:
            weight_layers = sum(1 for l in layers if l.has_weights)
            other += 2 * local_batch * weight_layers * grad_bytes
        breakdowns.append(MemoryBreakdown(
            weights=weights,
            activations=activations,
            batch_gradients=batch_gradients,
            example_gradients=example_gradients,
            other=other,
        ))
    return breakdowns

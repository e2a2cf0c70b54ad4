"""Training-step simulation driver.

:func:`simulate_training_step` executes one mini-batch step of a given
algorithm on a given accelerator model and returns a
:class:`TrainingReport`: per-phase latency / traffic / MAC aggregates
from which every performance figure of the paper (5, 13, 14, 15, 16 and
the PPU traffic claim) is derived.

Modeling notes
--------------
* GEMMs follow the Figure 6 schedules from :mod:`repro.training.plan`.
* Element-wise layers (ReLU, pooling, normalization math, residual
  adds, softmax) run on the vector unit with full DRAM round trips — a
  conservative, fusion-free model that is negligible next to the GEMM
  and post-processing phases.
* Per-example gradients of *vector-path* parameters (LayerNorm /
  BatchNorm affine vectors, embeddings) are materialized densely to
  DRAM and normed by the vector unit on every design point — the PPU
  only intercepts gradients drained from the GEMM engine.
* With a PPU on an output-stationary drain, per-example gradient norms
  fuse into the weight-gradient GEMMs (``fuse_norm``), and under
  DP-SGD(R) the gradients themselves are never written off-chip — the
  source of the paper's "99% reduction in off-chip data movement during
  gradient post-processing".
* Multi-chip execution (:func:`simulate_sharded_training_step`) is
  data-parallel: the global mini-batch splits evenly across the chips
  of a :class:`repro.arch.cluster.Cluster`, every per-example phase
  runs locally on a shard, one communication phase charges the
  norm + clipped-gradient-sum allreduce, and the optimizer (reduce /
  noise / update) runs replicated — every chip holds the full model,
  generates identical noise from a shared seed, and applies the same
  update, so no parameter broadcast is needed.  Passing a ``Cluster``
  to :func:`simulate_training_step` dispatches to the sharded path.
* Communication/compute overlap (``overlap=True``, the default) models
  the standard DDP bucketed-allreduce schedule: when the interconnect
  buckets the gradient payload (``InterconnectConfig.bucket_bytes``),
  a bucket allreduces while backward compute is still producing later
  buckets.  The ``Comm`` phase then charges only the *exposed* time,
  ``max(first-bucket latency, comm_total - overlappable backward
  cycles)``, with the hidden remainder recorded in
  ``OpRun.hidden_cycles`` so reports can show both.  The overlappable
  window is the gradient-*producing* backward phase
  (:func:`overlappable_backward_cycles`) scaled by ``(B-1)/B`` for
  ``B`` buckets — the first bucket must exist before any wire time can
  hide.  With one monolithic bucket nothing overlaps (the sum is only
  ready when backward ends), so ``overlap`` changes nothing unless
  bucketing is on; the tiny per-example norm allreduce (which feeds
  the shared privacy accountant) is charged serially — conservative,
  and negligible at ``B * 4`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator, OpRun
from repro.arch.cluster import Cluster, ParallelPlan
from repro.arch.interconnect import TOPOLOGY_CODES
from repro.training.algorithms import Algorithm
from repro.training.phases import CLUSTER_PHASE_ORDER, PHASE_ORDER, Phase
from repro.training.plan import phase_gemms
from repro.workloads.gemms import Gemm
from repro.workloads.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

#: Storage width of gradients / norms (FP32).
GRAD_BYTES = 4
#: Storage width of activations (BF16).
ACT_BYTES = 2


@dataclass(frozen=True)
class TrainingReport:
    """Per-phase execution aggregates of one training step."""

    network: str
    family: str
    algorithm: Algorithm
    accelerator: str
    with_ppu: bool
    batch: int
    frequency_hz: float
    phases: dict[Phase, OpRun]

    @cached_property
    def total(self) -> OpRun:
        """Aggregate over all phases."""
        total = OpRun.zero()
        for run in self.phases.values():
            total = total + run
        return total

    @property
    def total_cycles(self) -> int:
        return self.total.cycles

    @property
    def total_seconds(self) -> float:
        return self.total.cycles / self.frequency_hz

    def phase_cycles(self, phase: Phase) -> int:
        return self.phases.get(phase, OpRun.zero()).cycles

    def phase_seconds(self, phase: Phase) -> float:
        return self.phase_cycles(phase) / self.frequency_hz

    @property
    def backprop_fraction(self) -> float:
        """Fraction of the step spent in backpropagation (Section III-B)."""
        fwd = self.phase_cycles(Phase.FWD)
        if self.total_cycles == 0:
            return 0.0
        return 1.0 - fwd / self.total_cycles

    @property
    def postprocessing_dram_bytes(self) -> int:
        """Off-chip traffic of per-example gradient post-processing.

        Covers the per-example gradient spill (the write side of the
        example-gradient phase) plus the norm-derivation and clipping
        traffic — the quantity the PPU shrinks by ~99% (Section I).
        The reduce/noise/update phase is excluded: it operates on
        per-batch state that exists under every algorithm.
        """
        spill = self.phases.get(Phase.BWD_EXAMPLE_GRAD,
                                OpRun.zero()).dram_write_bytes
        post = sum(
            self.phases.get(p, OpRun.zero()).dram_bytes
            for p in (Phase.BWD_GRAD_NORM, Phase.BWD_GRAD_CLIP)
        )
        return spill + post

    def breakdown(self) -> dict[str, float]:
        """Phase -> seconds mapping in figure order."""
        return {str(p): self.phase_seconds(p) for p in PHASE_ORDER}


@dataclass(frozen=True)
class ClusterTrainingReport:
    """One data-parallel sharded training step on a multi-chip cluster.

    ``shard`` is the local execution of one chip's shard (all chips are
    identical, so one report represents every shard); ``comm`` is the
    cross-chip collective stage.  The step latency is
    ``shard latency + comm latency``, where ``comm.cycles`` is the
    *exposed* (critical-path) communication: with overlap enabled and a
    bucketed interconnect, the portion of the gradient allreduce hidden
    behind backward compute lands in ``comm.hidden_cycles`` instead.
    Serial execution (``overlap=False``, or a single monolithic bucket)
    exposes everything and ``hidden_cycles`` is zero.

    A 3D :class:`~repro.arch.cluster.ParallelPlan` (``pp > 1`` or
    ``tp > 1``) additionally records the pipeline schedule:
    ``pipeline_cycles`` is the microbatched makespan of the bottleneck
    replica (it replaces ``shard.total.cycles`` in the critical path),
    ``bubble_cycles`` the fill/drain idle time inside it, and
    ``stage_cycles`` / ``stage_bounds`` the per-stage split of the
    shard's work.  Pure-DP reports keep the zero defaults and are
    structurally identical to the pre-3D model.
    """

    cluster: str
    n_chips: int
    topology: str
    global_batch: int
    shard: TrainingReport
    comm: OpRun
    overlap: bool = True
    plan: "ParallelPlan | None" = None
    pipeline_cycles: int = 0
    bubble_cycles: int = 0
    microbatches: int = 1
    stage_cycles: "tuple[int, ...]" = ()
    stage_bounds: "tuple[int, ...]" = ()

    @property
    def local_batch(self) -> int:
        """Per-replica shard size (``global_batch / dp``)."""
        if self.plan is not None:
            return self.global_batch // self.plan.dp
        return self.global_batch // self.n_chips

    @property
    def frequency_hz(self) -> float:
        return self.shard.frequency_hz

    @cached_property
    def phases(self) -> dict[Phase, OpRun]:
        """Shard phases plus the communication phase."""
        merged = dict(self.shard.phases)
        merged[Phase.COMM] = self.comm
        return merged

    @cached_property
    def total(self) -> OpRun:
        """Critical-path aggregate of one chip (local phases + comm).

        With a pipelined plan the compute portion is the microbatched
        makespan — the shard's work counters (MACs, DRAM traffic) are
        kept, only its latency is replaced.
        """
        if self.pipeline_cycles:
            return replace(self.shard.total,
                           cycles=self.pipeline_cycles) + self.comm
        return self.shard.total + self.comm

    @property
    def total_cycles(self) -> int:
        return self.total.cycles

    @property
    def total_seconds(self) -> float:
        return self.total.cycles / self.frequency_hz

    @property
    def compute_seconds(self) -> float:
        """Local (per-shard / pipelined) portion of the step."""
        if self.pipeline_cycles:
            return self.pipeline_cycles / self.frequency_hz
        return self.shard.total_seconds

    @property
    def comm_seconds(self) -> float:
        """Exposed (critical-path) collective portion of the step."""
        return self.comm.cycles / self.frequency_hz

    @property
    def comm_exposed_seconds(self) -> float:
        """Alias of :attr:`comm_seconds` — the un-hidden collective time."""
        return self.comm_seconds

    @property
    def comm_total_seconds(self) -> float:
        """Total wire time of the collectives, exposed plus hidden."""
        return self.comm.busy_cycles / self.frequency_hz

    @property
    def comm_hidden_seconds(self) -> float:
        """Collective time overlapped behind backward compute."""
        return self.comm.hidden_cycles / self.frequency_hz

    @property
    def comm_fraction(self) -> float:
        """Fraction of the step spent in the (exposed) allreduce stage."""
        if self.total_cycles == 0:
            return 0.0
        return self.comm.cycles / self.total_cycles

    @property
    def cluster_dram_bytes(self) -> int:
        """Off-chip traffic summed over all chips."""
        return self.shard.total.dram_bytes * self.n_chips

    @property
    def cluster_link_bytes(self) -> int:
        """Interconnect wire traffic summed over all chips."""
        return self.comm.link_bytes * self.n_chips

    def phase_cycles(self, phase: Phase) -> int:
        return self.phases.get(phase, OpRun.zero()).cycles

    def phase_seconds(self, phase: Phase) -> float:
        return self.phase_cycles(phase) / self.frequency_hz

    def breakdown(self) -> dict[str, float]:
        """Phase -> seconds mapping, communication last."""
        return {str(p): self.phase_seconds(p) for p in CLUSTER_PHASE_ORDER}


def _elementwise(accel: Accelerator, elems: int,
                 ops_per_elem: float = 1.0) -> OpRun:
    """Vector-unit pass over ``elems`` values with a DRAM round trip."""
    if elems <= 0:
        return OpRun.zero()
    return accel.run_vector(
        elems,
        ops_per_elem=ops_per_elem,
        dram_read_bytes=elems * ACT_BYTES,
        dram_write_bytes=elems * ACT_BYTES,
    )


@dataclass(frozen=True)
class GemmOp:
    """One GEMM of a training step, with its execution options.

    The declarative form of a :meth:`Accelerator.run_gemm` call —
    shared by the scalar driver (which executes it directly) and the
    batched evaluator (:mod:`repro.training.batch`, which prices whole
    grids of them in a few NumPy passes).
    """

    phase: Phase
    gemm: Gemm
    write_output: bool = True
    fuse_norm: bool = False


def _tp_shard_gemm(gemm: Gemm, tp: int) -> Gemm:
    """Megatron-style column shard: the output dimension splits ``tp`` ways.

    ``ceil`` keeps ragged shards conservative (every rank runs the
    widest shard); ``tp=1`` callers skip this entirely so the pure-DP
    schedule is the untouched original.
    """
    return replace(gemm, n=-(-gemm.n // tp))


def step_gemm_ops(
    network: Network,
    algorithm: Algorithm,
    accelerator: Accelerator,
    batch: int,
    tp: int = 1,
) -> list[GemmOp]:
    """The GEMM operations of one training step, in schedule order.

    Encodes the per-phase execution options of the Figure 6 schedules:
    per-example weight-gradient GEMMs spill only when the algorithm
    stores the gradients or the dataflow cannot forward them
    (``write_output``), and norm derivation fuses into the drain when
    the design has a matched PPU (``fuse_norm``) — see
    :func:`simulate_training_step` for the modeling rationale.

    ``tp > 1`` prices one tensor-parallel rank: every GEMM's output
    dimension is column-sharded ``tp`` ways (the activation allgathers
    stitching shards back together are charged by the cluster's
    communication phase, not here).
    """
    plan = phase_gemms(network, algorithm, batch)
    if tp > 1:
        plan = {phase: [_tp_shard_gemm(g, tp) for g in gemms]
                for phase, gemms in plan.items()}
    ops = [GemmOp(Phase.FWD, g) for g in plan[Phase.FWD]]
    ops += [GemmOp(Phase.BWD_ACT_1, g) for g in plan[Phase.BWD_ACT_1]]
    if algorithm.is_private:
        # Plain DP-SGD must keep the gradients for clipping.  Under
        # DP-SGD(R) the gradients exist only for norm derivation:
        # an output-stationary drain forwards them on the fly (to the
        # PPU, or failing that the vector unit) and never writes them
        # off-chip; only the WS baseline must spill them to DRAM
        # (Figure 10).
        os_drain = accelerator.engine.dataflow == "output_stationary"
        write_grads = algorithm.stores_example_gradients or not os_drain
        fuse = accelerator.can_fuse_norm
        ops += [GemmOp(Phase.BWD_EXAMPLE_GRAD, g,
                       write_output=write_grads, fuse_norm=fuse)
                for g in plan[Phase.BWD_EXAMPLE_GRAD]]
    if algorithm is Algorithm.DP_SGD_R:
        ops += [GemmOp(Phase.BWD_ACT_2, g) for g in plan[Phase.BWD_ACT_2]]
    if algorithm in (Algorithm.DP_SGD_R, Algorithm.SGD):
        ops += [GemmOp(Phase.BWD_BATCH_GRAD, g)
                for g in plan[Phase.BWD_BATCH_GRAD]]
    return ops


def step_vector_runs(
    network: Network,
    algorithm: Algorithm,
    accelerator: Accelerator,
    batch: int,
    tp: int = 1,
) -> dict[Phase, OpRun]:
    """Non-GEMM (vector / element-wise) work of one step, per phase.

    Executes the vector-unit kernels of every phase the step touches
    and returns them keyed by phase — phases whose work is GEMM-only
    carry a zero :class:`OpRun` so the mapping's key set is exactly the
    step's phase set.  Adding each phase's :func:`step_gemm_ops` GEMMs
    on top reconstitutes the full report (OpRun addition commutes).

    ``tp > 1`` prices one tensor-parallel rank: parameter-proportional
    kernels (per-example gradients, norms, clip, reduce/noise/update)
    operate on the rank's ``ceil(params / tp)`` shard, while
    activation-proportional element-wise work stays replicated (every
    rank holds the full, allgathered activations).
    """
    fuse = accelerator.can_fuse_norm
    gemm_params = network.gemm_params
    vector_params = network.vector_grad_params
    all_params = network.params
    if tp > 1:
        gemm_params = -(-gemm_params // tp)
        vector_params = -(-vector_params // tp)
        all_params = -(-all_params // tp)
    act_elems = batch * network.vector_path_elems
    phases: dict[Phase, OpRun] = {}

    phases[Phase.FWD] = _elementwise(accelerator, act_elems)
    phases[Phase.BWD_ACT_1] = _elementwise(accelerator, act_elems)

    if algorithm.is_private:
        os_drain = accelerator.engine.dataflow == "output_stationary"
        example = OpRun.zero()
        if vector_params:
            # Dense materialization of embedding / norm-affine
            # per-example gradients (vector path on every design).
            example = example + accelerator.run_vector(
                batch * vector_params,
                dram_write_bytes=batch * vector_params * GRAD_BYTES,
            )
        phases[Phase.BWD_EXAMPLE_GRAD] = example

        # -- per-example gradient norms ---------------------------------------
        norm = OpRun.zero()
        if fuse:
            # PPU path: tree outputs only need the final per-example
            # accumulation — norm derivation rode along with the drain.
            norm = norm + accelerator.run_vector(
                batch * len(network.weight_layers), reduction=True)
        elif os_drain:
            # No PPU, but the fine-grained OS drain forwards each output
            # tile to the vector unit, which square-reduces it while the
            # GEMM engine stalls (Section IV-C): compute-serialized, no
            # off-chip spill.
            norm = norm + accelerator.run_vector(
                batch * gemm_params, ops_per_elem=2.0, reduction=True)
        else:
            # WS: fetch the DRAM-spilled gradients back and square-reduce
            # them on the vector unit — the memory-bound stage of
            # Section III-C.
            norm = norm + accelerator.run_vector(
                batch * gemm_params,
                ops_per_elem=2.0,
                dram_read_bytes=batch * gemm_params * GRAD_BYTES,
                reduction=True,
            )
        if vector_params:
            norm = norm + accelerator.run_vector(
                batch * vector_params,
                ops_per_elem=2.0,
                dram_read_bytes=batch * vector_params * GRAD_BYTES,
                reduction=True,
            )
        phases[Phase.BWD_GRAD_NORM] = norm

    if algorithm is Algorithm.DP_SGD:
        # -- clip, then reduce + noise ----------------------------------------
        phases[Phase.BWD_GRAD_CLIP] = accelerator.run_vector(
            batch * all_params,
            dram_read_bytes=batch * all_params * GRAD_BYTES,
            dram_write_bytes=batch * all_params * GRAD_BYTES,
        )
        reduce = accelerator.run_vector(
            batch * all_params,
            dram_read_bytes=batch * all_params * GRAD_BYTES,
            dram_write_bytes=all_params * GRAD_BYTES,
            reduction=True,
        )
        phases[Phase.BWD_REDUCE_NOISE] = reduce + _noise_and_update(
            accelerator, all_params)

    elif algorithm is Algorithm.DP_SGD_R:
        # Reweighting the loss gradients by the clip scales is a tiny
        # per-example scale riding with the second backward pass.
        phases[Phase.BWD_ACT_2] = (_elementwise(accelerator, act_elems)
                                   + accelerator.run_vector(batch))
        phases[Phase.BWD_BATCH_GRAD] = OpRun.zero()
        phases[Phase.BWD_REDUCE_NOISE] = _noise_and_update(
            accelerator, all_params)

    else:  # non-private SGD
        phases[Phase.BWD_BATCH_GRAD] = OpRun.zero()
        phases[Phase.BWD_REDUCE_NOISE] = _update_only(accelerator, all_params)

    return phases


def _simulate_chip_step(
    network: Network,
    algorithm: Algorithm,
    accelerator: Accelerator,
    batch: int,
    collect_ops: bool,
    tp: int = 1,
) -> "tuple[TrainingReport, list[tuple[GemmOp, OpRun]] | None]":
    """Execute one single-chip step; optionally keep per-GEMM records.

    The op log only exists when a trace recorder asked for it
    (``collect_ops``) — the default path allocates nothing and runs
    the exact pre-observability sequence.
    """
    op_log: list[tuple[GemmOp, OpRun]] | None = \
        [] if collect_ops else None
    phases = step_vector_runs(network, algorithm, accelerator, batch, tp)
    for op in step_gemm_ops(network, algorithm, accelerator, batch, tp):
        run = accelerator.run_gemm(
            op.gemm, write_output=op.write_output, fuse_norm=op.fuse_norm)
        phases[op.phase] = phases[op.phase] + run
        if op_log is not None:
            op_log.append((op, run))
    report = TrainingReport(
        network=network.name,
        family=network.family,
        algorithm=algorithm,
        accelerator=accelerator.name,
        with_ppu=accelerator.ppu is not None,
        batch=batch,
        frequency_hz=accelerator.frequency_hz,
        phases=phases,
    )
    return report, op_log


def simulate_training_step(
    network: Network,
    algorithm: Algorithm,
    accelerator: "Accelerator | Cluster",
    batch: int,
    *,
    plan: "ParallelPlan | None" = None,
    overlap: bool = True,
    recorder: "TraceRecorder | None" = None,
) -> "TrainingReport | ClusterTrainingReport":
    """Simulate one training step and return the per-phase report.

    Passing a :class:`~repro.arch.cluster.Cluster` dispatches to
    :func:`simulate_sharded_training_step` with ``batch`` as the global
    mini-batch, returning a :class:`ClusterTrainingReport`; ``plan``
    and ``overlap`` only matter on that path (single-chip steps have no
    collectives).

    The step decomposes into :func:`step_gemm_ops` (the GEMM schedule)
    plus :func:`step_vector_runs` (everything the vector unit does);
    :func:`repro.training.batch.training_step_batch` evaluates the same
    decomposition over whole config grids in NumPy and is pinned
    cycle-identical to this driver.

    ``recorder`` (a :class:`repro.obs.trace.TraceRecorder`) lays the
    step's per-phase and per-GEMM spans on the recorder's simulated
    timeline; ``None`` (default) records nothing and changes nothing.
    """
    if isinstance(accelerator, Cluster):
        return simulate_sharded_training_step(
            network, algorithm, accelerator, batch, plan=plan,
            overlap=overlap, recorder=recorder)
    if plan is not None and plan.n_chips != 1:
        raise ValueError(
            f"plan {plan} needs a Cluster, not a single accelerator")
    report, op_log = _simulate_chip_step(
        network, algorithm, accelerator, batch, recorder is not None)
    if recorder is not None:
        from repro.obs.trace import add_training_step_spans

        assert op_log is not None
        add_training_step_spans(recorder, report, op_log)
    return report


def allreduce_payload_bytes(network: Network,
                            algorithm: Algorithm,
                            global_batch: int) -> list[int]:
    """Per-collective payloads of one sharded step, in bytes.

    Data-parallel DP-SGD needs at most two collectives:

    * the per-batch (clipped) gradient sum — ``params * GRAD_BYTES``
      for every algorithm, since each chip only holds its shard's
      partial sum;
    * per-example norm bookkeeping — ``global_batch * GRAD_BYTES``,
      private algorithms only.  Clipping itself is local (each norm
      belongs to one shard's example), but the clip-scale statistics
      feed the shared privacy accountant, so one scalar per example
      crosses chips.
    """
    payloads = [network.params * GRAD_BYTES]
    if algorithm.is_private:
        payloads.append(global_batch * GRAD_BYTES)
    return payloads


def overlappable_backward_cycles(report: TrainingReport) -> int:
    """Backward cycles the gradient allreduce may hide behind.

    The overlappable window is the phase that *produces* the per-batch
    gradient payload bucket by bucket: under DP-SGD the clipping pass
    (clip-and-accumulate finalizes the local sum for a parameter bucket
    once every example's slice of it has been scaled), under DP-SGD(R)
    and plain SGD the per-batch weight-gradient GEMMs (gradients
    materialize layer by layer).  Everything after the allreduce
    (reduce tail, noise, update) can never overlap and is excluded.
    """
    if report.algorithm is Algorithm.DP_SGD:
        return report.phase_cycles(Phase.BWD_GRAD_CLIP)
    return report.phase_cycles(Phase.BWD_BATCH_GRAD)


def simulate_sharded_training_step(
    network: Network,
    algorithm: Algorithm,
    cluster: Cluster,
    global_batch: int,
    *,
    plan: "ParallelPlan | None" = None,
    overlap: bool = True,
    recorder: "TraceRecorder | None" = None,
) -> ClusterTrainingReport:
    """Simulate one (possibly 3D-)parallel training step on a cluster.

    ``plan=None`` (default) is pure data parallelism over all ``N``
    chips; any explicit :class:`~repro.arch.cluster.ParallelPlan` with
    ``pp == tp == 1`` is the same plan, so both spellings are
    bitwise-equal.  Plans with ``pp > 1`` or ``tp > 1`` also split the
    declarative schedule into pipeline stages (GPipe-style
    microbatching with closed-form bubble accounting) and
    tensor-parallel GEMM shards whose activation allgathers ride the
    fabric's intra-node link — see :mod:`repro.training.parallel`.
    Every plan prices its communication with
    :func:`repro.training.batch.step_comm_cycles` on length-1 columns,
    the composition :func:`~repro.training.batch.sharded_step_batch`
    evaluates over whole grids.

    The global mini-batch must divide evenly by the data-parallel
    degree.  Each replica runs the full phase sequence on its
    ``global_batch / dp`` shard (the per-batch reduce/noise/update tail
    is replicated, so it appears once — all chips execute it in
    lock-step on identical data).  The communication phase charges one
    allreduce per payload of :func:`allreduce_payload_bytes`; fractional
    collective seconds accumulate across the step and quantize to
    cluster cycles *once*, so no per-collective (or, with bucketing,
    per-bucket) rounding surcharge creeps in.  On an ``N=1`` cluster
    every collective is free and the shard report is bitwise-identical
    to :func:`simulate_training_step` on the bare chip.

    With ``overlap=True`` (default) and a bucketed interconnect, the
    gradient-sum allreduce overlaps the backward compute that produces
    later buckets: the ``Comm`` phase charges
    ``max(first-bucket latency, comm_total - overlappable backward
    seconds)`` for that collective, and the hidden remainder is
    recorded in ``comm.hidden_cycles``.  ``overlap=False`` — or a
    single monolithic bucket, whose payload only exists once backward
    has finished — charges the full serial time, identical to the
    pre-overlap model.

    ``recorder`` traces the shard's phase/GEMM spans plus the
    collective stage, with any overlapped wire time rendered as an
    async ``hidden`` slice (see :mod:`repro.obs.trace`).
    """
    from repro.training.batch import LoweredStep, step_comm_cycles

    n = cluster.n_chips
    if plan is not None:
        plan.validate(n)
    pure_dp = plan is None or plan.is_pure_dp
    dp = n if plan is None else plan.dp
    if global_batch <= 0:
        raise ValueError(f"global batch must be positive, got {global_batch}")
    if global_batch % dp:
        across = (f"{n} chips" if pure_dp else
                  f"{dp} data-parallel replicas of plan {plan}")
        raise ValueError(f"global batch {global_batch} does not divide "
                         f"evenly across {across}")
    local_batch = global_batch // dp
    tp = 1 if plan is None else plan.tp
    shard, op_log = _simulate_chip_step(
        network, algorithm, cluster.chip, local_batch,
        recorder is not None or not pure_dp, tp=tp)
    payloads = allreduce_payload_bytes(network, algorithm, global_batch)
    norm_payload = payloads[1] if len(payloads) > 1 else 0
    if pure_dp:
        grad_payload = payloads[0]
        overlappable = overlappable_backward_cycles(shard)
        pp_fields, schedule = {}, {}
    else:
        from repro.training.parallel import build_pipeline_schedule

        assert plan is not None and op_log is not None
        sched = build_pipeline_schedule(
            network, algorithm,
            LoweredStep.from_ops(network, [op for op, _ in op_log]),
            [run.cycles for _, run in op_log],
            {phase: run.cycles for phase, run in shard.phases.items()},
            local_batch, plan)
        # The data-parallel gradient payload shrinks to one stage's
        # TP-sharded parameters, and the overlap window to the
        # bottleneck stage's share of the gradient-producing phase.
        grad_payload = sched.dp_payload_bytes
        overlappable = sched.overlappable_cycles
        pp_fields = dict(
            tp=plan.tp, pp=plan.pp, tp_payload=sched.tp_payload_bytes,
            tp_collectives=sched.tp_collectives,
            boundary=sched.boundary_micro_bytes, cuts=sched.cuts,
            microbatches=sched.microbatches)
        schedule = dict(
            pipeline_cycles=sched.pipeline_cycles,
            bubble_cycles=sched.bubble_cycles,
            microbatches=sched.microbatches,
            stage_cycles=sched.stage_cycles,
            stage_bounds=sched.stage_bounds)

    ic = cluster.interconnect.config
    exposed, total, wire = step_comm_cycles(
        np.array([grad_payload]), np.array([norm_payload]),
        np.array([dp]), np.array([TOPOLOGY_CODES[ic.topology]]),
        np.array([ic.bucket_bytes or 0]), np.array([ic.chips_per_node]),
        ic.links.link_params(), overlappable, cluster.frequency_hz,
        overlap, **pp_fields)
    comm = OpRun(
        cycles=int(exposed[0]),
        hidden_cycles=int(total[0] - exposed[0]),
        link_bytes=int(wire[0]),
    )
    report = ClusterTrainingReport(
        cluster=cluster.name,
        n_chips=n,
        topology=cluster.topology,
        global_batch=global_batch,
        shard=shard,
        comm=comm,
        overlap=overlap,
        plan=plan,
        **schedule,
    )
    if recorder is not None:
        from repro.obs.trace import add_cluster_step_spans

        assert op_log is not None
        add_cluster_step_spans(recorder, report, op_log)
    return report


def _noise_and_update(accel: Accelerator, params: int) -> OpRun:
    """Gaussian noise generation/addition plus the SGD weight update."""
    noise = accel.run_vector(
        params,
        ops_per_elem=3.0,  # RNG draw, scale, add
        dram_read_bytes=params * GRAD_BYTES,
        dram_write_bytes=params * GRAD_BYTES,
    )
    return noise + _update_only(accel, params)


def _update_only(accel: Accelerator, params: int) -> OpRun:
    """Weight update: read gradient + master weight, write new weight."""
    return accel.run_vector(
        params,
        ops_per_elem=2.0,
        dram_read_bytes=2 * params * GRAD_BYTES,
        dram_write_bytes=params * GRAD_BYTES,
    )


# -- checkpoint/restart cost model -------------------------------------------

#: Default checkpoint storage write bandwidth: a burst buffer / local
#: SSD tier at 2 GiB/s per cluster.
DEFAULT_STORAGE_BYTES_PER_S = 2.0 * 2**30


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpoint cadence and storage path of one training job.

    ``interval_steps`` is the number of optimizer steps between
    checkpoint writes; ``None`` asks the consumer to derive a
    Young/Daly-optimal cadence from the failure rate
    (:func:`young_daly_interval_s`).  ``storage_bytes_per_s`` is the
    sequential write bandwidth the checkpoint state
    (:func:`repro.training.memory.checkpoint_bytes`) drains through.
    """

    interval_steps: int | None = None
    storage_bytes_per_s: float = DEFAULT_STORAGE_BYTES_PER_S

    def __post_init__(self) -> None:
        if self.interval_steps is not None and self.interval_steps < 1:
            raise ValueError(
                f"interval_steps must be >= 1 or None, got "
                f"{self.interval_steps}")
        if self.storage_bytes_per_s <= 0:
            raise ValueError(
                f"storage_bytes_per_s must be positive, got "
                f"{self.storage_bytes_per_s}")


def checkpoint_write_seconds(
    network: Network,
    config: CheckpointConfig = CheckpointConfig(),
) -> float:
    """Seconds one checkpoint write stalls training.

    State bytes come from the memory model
    (:func:`repro.training.memory.checkpoint_bytes`); the write is
    synchronous — steps do not overlap the drain — which keeps the
    model conservative and the closed forms below exact.
    """
    from repro.training.memory import checkpoint_bytes

    return checkpoint_bytes(network) / config.storage_bytes_per_s


def checkpointed_step_seconds(step_s: float, write_s: float,
                              interval_steps: int) -> float:
    """Step latency with the checkpoint write amortized per interval."""
    if interval_steps < 1:
        raise ValueError(
            f"interval_steps must be >= 1, got {interval_steps}")
    if step_s <= 0 or write_s < 0:
        raise ValueError(
            f"need step_s > 0 and write_s >= 0, got {step_s}, {write_s}")
    return step_s + write_s / interval_steps


def young_daly_interval_s(write_s: float, mtbf_s: float) -> float:
    """Young/Daly-optimal seconds of work between checkpoints.

    The classic first-order optimum ``sqrt(2 * write_s * mtbf_s)``
    (Young 1974; Daly 2006) for memoryless failures when checkpoint
    cost is small against the MTBF.  Property tests pin it against a
    sweep of :func:`expected_completion_seconds`.
    """
    if write_s <= 0 or mtbf_s <= 0:
        raise ValueError(
            f"write_s and mtbf_s must be positive, got {write_s}, "
            f"{mtbf_s}")
    return math.sqrt(2.0 * write_s * mtbf_s)


def _expected_segment_seconds(u_s: float, mtbf_s: float,
                              restart_s: float) -> float:
    """Expected wall time to finish ``u_s`` of uninterruptible work.

    Memoryless failures at rate ``1 / mtbf_s``; each failure loses the
    whole segment and pays ``restart_s`` of downtime before retrying.
    The renewal argument gives the exact closed form
    ``(mtbf + restart) * (e^(u / mtbf) - 1)``.
    """
    return (mtbf_s + restart_s) * math.expm1(u_s / mtbf_s)


def expected_completion_seconds(
    work_s: float,
    *,
    mtbf_s: float,
    interval_s: float,
    write_s: float = 0.0,
    restart_s: float = 0.0,
) -> float:
    """Expected wall time to finish ``work_s`` of checkpointed work.

    The job writes a checkpoint after every ``interval_s`` of
    progress (costing ``write_s``, during which a failure also loses
    the segment), failures arrive memorylessly with mean ``mtbf_s``,
    and each failure rolls back to the last checkpoint and pays
    ``restart_s`` of restart/repair downtime.  Exact for this model —
    :func:`simulate_checkpointed_run` is the discrete-event twin the
    property tests average against.
    """
    if work_s < 0:
        raise ValueError(f"work_s must be >= 0, got {work_s}")
    if mtbf_s <= 0 or interval_s <= 0:
        raise ValueError(
            f"mtbf_s and interval_s must be positive, got {mtbf_s}, "
            f"{interval_s}")
    if write_s < 0 or restart_s < 0:
        raise ValueError(
            f"write_s and restart_s must be >= 0, got {write_s}, "
            f"{restart_s}")
    n_full = int(work_s // interval_s)
    remainder_s = work_s - n_full * interval_s
    total = n_full * _expected_segment_seconds(
        interval_s + write_s, mtbf_s, restart_s)
    if remainder_s > 0:
        # The tail segment never checkpoints: the job is done.
        total += _expected_segment_seconds(remainder_s, mtbf_s, restart_s)
    return total


def simulate_checkpointed_run(
    work_s: float,
    failure_gaps_s: "Sequence[float]",
    *,
    interval_s: float,
    write_s: float = 0.0,
    restart_s: float = 0.0,
) -> float:
    """Discrete-event twin of :func:`expected_completion_seconds`.

    Replays one job against an explicit sequence of inter-failure
    times (so the caller owns the randomness — e.g. seeded draws from
    :class:`repro.serve.faults.FaultModel`): each segment of
    ``interval_s`` work plus its ``write_s`` checkpoint must run
    uninterrupted; a failure inside it wastes the elapsed fraction,
    pays ``restart_s``, and retries the segment from the checkpoint.
    Raises if the gap sequence is exhausted before the job finishes.
    """
    if work_s < 0:
        raise ValueError(f"work_s must be >= 0, got {work_s}")
    if interval_s <= 0:
        raise ValueError(
            f"interval_s must be positive, got {interval_s}")
    gaps = iter(failure_gaps_s)
    clock_s = 0.0
    until_failure_s = next(gaps)
    done_s = 0.0
    while done_s < work_s:
        segment_s = min(interval_s, work_s - done_s)
        need_s = segment_s + (write_s if segment_s == interval_s else 0.0)
        while until_failure_s < need_s:
            # Lost the segment: pay the elapsed fraction + restart.
            clock_s += until_failure_s + restart_s
            until_failure_s = next(gaps)
        clock_s += need_s
        until_failure_s -= need_s
        done_s += segment_s
    return clock_s


def stage_utilization(accel: Accelerator, gemms: list[Gemm]) -> float:
    """Aggregate FLOPS utilization of a GEMM list (Figures 7 / 15)."""
    if not gemms:
        return 0.0
    cycles = 0
    macs = 0
    for gemm in gemms:
        stats = accel.engine.gemm_stats(gemm)
        cycles += stats.compute_cycles
        macs += stats.macs
    if cycles == 0:
        return 0.0
    return macs / (cycles * accel.config.peak_macs_per_cycle)

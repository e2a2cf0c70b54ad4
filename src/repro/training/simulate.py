"""Training-step rules and the single-step simulation entry points.

:func:`simulate_training_step` prices one mini-batch step of a given
algorithm on a given accelerator model and returns a
:class:`TrainingReport`: per-phase latency / traffic / MAC aggregates
from which every performance figure of the paper (5, 13, 14, 15, 16 and
the PPU traffic claim) is derived.  The step is one spec of
:func:`repro.training.batch.training_step_batch`, the one step pricer;
the phases sum every :class:`OpRun` field of its collected op charges.
``tests/step_oracle.py`` keeps the per-op Python step as the oracle.

Modeling notes
--------------
* GEMMs follow the Figure 6 schedules, stated once by
  :func:`step_gemm_blocks`; the vector-unit work is stated once by
  :func:`step_vector_kernels`.
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
  window is the gradient-*producing* backward phase (the clipping pass
  under DP-SGD, the per-batch weight-gradient GEMMs otherwise) scaled
  by ``(B-1)/B`` for ``B`` buckets — the first bucket must exist
  before any wire time can hide.  With one monolithic bucket nothing
  overlaps (the sum is only ready when backward ends), so ``overlap``
  changes nothing unless bucketing is on; the tiny per-example norm
  allreduce (which feeds the shared privacy accountant) is charged
  serially — conservative, and negligible at ``B * 4`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator, OpRun
from repro.arch.cluster import Cluster, ParallelPlan
from repro.arch.interconnect import TOPOLOGY_CODES
from repro.training.algorithms import Algorithm
from repro.training.phases import CLUSTER_PHASE_ORDER, PHASE_ORDER, Phase
from repro.workloads.gemms import Gemm, GemmKind
from repro.workloads.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder
    from repro.training.batch import StepOps

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


@dataclass(frozen=True)
class GemmOp:
    """One GEMM of a training step, with its execution options.

    The declarative form of a :meth:`Accelerator.run_gemm` call: the
    entries of :func:`step_gemm_ops` and of a step's trace op log
    (:meth:`repro.training.batch.StepOps.op_log`).
    """

    phase: Phase
    gemm: Gemm
    write_output: bool = True
    fuse_norm: bool = False


class GemmBlock(NamedTuple):
    """Every GEMM of one :class:`GemmKind`, run in one phase with one set
    of execution options (see :func:`step_gemm_blocks`)."""

    phase: Phase
    kind: GemmKind
    write_output: bool = True
    fuse_norm: bool = False


def step_gemm_blocks(
    algorithm: Algorithm,
    accelerator: "Accelerator | None" = None,
) -> tuple[GemmBlock, ...]:
    """The GEMM schedule rule of one training step, in schedule order.

    The one statement of which Figure 6 GEMM kinds each phase runs and
    with which flags: per-example weight-gradient GEMMs spill only when
    the algorithm stores the gradients or the dataflow cannot forward
    them (``write_output``), and norm derivation fuses into the drain
    when the design has a matched PPU (``fuse_norm``).
    :func:`step_gemm_ops` expands the blocks into :class:`GemmOp`
    lists, :func:`repro.training.plan.phase_gemms` into per-phase GEMM
    lists, and the step pricer
    (:func:`repro.training.batch.training_step_batch`) into columns.

    ``accelerator=None`` keeps the default flags (every output written,
    no fusion) — the phase-to-kind schedule alone.
    """
    blocks = [GemmBlock(Phase.FWD, GemmKind.FORWARD),
              GemmBlock(Phase.BWD_ACT_1, GemmKind.ACT_GRAD)]
    if algorithm.is_private:
        write_grads, fuse = True, False
        if accelerator is not None:
            # Plain DP-SGD must keep the gradients for clipping.  Under
            # DP-SGD(R) the gradients exist only for norm derivation:
            # an output-stationary drain forwards them on the fly (to
            # the PPU, or failing that the vector unit) and never
            # writes them off-chip; only the WS baseline must spill
            # them to DRAM (Figure 10).
            os_drain = accelerator.engine.dataflow == "output_stationary"
            write_grads = algorithm.stores_example_gradients or not os_drain
            fuse = accelerator.can_fuse_norm
        blocks.append(GemmBlock(Phase.BWD_EXAMPLE_GRAD,
                                GemmKind.WGRAD_EXAMPLE, write_grads, fuse))
    if algorithm is Algorithm.DP_SGD_R:
        blocks.append(GemmBlock(Phase.BWD_ACT_2, GemmKind.ACT_GRAD))
    if algorithm in (Algorithm.DP_SGD_R, Algorithm.SGD):
        blocks.append(GemmBlock(Phase.BWD_BATCH_GRAD, GemmKind.WGRAD_BATCH))
    return tuple(blocks)


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

    Expands :func:`step_gemm_blocks` with ``network.gemms(kind,
    batch)`` — see :func:`simulate_training_step` for the modeling
    rationale of the per-phase execution options.

    ``tp > 1`` prices one tensor-parallel rank: every GEMM's output
    dimension is column-sharded ``tp`` ways (the activation allgathers
    stitching shards back together are charged by the cluster's
    communication phase, not here).
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    gemms: dict[GemmKind, list[Gemm]] = {}
    ops: list[GemmOp] = []
    for block in step_gemm_blocks(algorithm, accelerator):
        kind_gemms = gemms.get(block.kind)
        if kind_gemms is None:
            kind_gemms = gemms[block.kind] = network.gemms(block.kind, batch)
            if tp > 1:
                kind_gemms = gemms[block.kind] = [
                    _tp_shard_gemm(g, tp) for g in kind_gemms]
        ops += [GemmOp(block.phase, g, block.write_output, block.fuse_norm)
                for g in kind_gemms]
    return ops


class VectorKernel(NamedTuple):
    """One vector-unit kernel of a training step, affine in the batch.

    At mini-batch ``b`` the kernel runs over ``elems_per_example * b +
    elems_fixed`` values and moves ``read_per_example * b + read_fixed``
    DRAM bytes in and ``write_per_example * b + write_fixed`` out
    (:meth:`Accelerator.vector_charges` columns).  A kernel over zero
    values costs nothing; it still names its phase, which is how
    GEMM-only phases enter the step's phase set.
    """

    phase: Phase
    elems_per_example: int
    elems_fixed: int = 0
    ops_per_elem: float = 1.0
    reduction: bool = False
    read_per_example: int = 0
    read_fixed: int = 0
    write_per_example: int = 0
    write_fixed: int = 0

    def elems(self, batch: int) -> int:
        return self.elems_per_example * batch + self.elems_fixed

    def read_bytes(self, batch: int) -> int:
        return self.read_per_example * batch + self.read_fixed

    def write_bytes(self, batch: int) -> int:
        return self.write_per_example * batch + self.write_fixed


def _elementwise(phase: Phase, act_elems: int) -> VectorKernel:
    """Vector-unit pass over activations with a DRAM round trip."""
    act_bytes = act_elems * ACT_BYTES
    return VectorKernel(phase, act_elems, read_per_example=act_bytes,
                        write_per_example=act_bytes)


def _noise_and_update(params: int) -> tuple[VectorKernel, ...]:
    """Gaussian noise generation/addition plus the SGD weight update."""
    noise = VectorKernel(
        Phase.BWD_REDUCE_NOISE, 0, params,
        ops_per_elem=3.0,  # RNG draw, scale, add
        read_fixed=params * GRAD_BYTES,
        write_fixed=params * GRAD_BYTES,
    )
    return (noise, *_update_only(params))


def _update_only(params: int) -> tuple[VectorKernel, ...]:
    """Weight update: read gradient + master weight, write new weight."""
    return (VectorKernel(
        Phase.BWD_REDUCE_NOISE, 0, params,
        ops_per_elem=2.0,
        read_fixed=2 * params * GRAD_BYTES,
        write_fixed=params * GRAD_BYTES,
    ),)


def step_vector_kernels(
    network: Network,
    algorithm: Algorithm,
    accelerator: Accelerator,
    tp: int = 1,
) -> tuple[VectorKernel, ...]:
    """The vector-unit kernels of one step, in phase order.

    The one statement of the step's non-GEMM work:
    :func:`repro.training.batch.training_step_batch` prices the rows as
    ``specs x kernels`` columns.  Every phase the
    step touches has at least one row; phases whose work is GEMM-only
    carry one empty row.

    ``tp > 1`` prices one tensor-parallel rank: parameter-proportional
    kernels (per-example gradients, norms, clip, reduce/noise/update)
    operate on the rank's ``ceil(params / tp)`` shard, while
    activation-proportional element-wise work stays replicated (every
    rank holds the full, allgathered activations).
    """
    gemm_params, vector_params, all_params = (
        -(-params // tp) for params in (
            network.gemm_params, network.vector_grad_params,
            network.params))
    act = network.vector_path_elems
    kernels = [_elementwise(Phase.FWD, act),
               _elementwise(Phase.BWD_ACT_1, act)]

    if algorithm.is_private:
        # Dense materialization of embedding / norm-affine per-example
        # gradients (vector path on every design).
        kernels.append(VectorKernel(
            Phase.BWD_EXAMPLE_GRAD, vector_params,
            write_per_example=vector_params * GRAD_BYTES))

        # -- per-example gradient norms ---------------------------------------
        norm = Phase.BWD_GRAD_NORM
        if accelerator.can_fuse_norm:
            # PPU path: tree outputs only need the final per-example
            # accumulation — norm derivation rode along with the drain.
            kernels.append(VectorKernel(
                norm, len(network.weight_layers), reduction=True))
        elif accelerator.engine.dataflow == "output_stationary":
            # No PPU, but the fine-grained OS drain forwards each output
            # tile to the vector unit, which square-reduces it while the
            # GEMM engine stalls (Section IV-C): compute-serialized, no
            # off-chip spill.
            kernels.append(VectorKernel(
                norm, gemm_params, ops_per_elem=2.0, reduction=True))
        else:
            # WS: fetch the DRAM-spilled gradients back and square-reduce
            # them on the vector unit — the memory-bound stage of
            # Section III-C.
            kernels.append(VectorKernel(
                norm, gemm_params, ops_per_elem=2.0, reduction=True,
                read_per_example=gemm_params * GRAD_BYTES))
        kernels.append(VectorKernel(
            norm, vector_params, ops_per_elem=2.0, reduction=True,
            read_per_example=vector_params * GRAD_BYTES))

    if algorithm is Algorithm.DP_SGD:
        # -- clip, then reduce + noise ----------------------------------------
        grad_bytes = all_params * GRAD_BYTES
        kernels.append(VectorKernel(
            Phase.BWD_GRAD_CLIP, all_params,
            read_per_example=grad_bytes, write_per_example=grad_bytes))
        kernels.append(VectorKernel(
            Phase.BWD_REDUCE_NOISE, all_params, reduction=True,
            read_per_example=grad_bytes, write_fixed=grad_bytes))
        kernels += _noise_and_update(all_params)

    elif algorithm is Algorithm.DP_SGD_R:
        # Reweighting the loss gradients by the clip scales is a tiny
        # per-example scale riding with the second backward pass.
        kernels += (_elementwise(Phase.BWD_ACT_2, act),
                    VectorKernel(Phase.BWD_ACT_2, 1),
                    VectorKernel(Phase.BWD_BATCH_GRAD, 0))
        kernels += _noise_and_update(all_params)

    else:  # non-private SGD
        kernels.append(VectorKernel(Phase.BWD_BATCH_GRAD, 0))
        kernels += _update_only(all_params)

    return tuple(kernels)


def _step_report(network: Network, algorithm: Algorithm,
                 accelerator: Accelerator, batch: int,
                 ops: "StepOps") -> TrainingReport:
    """The report of one priced single-chip step: its phases sum every
    :class:`OpRun` field of the collected vector kernels and GEMM ops."""
    return TrainingReport(
        network=network.name,
        family=network.family,
        algorithm=algorithm,
        accelerator=accelerator.name,
        with_ppu=accelerator.ppu is not None,
        batch=batch,
        frequency_hz=accelerator.frequency_hz,
        phases=ops.phase_runs(),
    )


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

    The step is one spec of
    :func:`repro.training.batch.training_step_batch`: the GEMM schedule
    of :func:`step_gemm_blocks` plus the vector kernels of
    :func:`step_vector_kernels`, every op charged by the accelerator's
    column form.  ``tests/step_oracle.py`` keeps the per-op Python
    reference it is pinned against, field by field.

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
    from repro.training.batch import training_step_batch

    ops = training_step_batch([(accelerator, network, algorithm, batch)],
                              collect_ops=True).ops[0]
    report = _step_report(network, algorithm, accelerator, batch, ops)
    if recorder is not None:
        from repro.obs.trace import add_training_step_spans

        add_training_step_spans(recorder, report,
                                ops.op_log(algorithm, accelerator))
    return report


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

    The step is the sharded-step composition of
    :mod:`repro.training.batch` (which
    :func:`~repro.training.batch.sharded_step_batch` evaluates over
    whole grids) on one point: the cluster's chip, fabric and plan.
    The global mini-batch must divide evenly by the data-parallel
    degree.  Each replica runs the full phase sequence on its
    ``global_batch / dp`` shard (the per-batch reduce/noise/update tail
    is replicated, so it appears once — all chips execute it in
    lock-step on identical data).  The communication phase charges the
    clipped-gradient-sum allreduce plus, for private algorithms, one
    norm per example of the global batch; fractional collective seconds
    accumulate across the step and quantize to cluster cycles *once*,
    so no per-collective (or, with bucketing, per-bucket) rounding
    surcharge creeps in.  On an ``N=1`` cluster every collective is
    free and the shard report is bitwise-identical to
    :func:`simulate_training_step` on the bare chip.

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
    from repro.training.batch import _sharded_steps

    n = cluster.n_chips
    if plan is not None:
        plan.validate(n)
    grid = plan or ParallelPlan(dp=n)
    ic = cluster.interconnect.config

    def column(value: object) -> np.ndarray:
        return np.array([value])

    sharded, shards, (schedule,) = _sharded_steps(
        [cluster.chip], [network], [algorithm], column(global_batch),
        column(grid.dp), column(grid.pp), column(grid.tp),
        column(TOPOLOGY_CODES[ic.topology]), column(ic.bucket_bytes or 0),
        column(ic.chips_per_node),
        tuple(map(column, ic.links.link_params())), column(overlap),
        microbatches=[grid.microbatches], collect_ops=True)
    ops = shards.ops[0]
    report = ClusterTrainingReport(
        cluster=cluster.name,
        n_chips=n,
        topology=cluster.topology,
        global_batch=global_batch,
        shard=_step_report(network, algorithm, cluster.chip,
                           global_batch // grid.dp, ops),
        comm=OpRun(
            cycles=int(sharded.comm_cycles[0]),
            hidden_cycles=int(sharded.comm_total_cycles[0]
                              - sharded.comm_cycles[0]),
            link_bytes=int(sharded.link_bytes[0]),
        ),
        overlap=overlap,
        plan=plan,
        **({} if schedule is None else dict(
            pipeline_cycles=schedule.pipeline_cycles,
            bubble_cycles=schedule.bubble_cycles,
            microbatches=schedule.microbatches,
            stage_cycles=schedule.stage_cycles,
            stage_bounds=schedule.stage_bounds)),
    )
    if recorder is not None:
        from repro.obs.trace import add_cluster_step_spans

        add_cluster_step_spans(recorder, report,
                               ops.op_log(algorithm, cluster.chip))
    return report


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

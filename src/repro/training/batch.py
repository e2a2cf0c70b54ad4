"""Batched closed-form evaluation of training steps over config grids.

The scalar drivers (:func:`repro.training.simulate.simulate_training_step`
and :func:`~repro.training.simulate.simulate_sharded_training_step`)
pay a Python round trip per GEMM and per design point.  This module
evaluates the *same* analytic model over a struct-of-arrays grid of
configurations — workload x chips x bucket_bytes x topology x DP mode —
in a few NumPy broadcast passes:

* :func:`lowered_step` lowers each ``(network, algorithm, dataflow,
  norm fusion)`` once per process as batch-affine columns
  (:class:`LoweredStep`): :func:`~repro.training.simulate.step_gemm_ops`
  itself runs at batch 1 and 2, so the phase and flag rules have one
  implementation, and a bounded LRU keeps the batch-1 columns plus
  the int64 slope of m, k, n and count.  Any ``(batch, tp)`` is then
  ``base + (batch - 1) * slope`` with ``n`` ceil-divided by ``tp``; a
  schedule that is not batch-affine raises at lowering time.
* :func:`training_step_batch` prices a list of single-chip step specs
  by concatenating their lowered columns into one flat array per
  engine, deduplicating shapes through packed int64 keys
  (:func:`repro.arch.batch.unique_rows`), and pushing them through
  :func:`repro.arch.batch.gemm_stats_batch`; no per-op Python object
  is built.  The handful of vector-unit kernels per spec reuse the
  scalar :func:`~repro.training.simulate.step_vector_runs` directly
  (sharing the code path guarantees equality); they are O(1) per spec,
  since the per-network sums they scale by ``batch`` are cached
  :class:`~repro.workloads.model.Network` properties.
* :func:`sharded_step_batch` reuses one shard evaluation for every
  grid point that shares a ``(kind, model, algorithm, local batch,
  tp)``.  3D grid points (``pp``/``tp`` columns > 1) hand their lowered
  columns and batched per-op cycle arrays to
  :func:`~repro.training.parallel.build_pipeline_schedule`, the builder
  the scalar driver feeds from its own op log — the schedule consumes
  only integers, so it is bit-identical by construction.
* :func:`step_comm_cycles` is the one composition of a sharded step's
  collective charge; the scalar
  :func:`~repro.training.simulate.simulate_sharded_training_step`
  calls it on length-1 columns and :func:`sharded_step_batch` on grids.

``tests/test_batch_step.py`` pins the batched steps bitwise-identical
to the scalar drivers.  The ``scaling`` and ``design-space``
experiments and the fleet simulator's service-time table
(:mod:`repro.serve.scheduler`) run their grids through this module;
the process-pool runner remains for non-analytic work.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ContextManager, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.arch.batch import (
    allreduce_seconds_batch,
    first_bucket_seconds_batch,
    gemm_stats_batch,
    link_bytes_per_chip_batch,
    n_buckets_batch,
    topology_codes,
    unique_rows,
)
from repro.arch.cluster import ParallelPlan
from repro.arch.interconnect import (
    DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    DEFAULT_LINK_LATENCY_S,
    TOPOLOGY_CODES,
    Fabric,
    fabric_named,
    pipeline_boundary_seconds,
    tensor_collective_seconds,
)
from repro.training.algorithms import Algorithm
from repro.training.phases import PHASE_ORDER, Phase
from repro.training.simulate import (
    GRAD_BYTES,
    GemmOp,
    step_gemm_ops,
    step_vector_runs,
)
from repro.workloads.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler

#: Fixed phase axis of the batched per-phase cycle matrices.
STEP_PHASES: tuple[Phase, ...] = tuple(Phase)
_PHASE_INDEX = {phase: i for i, phase in enumerate(STEP_PHASES)}


def _stage(profiler: "Profiler | None", name: str) -> ContextManager[Any]:
    """Profiler stage context, or a no-op when profiling is off."""
    return nullcontext() if profiler is None else profiler.stage(name)


@dataclass(frozen=True)
class StepBatch:
    """Per-phase cycle matrix of a batch of single-chip training steps.

    ``phase_cycles[u, p]`` is spec ``u``'s cycle charge in phase
    ``STEP_PHASES[p]`` (zero for phases the algorithm does not touch) —
    exactly the :class:`~repro.training.simulate.TrainingReport` phase
    sums of the scalar driver.
    """

    phase_cycles: np.ndarray
    frequency_hz: np.ndarray
    #: Per-spec schedule-ordered GEMM op cycles (only when collected):
    #: ``op_cycles[u][j]`` is the charge of spec ``u``'s ``j``-th
    #: :func:`~repro.training.simulate.step_gemm_ops` entry.
    op_cycles: "dict[int, np.ndarray] | None" = None

    def __len__(self) -> int:
        return self.phase_cycles.shape[0]

    @property
    def total_cycles(self) -> np.ndarray:
        return self.phase_cycles.sum(axis=1)

    @property
    def total_seconds(self) -> np.ndarray:
        return self.total_cycles / self.frequency_hz

    def cycles_of(self, phase: Phase) -> np.ndarray:
        return self.phase_cycles[:, _PHASE_INDEX[phase]]


#: One single-chip step specification for :func:`training_step_batch`:
#: ``(accelerator, network, algorithm, batch)`` plus an optional
#: trailing tensor-parallel degree (defaults to 1).
StepSpec = "tuple[Accelerator, Network, Algorithm, int]"


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LoweredStep:
    """One step's GEMM schedule as read-only columns.

    Entry ``j`` describes the ``j``-th
    :func:`~repro.training.simulate.step_gemm_ops` op: its ``phase`` (a
    :data:`STEP_PHASES` index), ``layer`` (an index into
    ``network.layers``), GEMM dims, and execution flags — ready to
    concatenate into a batched pricing pass or to split into pipeline
    stages.
    """

    network: Network
    phase: np.ndarray
    layer: np.ndarray
    m: np.ndarray
    k: np.ndarray
    n: np.ndarray
    count: np.ndarray
    write_output: np.ndarray
    fuse_norm: np.ndarray

    def __len__(self) -> int:
        return len(self.phase)

    @classmethod
    def from_ops(cls, network: Network,
                 ops: Sequence[GemmOp]) -> "LoweredStep":
        """The columns of a :func:`step_gemm_ops` list.

        An op whose layer ``network`` does not name rides with the
        previous op's layer (schedule order is layer order).
        """
        index = {layer.name: i for i, layer in enumerate(network.layers)}
        layers = []
        previous = 0
        for op in ops:
            previous = index.get(op.gemm.layer, previous)
            layers.append(previous)
        return cls(
            network=network,
            phase=_frozen([_PHASE_INDEX[op.phase] for op in ops], np.int64),
            layer=_frozen(layers, np.int64),
            m=_frozen([op.gemm.m for op in ops], np.int64),
            k=_frozen([op.gemm.k for op in ops], np.int64),
            n=_frozen([op.gemm.n for op in ops], np.int64),
            count=_frozen([op.gemm.count for op in ops], np.int64),
            write_output=_frozen([op.write_output for op in ops], bool),
            fuse_norm=_frozen([op.fuse_norm for op in ops], bool),
        )


@dataclass(frozen=True)
class _AffineStep:
    """A step lowered at batch 1, plus how its GEMM dims grow per example.

    ``dims`` and ``slope`` are read-only ``(4, ops)`` int64 rows of m, k,
    n and count: at batch ``b`` the dims are ``dims + (b - 1) * slope``.
    """

    base: LoweredStep
    dims: np.ndarray
    slope: np.ndarray


def _dims(step: LoweredStep) -> np.ndarray:
    return np.stack([step.m, step.k, step.n, step.count])


def _lower_affine(network: Network, algorithm: Algorithm,
                  accelerator: Accelerator) -> _AffineStep:
    """Lower at batch 1 and 2 and check the schedule is batch-affine."""
    one, two = (LoweredStep.from_ops(network, step_gemm_ops(
        network, algorithm, accelerator, batch)) for batch in (1, 2))
    dims = _dims(one)
    same = len(one) == len(two) and all(
        np.array_equal(getattr(one, column), getattr(two, column))
        for column in ("phase", "layer", "write_output", "fuse_norm"))
    slope = _dims(two) - dims if same else None
    if slope is None or (slope < 0).any():
        raise ValueError(
            f"{network.name}: the {algorithm.value} step schedule is not "
            f"batch-affine, so lowered_step cannot price it")
    dims.flags.writeable = False
    slope.flags.writeable = False
    return _AffineStep(base=one, dims=dims, slope=slope)


#: Upper bound on memoized lowerings (LRU eviction).
LOWERED_STEP_CACHE_MAXSIZE = 512

#: Shared bounded LRU of batch-affine lowerings, keyed by everything
#: :func:`step_gemm_ops` reads except batch and tp:
#: ``(id(network), algorithm, dataflow, can_fuse_norm)``.  Networks key
#: by identity (zoo variants share names); entries hold their network,
#: so a live key's id cannot be reused.
_LOWERED_STEPS: "OrderedDict[tuple, _AffineStep]" = OrderedDict()


def clear_lowered_step_cache() -> None:
    """Drop every memoized lowering (mainly for benchmarks)."""
    _LOWERED_STEPS.clear()


def lowered_step(network: Network, algorithm: Algorithm,
                 accelerator: Accelerator, batch: int,
                 tp: int = 1) -> LoweredStep:
    """The columns of :func:`step_gemm_ops` for one step.

    Each ``(network, algorithm, dataflow, norm fusion)`` is lowered once
    by ``step_gemm_ops`` itself at batch 1 and 2, so the phase and flag
    rules keep one implementation; any batch is then
    ``dims(1) + (batch - 1) * (dims(2) - dims(1))`` and ``tp > 1``
    column-shards ``n`` to ``ceil(n / tp)``, exactly as ``step_gemm_ops``
    does.  A network whose schedule is not batch-affine raises.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    key = (id(network), algorithm, accelerator.engine.dataflow,
           accelerator.can_fuse_norm)
    entry = _LOWERED_STEPS.get(key)
    if entry is None:
        entry = _LOWERED_STEPS[key] = _lower_affine(network, algorithm,
                                                    accelerator)
        if len(_LOWERED_STEPS) > LOWERED_STEP_CACHE_MAXSIZE:
            _LOWERED_STEPS.popitem(last=False)
    else:
        _LOWERED_STEPS.move_to_end(key)
    dims = entry.dims + (batch - 1) * entry.slope
    if tp > 1:
        dims[2] = -(-dims[2] // tp)
    dims.flags.writeable = False
    m, k, n, count = dims
    return replace(entry.base, m=m, k=k, n=n, count=count)


def training_step_batch(
    specs: Sequence[tuple],
    profiler: "Profiler | None" = None,
    *,
    collect_ops: bool = False,
) -> StepBatch:
    """Price single-chip training steps, batching all GEMMs per engine.

    ``specs`` is a sequence of ``(accelerator, network, algorithm,
    batch[, tp])`` tuples; accelerator objects may repeat (and sharing
    them across specs lets the evaluator group their GEMMs into one
    vectorized pass).  A trailing ``tp`` column-shards every GEMM and
    parameter-proportional vector kernel across a tensor-parallel
    group.  Returns per-phase cycle sums identical to running
    :func:`simulate_training_step` per spec.

    ``collect_ops=True`` additionally keeps each spec's per-op GEMM
    cycle array (schedule order) — the input the pipeline-schedule
    builder needs for 3D grid points.

    ``profiler`` (a :class:`repro.obs.profile.Profiler`) times the
    vector-kernel and batched-GEMM stages and counts specs / GEMM ops
    / unique shapes — purely additive bookkeeping.

    GEMMs are priced once per distinct ``(m, k, n)`` and scaled by
    ``count``, so an engine without ``grid_axes`` (whose cost need not
    be linear in ``count``, e.g. a packing engine) raises ``ValueError``.
    """
    specs = list(specs)
    matrix = np.zeros((len(specs), len(STEP_PHASES)), dtype=np.int64)
    frequency = np.array([accel.frequency_hz for accel, *_ in specs],
                         dtype=float)
    op_store: "dict[int, np.ndarray] | None" = {} if collect_ops else None
    if profiler is not None:
        profiler.count("step_specs", len(specs))

    groups: dict[int, tuple[Accelerator, list[int], list[LoweredStep]]] = {}
    with _stage(profiler, "step-batch/vector"):
        for index, (accel, network, algorithm, batch,
                    *rest) in enumerate(specs):
            tp = rest[0] if rest else 1
            runs = step_vector_runs(network, algorithm, accel, batch, tp=tp)
            for phase, run in runs.items():
                matrix[index, _PHASE_INDEX[phase]] += run.cycles
            _, indices, steps = groups.setdefault(id(accel),
                                                  (accel, [], []))
            indices.append(index)
            steps.append(lowered_step(network, algorithm, accel, batch, tp))

    with _stage(profiler, "step-batch/gemm"):
        for accel, indices, steps in groups.values():
            if accel.engine.grid_axes is None:
                raise ValueError(
                    f"engine {accel.engine.name!r} has no grid_axes, so "
                    f"its GEMM cost need not scale with count; price it "
                    f"with simulate_training_step")
            lengths = np.array([len(step) for step in steps], dtype=np.int64)
            if not lengths.sum():
                continue
            spec_idx = np.repeat(np.array(indices, dtype=np.int64), lengths)
            phase_idx, m, k, n, count, write_out, fuse = (
                np.concatenate([getattr(step, column) for step in steps])
                for column in ("phase", "m", "k", "n", "count",
                              "write_output", "fuse_norm"))
            unique, inverse = unique_rows(m, k, n)
            if profiler is not None:
                profiler.count("gemm_ops", len(m))
                profiler.count("unique_gemm_shapes", len(unique))
            stats = gemm_stats_batch(
                accel.engine, unique[:, 0], unique[:, 1], unique[:, 2], 1)
            compute = stats.compute_cycles[inverse] * count

            input_bytes = accel.config.input_bytes
            acc_bytes = accel.config.acc_bytes
            dram_read = (m * k + k * n) * count * input_bytes
            out_bytes = m * n * count * acc_bytes
            dram_write = np.where(write_out, out_bytes, 0)
            if fuse.any():
                # Mirrors Accelerator.run_gemm's fuse_norm path: the
                # per-GEMM PPU flush is compute-exposed and one norm
                # scalar per GEMM goes off-chip alongside any
                # persisted outputs.
                flush = accel.ppu.flush_cycles()
                compute = compute + np.where(fuse, flush * count, 0)
                dram_write = np.where(fuse,
                                      count * acc_bytes + dram_write,
                                      dram_write)

            total_bytes = dram_read + dram_write
            transfer = np.where(
                total_bytes > 0,
                np.ceil(total_bytes / accel.memory.bytes_per_cycle)
                .astype(np.int64)
                + accel.memory.config.access_latency_cycles,
                0)
            cycles = np.maximum(compute, transfer)
            np.add.at(matrix, (spec_idx, phase_idx), cycles)
            if op_store is not None:
                # Each spec's ops are one contiguous block, in schedule
                # order.
                ends = np.cumsum(lengths)
                for u, end, size in zip(indices, ends, lengths):
                    if size:
                        op_store[u] = cycles[end - size:end]

    return StepBatch(phase_cycles=matrix, frequency_hz=frequency,
                     op_cycles=op_store)


@dataclass(frozen=True)
class ShardedStepBatch:
    """Struct-of-arrays result of :func:`sharded_step_batch`.

    One entry per grid point; field semantics match
    :class:`~repro.training.simulate.ClusterTrainingReport` (``comm``
    cycles are the exposed critical-path charge, ``comm_total`` the
    full wire time, their difference the overlap-hidden remainder).
    For 3D grid points ``shard_cycles`` is the microbatched pipeline
    makespan (``pipeline_cycles``) and ``bubble_cycles`` its fill/drain
    idle share; pure-DP points carry a zero bubble.
    """

    n_chips: np.ndarray
    global_batch: np.ndarray
    frequency_hz: np.ndarray
    shard_cycles: np.ndarray
    comm_cycles: np.ndarray
    comm_total_cycles: np.ndarray
    link_bytes: np.ndarray
    #: Data-parallel replica count of each point (= n_chips / (pp*tp)).
    dp: np.ndarray
    bubble_cycles: np.ndarray

    def __len__(self) -> int:
        return self.n_chips.shape[0]

    @property
    def local_batch(self) -> np.ndarray:
        return self.global_batch // self.dp

    @property
    def total_cycles(self) -> np.ndarray:
        return self.shard_cycles + self.comm_cycles

    @property
    def total_seconds(self) -> np.ndarray:
        return self.total_cycles / self.frequency_hz

    @property
    def compute_seconds(self) -> np.ndarray:
        return self.shard_cycles / self.frequency_hz

    @property
    def comm_seconds(self) -> np.ndarray:
        """Exposed (critical-path) collective seconds."""
        return self.comm_cycles / self.frequency_hz

    @property
    def comm_total_seconds(self) -> np.ndarray:
        return self.comm_total_cycles / self.frequency_hz

    @property
    def comm_hidden_seconds(self) -> np.ndarray:
        return (self.comm_total_cycles
                - self.comm_cycles) / self.frequency_hz

    @property
    def comm_fraction(self) -> np.ndarray:
        total = self.total_cycles
        return np.divide(self.comm_cycles, total, where=total != 0,
                         out=np.zeros(len(self), dtype=float))


def _broadcast_column(value, length: int, dtype=None) -> np.ndarray:
    array = np.asarray(value, dtype=dtype)
    if array.ndim == 0:
        array = array[None]
    return np.broadcast_to(array, (length,)).copy()


def _fabric_links(fabrics, length: int,
                  bandwidth: float, latency: float) -> tuple[np.ndarray, ...]:
    """Resolve a fabric column into (cross_bw, cross_lat, intra_bw,
    intra_lat) float arrays.

    ``None`` entries resolve to the uniform fabric built from the
    scalar bandwidth/latency pair — the same floats the scalar
    :meth:`InterconnectConfig.links` resolution feeds, so the default
    grid stays bitwise-identical to the single-link-class model.
    """
    if fabrics is None or isinstance(fabrics, (str, Fabric)):
        fabrics = [fabrics] * length
    fabrics = list(fabrics)
    if len(fabrics) != length:
        raise ValueError("grid columns must broadcast to one length")
    uniform = Fabric.uniform(bandwidth, latency)
    return tuple(np.array([
        (fabric_named(fab) if isinstance(fab, str) else fab or uniform
         ).link_params() for fab in fabrics], dtype=float).reshape(-1, 4).T)


def step_comm_cycles(
    grad_payload, norm_payload, dp, topology, bucket, chips_per_node,
    links, overlappable, frequency, overlap, *,
    tp=1, pp=1, tp_payload=0, tp_collectives=0, boundary=0, cuts=0,
    microbatches=1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Price sharded steps' communication: ``(exposed cycles, total
    cycles, per-chip wire bytes)`` per grid entry.

    The one composition of the collective charge, called by
    :func:`sharded_step_batch` on its grid and by the scalar
    :func:`~repro.training.simulate.simulate_sharded_training_step` on
    length-1 columns.  ``norm_payload`` is 0 for non-private
    algorithms, ``links`` is :meth:`Fabric.link_params` order, and the
    keyword fields carry a 3D plan's TP allgathers and pipeline
    boundary transfers (the pure-DP defaults add exact zeros).
    Collective seconds accumulate in float and quantize to cycles once.
    """
    cross_bw, cross_lat, intra_bw, intra_lat = links
    hier = topology == TOPOLOGY_CODES["hierarchical"]
    lopsided = hier & (dp > 1) & (dp % np.maximum(chips_per_node, 1) != 0)
    if lopsided.any():
        bad = int(np.argmax(lopsided))
        raise ValueError(
            f"{int(dp[bad])} chips do not group into hierarchical "
            f"nodes of {int(chips_per_node[bad])}")

    # One stacked pass prices both data-parallel collectives: row 0 is
    # the gradient sum, row 1 the norm bookkeeping.
    payloads = np.stack(np.broadcast_arrays(grad_payload, norm_payload))
    comm_args = (dp, topology, bucket, chips_per_node)
    grad_s, norm_s = allreduce_seconds_batch(payloads, *comm_args, *links)
    total_s = grad_s + norm_s
    wire = link_bytes_per_chip_batch(payloads, *comm_args).sum(axis=0)

    # Overlap exposure: only the gradient-sum allreduce hides behind
    # backward compute; the norm-bookkeeping collective stays serial.
    buckets = np.maximum(n_buckets_batch(payloads[0], bucket), 1)
    window_s = ((overlappable / frequency) * (buckets - 1)) / buckets
    exposed_grad_s = np.maximum(
        first_bucket_seconds_batch(payloads[0], *comm_args, *links),
        grad_s - window_s)
    exposed_s = np.where(overlap & (dp > 1),
                         exposed_grad_s + (total_s - grad_s), total_s)

    # Serial model-parallel charges: TP allgathers gate their GEMMs and
    # the pipeline fill/drain is exposed.  Pure-DP and masked entries
    # add exact zeros, so their floats stay bit for bit.
    serial_s = 0.0
    if np.any(tp > 1) or np.any(cuts > 0):
        tp_mask = (tp > 1) & (tp_payload > 0)
        pp_mask = (cuts > 0) & (boundary > 0)
        serial_s = (
            np.where(tp_mask, tensor_collective_seconds(
                tp_payload, tp_collectives, tp, intra_bw, intra_lat), 0.0)
            + np.where(pp_mask, pipeline_boundary_seconds(
                boundary, cuts, cross_bw, cross_lat), 0.0))
        # TP shards round per collective; the busiest (interior) stage
        # moves 2*M boundary tensors over each cut it touches (<= 2).
        tp_shard = (-(-(-(-tp_payload // np.maximum(tp_collectives, 1)))
                      // np.maximum(tp, 1)))
        wire = wire + np.where(tp_mask & (tp_collectives > 0),
                               tp_collectives * (tp - 1) * tp_shard, 0)
        per_cut = -(-boundary // np.maximum(cuts, 1))
        touched = np.where(pp > 2, 2, 1)
        wire = wire + np.where(pp_mask & (pp > 1),
                               2 * microbatches * touched * per_cut, 0)

    total_cycles = np.ceil((total_s + serial_s) * frequency).astype(np.int64)
    exposed_cycles = np.minimum(
        np.ceil((exposed_s + serial_s) * frequency).astype(np.int64),
        total_cycles)
    return exposed_cycles, total_cycles, wire


def sharded_step_batch(  # repro-lint: ignore[R003] per-step tracing (recorder) has no batched analogue; the batch engine self-profiles via `profiler`
    models: Sequence[str],
    algorithms,
    global_batches,
    chips,
    *,
    topologies="ring",
    bucket_bytes=None,
    chips_per_node=1,
    overlaps=True,
    kinds="diva",
    pps=1,
    tps=1,
    fabrics=None,
    config=None,
    link_bandwidth_bytes_per_s: float = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    link_latency_s: float = DEFAULT_LINK_LATENCY_S,
    profiler: "Profiler | None" = None,
) -> ShardedStepBatch:
    """Price sharded (DP, or 3D DP x PP x TP) training steps over a grid.

    Every argument broadcasts against ``models`` (scalars apply to the
    whole grid); ``bucket_bytes`` uses ``None``/``0`` for one
    monolithic bucket and ``config`` is an optional shared
    :class:`~repro.core.config.DivaConfig` applied to every point.
    ``pps`` / ``tps`` give each point's pipeline/tensor-parallel
    degrees (data parallelism is the remaining ``chips / (pp*tp)``
    factor) and ``fabrics`` names each point's link classes (``None``
    = the uniform fabric from the scalar bandwidth/latency pair).
    Returns quantities identical to running
    :func:`simulate_sharded_training_step` per point — the shard is
    evaluated once per distinct ``(kind, model, algorithm, local
    batch, tp)``, pipeline schedules once per distinct ``(shard,
    pp)``, and the collective model runs fully vectorized.
    ``profiler`` forwards to :func:`training_step_batch` and counts
    grid points / unique shard evaluations.
    """
    from repro.core import build_accelerator
    from repro.workloads import build_model

    models = list(models)
    length = len(models)
    algorithm_names = [
        a.value if isinstance(a, Algorithm) else str(a)
        for a in (algorithms if not isinstance(algorithms, (str, Algorithm))
                  else [algorithms] * length)]
    if len(algorithm_names) == 1 and length > 1:
        algorithm_names = algorithm_names * length
    kind_names = [kinds] * length if isinstance(kinds, str) else list(kinds)
    topology_names = ([topologies] * length if isinstance(topologies, str)
                      else list(topologies))
    global_batch = _broadcast_column(global_batches, length, np.int64)
    n_chips = _broadcast_column(chips, length, np.int64)
    cpn = _broadcast_column(chips_per_node, length, np.int64)
    bucket = _broadcast_column(
        0 if bucket_bytes is None else
        [0 if b is None else b for b in bucket_bytes]
        if not np.isscalar(bucket_bytes) else bucket_bytes,
        length, np.int64)
    overlap = _broadcast_column(overlaps, length, bool)
    pp_col = _broadcast_column(pps, length, np.int64)
    tp_col = _broadcast_column(tps, length, np.int64)
    if not (len(algorithm_names) == len(kind_names)
            == len(topology_names) == length):
        raise ValueError("grid columns must broadcast to one length")
    links = _fabric_links(
        fabrics, length, link_bandwidth_bytes_per_s, link_latency_s)

    topo = topology_codes(topology_names)
    if (global_batch <= 0).any():
        raise ValueError("global batches must be positive")
    if (pp_col < 1).any() or (tp_col < 1).any():
        raise ValueError("pp and tp degrees must be >= 1")
    mp = pp_col * tp_col
    if (n_chips % mp).any():
        bad = int(np.argmax(n_chips % mp != 0))
        raise ValueError(
            f"{int(n_chips[bad])} chips do not factor into "
            f"pp={int(pp_col[bad])} x tp={int(tp_col[bad])} stages")
    dp = n_chips // mp
    if (global_batch % dp).any():
        bad = int(np.argmax(global_batch % dp != 0))
        plan = ParallelPlan(dp=int(dp[bad]), pp=int(pp_col[bad]),
                            tp=int(tp_col[bad]))
        across = (f"{int(n_chips[bad])} chips" if plan.is_pure_dp else
                  f"{plan.dp} data-parallel replicas of plan {plan}")
        raise ValueError(f"global batch {int(global_batch[bad])} does not "
                         f"divide evenly across {across}")
    # InterconnectConfig rejects chips_per_node on flat topologies;
    # grid columns keep the same contract.
    if ((topo != TOPOLOGY_CODES["hierarchical"]) & (cpn != 1)).any():
        raise ValueError(
            "chips_per_node is only meaningful for the 'hierarchical' "
            "topology")

    local_batch = global_batch // dp
    accels: dict[str, Accelerator] = {}
    shard_keys: list[tuple] = []
    shard_index = np.empty(length, dtype=np.int64)
    key_to_index: dict[tuple, int] = {}
    for i in range(length):
        key = (kind_names[i], models[i], algorithm_names[i],
               int(local_batch[i]), int(tp_col[i]))
        index = key_to_index.get(key)
        if index is None:
            index = len(shard_keys)
            key_to_index[key] = index
            shard_keys.append(key)
        shard_index[i] = index

    specs = []
    for kind, model, algorithm, batch, tp in shard_keys:
        accel = accels.get(kind)
        if accel is None:
            accel = accels[kind] = build_accelerator(kind, config=config)
        specs.append((accel, build_model(model), Algorithm(algorithm),
                      batch, tp))
    if profiler is not None:
        profiler.count("grid_points", length)
        profiler.count("unique_shards", len(shard_keys))
    any_3d = bool((mp > 1).any())
    step = training_step_batch(specs, profiler=profiler,
                               collect_ops=any_3d)

    shard_cycles = step.total_cycles[shard_index]
    frequency = step.frequency_hz[shard_index]
    private = np.array([Algorithm(a).is_private for a in algorithm_names])
    params = np.array([build_model(m).params for m in models],
                      dtype=np.int64)
    # Which backward phase the gradient allreduce may hide behind
    # (overlappable_backward_cycles): the clipping pass under DP-SGD,
    # the per-batch weight-gradient GEMMs otherwise.
    dpsgd = np.array([Algorithm(a) is Algorithm.DP_SGD
                      for a in algorithm_names])
    clip = step.cycles_of(Phase.BWD_GRAD_CLIP)[shard_index]
    batch_grad = step.cycles_of(Phase.BWD_BATCH_GRAD)[shard_index]
    overlappable = np.where(dpsgd, clip, batch_grad)

    grad_payload = params * GRAD_BYTES
    # 3D points: replace the whole-replica quantities with the pipeline
    # schedule's — built from the same batched integers the scalar
    # driver prices, so every derived number matches it bit for bit.
    tp_payload = np.zeros(length, dtype=np.int64)
    tp_colls = np.zeros(length, dtype=np.int64)
    boundary = np.zeros(length, dtype=np.int64)
    cuts = np.zeros(length, dtype=np.int64)
    microbatches = np.ones(length, dtype=np.int64)
    bubble = np.zeros(length, dtype=np.int64)
    if any_3d:
        from repro.training.parallel import build_pipeline_schedule

        assert step.op_cycles is not None
        schedules: dict[tuple[int, int], Any] = {}
        shard_cycles = shard_cycles.copy()
        overlappable = overlappable.copy()
        grad_payload = grad_payload.copy()
        for i in np.flatnonzero(mp > 1):
            u = int(shard_index[i])
            sched_key = (u, int(pp_col[i]))
            sched = schedules.get(sched_key)
            if sched is None:
                accel, network, algorithm, batch, tp = specs[u]
                sched = build_pipeline_schedule(
                    network, algorithm,
                    lowered_step(network, algorithm, accel, batch, tp),
                    step.op_cycles.get(u, ()),
                    {p: int(step.phase_cycles[u, _PHASE_INDEX[p]])
                     for p in PHASE_ORDER},
                    batch,
                    ParallelPlan(dp=int(dp[i]), pp=int(pp_col[i]), tp=tp))
                schedules[sched_key] = sched
            shard_cycles[i] = sched.pipeline_cycles
            bubble[i] = sched.bubble_cycles
            overlappable[i] = sched.overlappable_cycles
            grad_payload[i] = sched.dp_payload_bytes
            tp_payload[i] = sched.tp_payload_bytes
            tp_colls[i] = sched.tp_collectives
            boundary[i] = sched.boundary_micro_bytes
            cuts[i] = sched.cuts
            microbatches[i] = sched.microbatches

    norm_payload = np.where(private, global_batch * GRAD_BYTES, 0)
    comm_cycles, comm_total_cycles, wire = step_comm_cycles(
        grad_payload, norm_payload, dp, topo, bucket, cpn, links,
        overlappable, frequency, overlap, tp=tp_col, pp=pp_col,
        tp_payload=tp_payload, tp_collectives=tp_colls, boundary=boundary,
        cuts=cuts, microbatches=microbatches)
    return ShardedStepBatch(
        n_chips=n_chips,
        global_batch=global_batch,
        frequency_hz=frequency,
        shard_cycles=shard_cycles,
        comm_cycles=comm_cycles,
        comm_total_cycles=comm_total_cycles,
        link_bytes=wire,
        dp=dp,
        bubble_cycles=bubble,
    )

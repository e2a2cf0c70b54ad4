"""Plain-Python reference of one training step: the per-op oracle.

``simulate_training_step`` prices a step as one spec of
``training_step_batch``: NumPy columns charged by
``Accelerator.gemm_charges`` / ``vector_charges``.  This module keeps
the step priced one operation at a time, the way
``simulate_training_step`` used to, so the tests can pin the column
path against it field by field:

* :func:`transfer_cycles` / :func:`streaming_cycles` /
  :func:`seconds` / :func:`fits_in_sram` — the scalar DRAM rule
  ``MemorySystem`` carried before ``repro.arch.accelerator``'s
  ``_transfer_cycles`` charged it as a column (``self`` renamed
  ``memory``);
* :func:`run_gemm` / :func:`run_vector` — the per-op charges, with the
  bodies ``Accelerator.run_gemm`` / ``run_vector`` had before they
  became length-1 adapters of the column charges (``self`` renamed
  ``accel``, the transfer priced by :func:`transfer_cycles`), and the
  vector-unit cycle counts :func:`elementwise_cycles` /
  :func:`reduction_cycles` that ``VectorUnit`` carried;
* :func:`step_gemm_ops` — ``simulate.step_gemm_ops`` over a
  session-wide memo of ``Network.gemms(kind, batch)``, keyed by network
  identity, so the oracle pins lower each network once;
* :func:`step_vector_runs` / :func:`chip_step` — the per-op step loop
  over ``step_vector_kernels`` and :func:`step_gemm_ops`, the step
  memoized session-wide by network identity (:data:`_STEPS`), so the
  pins that re-price a step pay for its Python loop once;
* :func:`from_ops` — the columns of an op log, built op by op;
* :func:`sharded_step` — the sharded step composed point by point the
  way ``simulate_sharded_training_step`` used to (its shard priced by
  :func:`chip_step`), with the payload and overlap-window rules
  :func:`allreduce_payload_bytes` / :func:`overlappable_backward_cycles`
  it composed.

Nothing under ``src/`` imports this module.
"""

import math
from dataclasses import fields

import numpy as np

from repro.arch.accelerator import OpRun
from repro.arch.interconnect import TOPOLOGY_CODES
from repro.training.algorithms import Algorithm
from repro.training.batch import (
    _PHASE_INDEX,
    LoweredStep,
    _layer_column,
    step_comm_cycles,
)
from repro.training import simulate
from repro.training.parallel import build_pipeline_schedule
from repro.training.phases import Phase
from repro.training.simulate import (
    GRAD_BYTES,
    ClusterTrainingReport,
    TrainingReport,
    step_vector_kernels,
)


class _LoweredNetwork:
    """A network view whose ``gemms(kind, batch)`` lists are lowered
    once; ``simulate.step_gemm_ops`` reads nothing else of it."""

    def __init__(self, network):
        self.network = network
        self._gemms = {}

    def gemms(self, kind, batch):
        gemms = self._gemms.get((kind, batch))
        if gemms is None:
            gemms = self._gemms[kind, batch] = self.network.gemms(kind,
                                                                  batch)
        return gemms


#: Session-wide lowering memo, by network identity (each view holds its
#: network, so an id is never reused while its entry lives).
_LOWERED = {}


def step_gemm_ops(network, algorithm, accelerator, batch, tp=1):
    """``simulate.step_gemm_ops``, lowering each ``network.gemms(kind,
    batch)`` once per session: every oracle pin shares the lowering."""
    lowered = _LOWERED.get(id(network))
    if lowered is None:
        lowered = _LOWERED[id(network)] = _LoweredNetwork(network)
    return simulate.step_gemm_ops(lowered, algorithm, accelerator, batch,
                                  tp)


def transfer_cycles(memory, num_bytes):
    """Cycles to move ``num_bytes`` to/from DRAM (0 bytes -> 0 cycles).

    Includes the access latency, exposed once per isolated transfer.
    """
    if num_bytes <= 0:
        return 0
    return (streaming_cycles(memory, num_bytes)
            + memory.config.access_latency_cycles)


def streaming_cycles(memory, num_bytes):
    """Bandwidth-only cycles, for back-to-back pipelined transfers.

    The DMA engine keeps many requests in flight across the 16
    channels, so consecutive transfers hide each other's access
    latency; only the streaming time occupies the engine.
    """
    if num_bytes <= 0:
        return 0
    return math.ceil(num_bytes / memory.bytes_per_cycle)


def seconds(memory, num_bytes):
    """Wall-clock seconds for a transfer of ``num_bytes``."""
    return transfer_cycles(memory, num_bytes) / memory.frequency_hz


def fits_in_sram(memory, num_bytes):
    """Whether a tensor fits in the on-chip SRAM buffer."""
    return num_bytes <= memory.config.sram_bytes


def run_gemm(accel, gemm, read_lhs=True, read_rhs=True, write_output=True,
             fuse_norm=False):
    """Execute a GEMM.

    ``read_lhs`` / ``read_rhs`` control whether the operands must be
    fetched from DRAM (False models on-chip reuse from a producer).
    ``write_output`` controls whether results are committed off-chip.
    ``fuse_norm`` routes the drained outputs through the PPU for
    on-the-fly L2-norm derivation (requires :attr:`can_fuse_norm`);
    the outputs are then *consumed*, not written back.
    """
    if fuse_norm and not accel.can_fuse_norm:
        raise ValueError(
            f"{accel.name}: cannot fuse norm derivation "
            "(needs an output-stationary drain into a PPU)"
        )
    stats = accel.engine.gemm_stats(gemm)
    input_bytes = accel.config.input_bytes
    acc_bytes = accel.config.acc_bytes

    dram_read = 0
    if read_lhs:
        dram_read += gemm.lhs_elems * input_bytes
    if read_rhs:
        dram_read += gemm.rhs_elems * input_bytes
    dram_write = 0
    sram_write = stats.sram_write_bytes
    compute = stats.compute_cycles
    ppu_cycles = 0
    if fuse_norm:
        # Outputs stream through the adder trees during the drain;
        # one norm scalar per GEMM is emitted.  If the gradients
        # themselves must persist (plain DP-SGD's clipping), they
        # are committed alongside; under DP-SGD(R) they are consumed.
        # Only the per-GEMM pipeline flush is PPU-exposed time — the
        # drain itself is already part of the GEMM cycle count.
        ppu_cycles = accel.ppu.flush_cycles() * gemm.count
        compute += ppu_cycles
        dram_write = gemm.count * acc_bytes
        if write_output:
            dram_write += gemm.out_elems * acc_bytes
        else:
            sram_write = gemm.count * acc_bytes
    elif write_output:
        dram_write = gemm.out_elems * acc_bytes

    transfer = transfer_cycles(accel.memory, dram_read + dram_write)
    return OpRun(
        cycles=max(compute, transfer),
        compute_cycles=compute,
        ppu_cycles=ppu_cycles,
        macs=stats.macs,
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        sram_read_bytes=stats.sram_read_bytes,
        sram_write_bytes=sram_write,
    )


def elementwise_cycles(config, elems, ops_per_elem=1.0):
    """Vector-unit cycles (``config``: a ``VectorUnitConfig``) of a pure
    element-wise kernel over ``elems`` values."""
    if elems <= 0:
        return 0
    total_ops = elems * ops_per_elem
    return math.ceil(total_ops / config.ops_per_cycle)


def reduction_cycles(config, elems, ops_per_elem=1.0):
    """Vector-unit cycles to reduce ``elems`` values to one scalar.

    ``ops_per_elem`` covers any per-element preprocessing (e.g. the
    squaring step of an L2 norm costs one extra multiply).
    """
    if elems <= 0:
        return 0
    total_ops = elems * (ops_per_elem * config.reduction_overhead_factor)
    return math.ceil(total_ops / config.ops_per_cycle)


def run_vector(accel, elems, ops_per_elem=1.0, dram_read_bytes=0,
               dram_write_bytes=0, reduction=False):
    """Execute an element-wise or reduction kernel on the vector unit."""
    if reduction:
        compute = reduction_cycles(accel.vector.config, elems, ops_per_elem)
    else:
        compute = elementwise_cycles(accel.vector.config, elems,
                                     ops_per_elem)
    transfer = transfer_cycles(
        accel.memory, dram_read_bytes + dram_write_bytes
    )
    return OpRun(
        cycles=max(compute, transfer),
        vector_cycles=compute,
        vector_ops=int(elems * ops_per_elem),
        dram_read_bytes=dram_read_bytes,
        dram_write_bytes=dram_write_bytes,
        sram_read_bytes=elems * accel.config.acc_bytes,
        sram_write_bytes=elems * accel.config.acc_bytes,
    )


def step_vector_runs(network, algorithm, accelerator, batch, tp=1):
    """Non-GEMM work of one step, per phase, one kernel at a time;
    GEMM-only phases carry a zero run."""
    phases = {}
    for kernel in step_vector_kernels(network, algorithm, accelerator, tp):
        run = phases.get(kernel.phase, OpRun.zero())
        elems = kernel.elems(batch)
        if elems > 0:
            run = run + run_vector(
                accelerator,
                elems,
                ops_per_elem=kernel.ops_per_elem,
                dram_read_bytes=kernel.read_bytes(batch),
                dram_write_bytes=kernel.write_bytes(batch),
                reduction=kernel.reduction,
            )
        phases[kernel.phase] = run
    return phases


#: Session-wide memo of :func:`chip_step`, by network identity: each
#: entry holds its network (so an id is never reused while its entry
#: lives) and, per ``(accelerator, algorithm, batch, tp)``, the step's
#: report and its GEMM ops' runs, one int64 row of ``OpRun`` fields per
#: op (a tenth of the memory of the run objects).
_STEPS = {}

_RUN_FIELDS = [field.name for field in fields(OpRun)]


def _accelerator_key(accel):
    """Everything of ``accel`` a step's price reads, by value: equal
    accelerators built by different tests share memo entries."""
    engine = accel.engine
    return (type(accel), accel.name, type(engine), engine.config,
            engine.bus_segments, accel.ppu and accel.ppu.config,
            accel.memory.config, accel.memory.frequency_hz,
            accel.vector.config)


def chip_step(network, algorithm, accelerator, batch, tp=1):
    """One single-chip step, one op at a time: ``(report, op log)``,
    the log holding each GEMM op with its run, in schedule order.

    Priced once per session (:data:`_STEPS`); a repeat rebuilds the
    op log from the memoized runs."""
    _, steps = _STEPS.setdefault(id(network), (network, {}))
    key = (_accelerator_key(accelerator), algorithm, batch, tp)
    if key in steps:
        report, runs = steps[key]
        ops = step_gemm_ops(network, algorithm, accelerator, batch, tp)
        return report, [(op, OpRun(*row))
                        for op, row in zip(ops, runs.tolist())]
    report, op_log = _chip_step(network, algorithm, accelerator, batch, tp)
    steps[key] = (report, np.array(
        [[getattr(run, name) for name in _RUN_FIELDS] for _, run in op_log],
        dtype=np.int64).reshape(-1, len(_RUN_FIELDS)))
    return report, op_log


#: The runs of the last-priced network's GEMM ops, by accelerator and
#: op: the algorithms of one step share their forward and
#: activation-gradient ops, so each is priced once.
_RUNS = [None, {}]


def _chip_step(network, algorithm, accelerator, batch, tp):
    """The per-op step loop of :func:`chip_step`."""
    if _RUNS[0] is not network:
        _RUNS[:] = [network, {}]
    runs, unit = _RUNS[1], _accelerator_key(accelerator)
    op_log = []
    phases = step_vector_runs(network, algorithm, accelerator, batch, tp)
    for op in step_gemm_ops(network, algorithm, accelerator, batch, tp):
        key = (unit, op.gemm, op.write_output, op.fuse_norm)
        run = runs.get(key)
        if run is None:
            run = runs[key] = run_gemm(accelerator, op.gemm,
                                       write_output=op.write_output,
                                       fuse_norm=op.fuse_norm)
        phases[op.phase] = phases[op.phase] + run
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


def _frozen(values, dtype):
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def from_ops(network, ops):
    """The columns of a ``step_gemm_ops`` list.

    An op whose layer ``network`` does not name rides with the
    previous op's layer (schedule order is layer order).
    """
    return LoweredStep(
        network=network,
        phase=_frozen([_PHASE_INDEX[op.phase] for op in ops], np.int64),
        layer=_frozen(_layer_column(network, [op.gemm for op in ops]),
                      np.int64),
        m=_frozen([op.gemm.m for op in ops], np.int64),
        k=_frozen([op.gemm.k for op in ops], np.int64),
        n=_frozen([op.gemm.n for op in ops], np.int64),
        count=_frozen([op.gemm.count for op in ops], np.int64),
        write_output=_frozen([op.write_output for op in ops], bool),
        fuse_norm=_frozen([op.fuse_norm for op in ops], bool),
    )


def allreduce_payload_bytes(network, algorithm, global_batch):
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


def overlappable_backward_cycles(report):
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


def sharded_step(network, algorithm, cluster, global_batch, *, plan=None,
                 overlap=True):
    """One (possibly 3D-)parallel step on a cluster, composed for one
    point: ``(report, op log)``, the log being the shard's GEMM ops
    with their runs, in schedule order."""
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
    shard, op_log = chip_step(network, algorithm, cluster.chip, local_batch,
                              tp)
    payloads = allreduce_payload_bytes(network, algorithm, global_batch)
    norm_payload = payloads[1] if len(payloads) > 1 else 0
    if pure_dp:
        grad_payload = payloads[0]
        overlappable = overlappable_backward_cycles(shard)
        pp_fields, schedule = {}, {}
    else:
        sched = build_pipeline_schedule(
            network, algorithm, from_ops(network, [op for op, _ in op_log]),
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
    return report, op_log

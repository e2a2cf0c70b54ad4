"""Plain-Python reference of one training step: the per-op oracle.

``simulate_training_step`` prices a step as one spec of
``training_step_batch``: NumPy columns charged by
``Accelerator.gemm_charges`` / ``vector_charges``.  This module keeps
the step priced one operation at a time, the way
``simulate_training_step`` used to, so the tests can pin the column
path against it field by field:

* :func:`run_gemm` / :func:`run_vector` — the per-op charges, with the
  bodies ``Accelerator.run_gemm`` / ``run_vector`` had before they
  became length-1 adapters of the column charges (``self`` renamed
  ``accel``);
* :func:`step_vector_runs` / :func:`chip_step` — the per-op step loop
  over ``step_vector_kernels`` and ``step_gemm_ops``;
* :func:`from_ops` — the columns of an op log, built op by op.

Nothing under ``src/`` imports this module.
"""

import numpy as np

from repro.arch.accelerator import OpRun
from repro.training.batch import _PHASE_INDEX, LoweredStep, _layer_column
from repro.training.simulate import (
    TrainingReport,
    step_gemm_ops,
    step_vector_kernels,
)


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

    transfer = accel.memory.transfer_cycles(dram_read + dram_write)
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


def run_vector(accel, elems, ops_per_elem=1.0, dram_read_bytes=0,
               dram_write_bytes=0, reduction=False):
    """Execute an element-wise or reduction kernel on the vector unit."""
    if reduction:
        compute = accel.vector.reduction_cycles(elems, ops_per_elem)
    else:
        compute = accel.vector.elementwise_cycles(elems, ops_per_elem)
    transfer = accel.memory.transfer_cycles(
        dram_read_bytes + dram_write_bytes
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


def chip_step(network, algorithm, accelerator, batch, tp=1):
    """One single-chip step, one op at a time: ``(report, op log)``,
    the log holding each GEMM op with its run, in schedule order."""
    op_log = []
    phases = step_vector_runs(network, algorithm, accelerator, batch, tp)
    for op in step_gemm_ops(network, algorithm, accelerator, batch, tp):
        run = run_gemm(accelerator, op.gemm, write_output=op.write_output,
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

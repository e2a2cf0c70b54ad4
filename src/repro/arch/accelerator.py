"""Accelerator composition: GEMM engine + memory system + vector unit (+ PPU).

An :class:`Accelerator` executes abstract operations (GEMMs, vector
kernels, DRAM moves) and returns :class:`OpRun` records.  The per-op
charge has one column form, :meth:`Accelerator.gemm_charges` /
:meth:`Accelerator.vector_charges` (an :class:`OpCharges` struct of
arrays); :meth:`Accelerator.run_gemm` / :meth:`Accelerator.run_vector`
are its length-1 adapters.  The accelerator's own parameters are
columns too (:class:`ChargeColumns`), so one call charges ops that ran
on many accelerators, each op on its own.  DMA transfers are
double-buffered against compute, so an operation's latency is
``max(compute cycles, DRAM transfer cycles)``; the DRAM access latency
is exposed once per operation.  Aggregated OpRuns feed every downstream
consumer: the paper-figure training reports (Figures 5/13/14/15), the
energy model (Figure 16), and the multi-chip ``scaling`` experiment,
where per-shard OpRuns combine with the cluster's allreduce OpRuns
(:mod:`repro.arch.cluster`) into one sharded-step report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.arch.engine import ArrayConfig, GemmEngine, unit_columns
from repro.arch.memory import MemoryConfig, MemorySystem
from repro.arch.vector import VectorUnit, VectorUnitConfig
from repro.workloads.gemms import Gemm

if TYPE_CHECKING:  # avoid a circular import: core composes arch
    from repro.core.ppu import PostProcessingUnit


@dataclass(frozen=True)
class OpRun:
    """Execution record of one operation (or an aggregate of many).

    ``cycles`` is always the *critical-path* (exposed) charge — what
    aggregates into a report's total.  ``hidden_cycles`` records work
    that ran but was overlapped behind other compute and therefore
    excluded from ``cycles``; today only the bucketed-allreduce overlap
    model of :func:`repro.training.simulate.simulate_sharded_training_step`
    produces a nonzero value.  ``link_bytes`` is per-chip interconnect
    wire traffic — nonzero only for collective operations charged by
    :class:`repro.arch.cluster.Cluster`.
    """

    cycles: int = 0
    compute_cycles: int = 0
    vector_cycles: int = 0
    ppu_cycles: int = 0
    macs: int = 0
    vector_ops: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    sram_read_bytes: int = 0
    sram_write_bytes: int = 0
    link_bytes: int = 0
    hidden_cycles: int = 0

    @property
    def dram_bytes(self) -> int:
        """Total off-chip traffic."""
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def busy_cycles(self) -> int:
        """Exposed plus overlapped cycles — total time the op was live."""
        return self.cycles + self.hidden_cycles

    def __add__(self, other: "OpRun") -> "OpRun":
        return OpRun(
            cycles=self.cycles + other.cycles,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            vector_cycles=self.vector_cycles + other.vector_cycles,
            ppu_cycles=self.ppu_cycles + other.ppu_cycles,
            macs=self.macs + other.macs,
            vector_ops=self.vector_ops + other.vector_ops,
            dram_read_bytes=self.dram_read_bytes + other.dram_read_bytes,
            dram_write_bytes=self.dram_write_bytes + other.dram_write_bytes,
            sram_read_bytes=self.sram_read_bytes + other.sram_read_bytes,
            sram_write_bytes=self.sram_write_bytes + other.sram_write_bytes,
            link_bytes=self.link_bytes + other.link_bytes,
            hidden_cycles=self.hidden_cycles + other.hidden_cycles,
        )

    @staticmethod
    def zero() -> "OpRun":
        """The additive identity, handy for aggregation."""
        return OpRun()

    def trace_args(self) -> dict[str, int]:
        """Nonzero execution counters, as a trace span's ``args`` payload.

        Dropping the zero fields keeps trace files small — a span's
        argument panel in Perfetto then shows only the resources the
        operation actually touched.
        """
        fields = (
            ("cycles", self.cycles),
            ("compute_cycles", self.compute_cycles),
            ("vector_cycles", self.vector_cycles),
            ("ppu_cycles", self.ppu_cycles),
            ("macs", self.macs),
            ("vector_ops", self.vector_ops),
            ("dram_read_bytes", self.dram_read_bytes),
            ("dram_write_bytes", self.dram_write_bytes),
            ("sram_read_bytes", self.sram_read_bytes),
            ("sram_write_bytes", self.sram_write_bytes),
            ("link_bytes", self.link_bytes),
            ("hidden_cycles", self.hidden_cycles),
        )
        return {name: value for name, value in fields if value}


class OpCharges(NamedTuple):
    """Struct-of-arrays :class:`OpRun` charges, one int64 entry per op.

    The fields are :class:`OpRun`'s, in its order, less the two that no
    single GEMM or vector kernel charges (``link_bytes``,
    ``hidden_cycles``).  :meth:`Accelerator.gemm_charges` and
    :meth:`Accelerator.vector_charges` produce them.
    """

    cycles: NDArray[Any]
    compute_cycles: NDArray[Any]
    vector_cycles: NDArray[Any]
    ppu_cycles: NDArray[Any]
    macs: NDArray[Any]
    vector_ops: NDArray[Any]
    dram_read_bytes: NDArray[Any]
    dram_write_bytes: NDArray[Any]
    sram_read_bytes: NDArray[Any]
    sram_write_bytes: NDArray[Any]

    def rows(self, index: Any) -> "OpCharges":
        """The entries at ``index`` (a slice, mask or index array)."""
        return OpCharges(*(column[index] for column in self))

    def runs(self) -> list[OpRun]:
        """Every entry as an :class:`OpRun`."""
        return [OpRun(*row) for row in zip(*(c.tolist() for c in self))]

    def sum_by(self, group: NDArray[Any], size: int) -> list[OpRun]:
        """Entry sums per group: ``group[i]`` in ``range(size)`` names
        entry ``i``'s group; empty groups sum to :meth:`OpRun.zero`."""
        totals = np.zeros((size, len(self)), dtype=np.int64)
        np.add.at(totals, group, np.stack(self, axis=1))
        return [OpRun(*row) for row in totals.tolist()]


class ChargeColumns(NamedTuple):
    """The accelerator parameters the op charges read, as scalars or
    columns.

    :attr:`Accelerator.charge_columns` is one accelerator's all-scalar
    form; :func:`charge_columns` stacks several, and
    :func:`~repro.arch.engine.take_rows` gives each op its accelerator's
    entries.  :meth:`Accelerator.gemm_charges` and
    :meth:`Accelerator.vector_charges` broadcast over either form.
    """

    input_bytes: Any
    acc_bytes: Any
    can_fuse_norm: Any
    #: The PPU's per-GEMM pipeline flush (0 without a PPU).
    ppu_flush_cycles: Any
    dram_bytes_per_cycle: Any
    access_latency_cycles: Any
    vector_ops_per_cycle: Any
    reduction_overhead_factor: Any


def charge_columns(accelerators: "Sequence[Accelerator]") -> ChargeColumns:
    """The charge parameters of ``accelerators``, one entry per
    accelerator: rows of it charge ops each on its own accelerator."""
    return unit_columns(ChargeColumns,
                        [accel.charge_columns for accel in accelerators])


def _transfer_cycles(total_bytes: NDArray[Any],
                     unit: ChargeColumns) -> NDArray[Any]:
    """DRAM cycles of each entry's transfer: the bandwidth-only streaming
    cycles plus the access latency, exposed once per transfer (0 bytes
    cost 0 cycles)."""
    return np.where(
        total_bytes > 0,
        np.ceil(total_bytes / unit.dram_bytes_per_cycle).astype(np.int64)
        + unit.access_latency_cycles,
        0)


class Accelerator:
    """A complete training accelerator model.

    Parameters
    ----------
    name:
        Display name used in figures ("WS", "OS", "DiVa").
    engine:
        The GEMM engine (dataflow) of the accelerator.
    memory / vector / ppu:
        Sub-units; ``ppu=None`` models a PPU-less design (the WS
        baseline, or the "w/o PPU" ablations of Figures 13/14/16).
    """

    def __init__(
        self,
        name: str,
        engine: GemmEngine,
        memory: MemorySystem | None = None,
        vector: VectorUnit | None = None,
        ppu: "PostProcessingUnit | None" = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.memory = memory or MemorySystem(
            MemoryConfig(), frequency_hz=engine.config.frequency_hz
        )
        self.vector = vector or VectorUnit(VectorUnitConfig(
            frequency_hz=engine.config.frequency_hz
        ))
        self.ppu = ppu

    @property
    def config(self) -> ArrayConfig:
        return self.engine.config

    @property
    def frequency_hz(self) -> float:
        return self.engine.config.frequency_hz

    @property
    def can_fuse_norm(self) -> bool:
        """Whether per-example gradient norms can be derived on the fly.

        Requires an output-stationary drain (OS systolic or DiVa's
        outer product) feeding a PPU (Section IV-C); WS output tiles are
        too coarse to forward.
        """
        return (self.ppu is not None
                and self.engine.dataflow == "output_stationary"
                and self.ppu.matches_drain_rate(
                    self.config.drain_rows_per_cycle, self.config.width))

    @property
    def charge_columns(self) -> ChargeColumns:
        """This accelerator's parameters as the op charges read them."""
        vector = self.vector.config
        return ChargeColumns(
            self.config.input_bytes, self.config.acc_bytes,
            self.can_fuse_norm,
            0 if self.ppu is None else self.ppu.flush_cycles(),
            self.memory.bytes_per_cycle,
            self.memory.config.access_latency_cycles,
            vector.ops_per_cycle, vector.reduction_overhead_factor)

    # -- operations -----------------------------------------------------------
    def gemm_charges(
        self,
        m: NDArray[Any],
        k: NDArray[Any],
        n: NDArray[Any],
        count: NDArray[Any],
        write_output: NDArray[Any],
        fuse_norm: NDArray[Any],
        compute_cycles: NDArray[Any],
        sram_read_bytes: NDArray[Any],
        sram_write_bytes: NDArray[Any],
        columns: ChargeColumns | None = None,
    ) -> OpCharges:
        """Charge columns of GEMMs, one entry per GEMM.

        ``compute_cycles`` and the SRAM traffic are the engine's charge
        of all ``count`` instances (:meth:`GemmEngine.gemm_stats` or
        :func:`~repro.arch.engine.gemm_stats_batch`); this adds the DRAM
        traffic and its overlap.  Both operands are fetched from DRAM.
        ``write_output`` commits the results off-chip.  ``fuse_norm``
        routes the drained outputs through the PPU for on-the-fly
        L2-norm derivation (requires :attr:`can_fuse_norm`); the
        outputs are then *consumed*, not written back.

        ``columns`` (:func:`charge_columns` rows, one per GEMM) charges
        each GEMM on its own accelerator instead of this one.
        """
        unit = self.charge_columns if columns is None else columns
        fused = bool(fuse_norm.any())
        if fused and np.any(fuse_norm & np.logical_not(unit.can_fuse_norm)):
            raise ValueError(
                f"{self.name}: cannot fuse norm derivation "
                "(needs an output-stationary drain into a PPU)"
            )
        acc_bytes = unit.acc_bytes
        dram_read = (m * k + k * n) * count * unit.input_bytes
        dram_write = np.where(write_output, m * n * count * acc_bytes, 0)
        ppu_cycles = zero = np.zeros_like(compute_cycles)
        if fused:
            # Outputs stream through the adder trees during the drain;
            # one norm scalar per GEMM is emitted.  If the gradients
            # themselves must persist (plain DP-SGD's clipping), they
            # are committed alongside; under DP-SGD(R) they are consumed.
            # Only the per-GEMM pipeline flush is PPU-exposed time — the
            # drain itself is already part of the GEMM cycle count.
            ppu_cycles = np.where(
                fuse_norm, unit.ppu_flush_cycles * count, 0)
            compute_cycles = compute_cycles + ppu_cycles
            dram_write = np.where(fuse_norm, count * acc_bytes + dram_write,
                                  dram_write)
            sram_write_bytes = np.where(fuse_norm & ~write_output,
                                        count * acc_bytes, sram_write_bytes)
        transfer = _transfer_cycles(dram_read + dram_write, unit)
        return OpCharges(
            cycles=np.maximum(compute_cycles, transfer),
            compute_cycles=compute_cycles,
            vector_cycles=zero,
            ppu_cycles=ppu_cycles,
            macs=m * k * n * count,
            vector_ops=zero,
            dram_read_bytes=dram_read,
            dram_write_bytes=dram_write,
            sram_read_bytes=sram_read_bytes,
            sram_write_bytes=sram_write_bytes,
        )

    def vector_charges(
        self,
        elems: NDArray[Any],
        ops_per_elem: NDArray[Any],
        dram_read_bytes: NDArray[Any],
        dram_write_bytes: NDArray[Any],
        reduction: NDArray[Any],
        columns: ChargeColumns | None = None,
    ) -> OpCharges:
        """Charge columns of element-wise or reduction vector kernels.

        A reduction pre-scales its ops by the vector unit's
        ``reduction_overhead_factor`` (the permute/add passes of a
        cross-lane reduction), so each entry is
        ``ceil(elems * ops / lanes)`` in that float order.  ``columns``
        (:func:`charge_columns` rows, one per kernel) charges each
        kernel on its own accelerator instead of this one.
        """
        unit = self.charge_columns if columns is None else columns
        ops = np.where(reduction,
                       ops_per_elem * unit.reduction_overhead_factor,
                       ops_per_elem)
        compute = np.ceil(
            elems * ops / unit.vector_ops_per_cycle).astype(np.int64)
        sram = elems * unit.acc_bytes
        zero = np.zeros_like(compute)
        return OpCharges(
            cycles=np.maximum(compute, _transfer_cycles(
                dram_read_bytes + dram_write_bytes, unit)),
            compute_cycles=zero,
            vector_cycles=compute,
            ppu_cycles=zero,
            macs=zero,
            vector_ops=(elems * ops_per_elem).astype(np.int64),
            dram_read_bytes=dram_read_bytes,
            dram_write_bytes=dram_write_bytes,
            sram_read_bytes=sram,
            sram_write_bytes=sram,
        )

    def run_gemm(
        self,
        gemm: Gemm,
        write_output: bool = True,
        fuse_norm: bool = False,
    ) -> OpRun:
        """Execute one GEMM: the one entry of :meth:`gemm_charges`, priced
        by the engine's memoized :meth:`GemmEngine.gemm_stats`."""
        stats = self.engine.gemm_stats(gemm)
        return self.gemm_charges(*(np.array([value]) for value in (
            gemm.m, gemm.k, gemm.n, gemm.count, write_output, fuse_norm,
            stats.compute_cycles, stats.sram_read_bytes,
            stats.sram_write_bytes))).runs()[0]

    def run_vector(
        self,
        elems: int,
        ops_per_elem: float = 1.0,
        dram_read_bytes: int = 0,
        dram_write_bytes: int = 0,
        reduction: bool = False,
    ) -> OpRun:
        """Execute an element-wise or reduction kernel on the vector unit:
        the one entry of :meth:`vector_charges`."""
        return self.vector_charges(*(np.array([value]) for value in (
            elems, float(ops_per_elem), dram_read_bytes, dram_write_bytes,
            reduction))).runs()[0]

    def seconds(self, cycles: int) -> float:
        """Convert engine cycles to wall-clock seconds."""
        return cycles / self.frequency_hz

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ppu = "+PPU" if self.ppu is not None else ""
        return f"Accelerator({self.name}{ppu}, {self.engine!r})"

"""Closed-form pricing of training steps, from one step to config grids.

This module is the one pricer of a training step.
:func:`repro.training.simulate.simulate_training_step` (and the shard of
:func:`~repro.training.simulate.simulate_sharded_training_step`) is
:func:`training_step_batch` on one spec; grids of configurations —
workload x chips x bucket_bytes x topology x DP mode — run through the
same code in a few NumPy broadcast passes:

* The schedule rule :func:`~repro.training.simulate.step_gemm_blocks`
  expands over per-kind columns: each ``(network, GemmKind)`` is
  lowered once per process from ``network.gemms`` at batch 1 and 2
  into a bounded LRU of the layer column, the batch-1 dims and the
  int64 slope of m, k, n and count, deduplicated once into its
  distinct rows and shapes.  Any ``(batch, tp)`` is then ``base +
  (batch - 1) * slope`` with ``n`` ceil-divided by ``tp``; GEMMs that
  are not batch-affine raise at lowering time.
* :func:`training_step_batch` groups a list of single-chip step specs
  by engine class (WS, OS, DiVa, packed), then by ``(network,
  algorithm, tp, can_fuse_norm)`` — every geometry of a class shares
  one group — and broadcasts each group's template over its specs by
  index arithmetic: the
  :func:`~repro.training.simulate.step_vector_kernels` rows become one
  ``specs x kernels`` column pass and the GEMM blocks one ``specs x
  ops`` dims pass (a grid prices each distinct GEMM of a block once,
  weighted by its ops).  Every parameter that differs between the
  accelerators — array geometry, drain and fill rates, PPU, memory,
  vector unit — is a column gathered per row
  (:class:`~repro.arch.engine.ArrayColumns`,
  :class:`~repro.arch.accelerator.ChargeColumns`).  Each engine class
  prices its distinct ``(shape, batch, tp, accelerator)`` instances,
  numbered by integer arithmetic, in one
  :func:`repro.arch.batch.gemm_stats_batch` pass, and every op is
  charged on its own accelerator by the column forms
  (:meth:`~repro.arch.accelerator.Accelerator.vector_charges`,
  :meth:`~repro.arch.accelerator.Accelerator.gemm_charges`), every
  :class:`~repro.arch.accelerator.OpRun` field per op.  A grid sums
  only the cycles per phase; ``collect_ops=True`` keeps every op's
  full charge (:attr:`StepBatch.ops`) for a step report, its trace and
  the pipeline schedule.  Python visits a spec only to group it and
  never visits an op.
* :func:`sharded_step_batch` resolves a grid of names into the one
  composition of a sharded step, :func:`_sharded_steps`, which
  :func:`~repro.training.simulate.simulate_sharded_training_step` runs
  on one point.  It reuses one shard evaluation for every point that
  shares a ``(kind, model, algorithm, local batch, tp)``; 3D points
  (``pp``/``tp`` > 1) hand their collected op columns and cycles to
  :func:`~repro.training.parallel.build_pipeline_schedule`, and
  :func:`step_comm_cycles` prices every point's collectives.

``tests/test_batch_step.py`` pins the steps, every field of every
phase, and the sharded steps, every report field, to the Python
oracles of ``tests/step_oracle.py``.  The
``scaling`` and ``design-space`` experiments and the fleet simulator's
service-time table (:mod:`repro.serve.scheduler`) run their grids
through this module; the process-pool runner remains for non-analytic
work.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Iterator,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.arch.accelerator import (
    Accelerator,
    ChargeColumns,
    OpCharges,
    OpRun,
    charge_columns,
)
from repro.arch.batch import (
    allreduce_seconds_batch,
    first_bucket_seconds_batch,
    gemm_stats_batch,
    link_bytes_per_chip_batch,
    n_buckets_batch,
    topology_codes,
)
from repro.arch.cluster import ParallelPlan
from repro.arch.engine import GemmEngine, engine_columns, take_rows
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
    step_gemm_blocks,
    step_vector_kernels,
)
# The GEMM op list, under the name ``perfbench/tracing.py`` times
# through this module (as it does :func:`step_vector_runs`).
from repro.training.simulate import step_gemm_ops  # noqa: F401
from repro.workloads.gemms import Gemm, GemmKind
from repro.workloads.model import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler
    from repro.training.parallel import PipelineSchedule

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
    the ``cycles`` of :attr:`~repro.training.simulate.TrainingReport.phases`.
    """

    phase_cycles: np.ndarray
    frequency_hz: np.ndarray
    #: Each spec's priced operations, every OpRun field (only when
    #: collected), as read-only views of the columns priced.
    ops: "dict[int, StepOps] | None" = None

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


class StepOps(NamedTuple):
    """One step's priced operations (an entry of :attr:`StepBatch.ops`).

    ``step`` holds the GEMM ops in schedule order and ``gemm`` their
    charges; ``kernel_phase`` holds each
    :func:`~repro.training.simulate.step_vector_kernels` row's
    :data:`STEP_PHASES` index and ``vector`` its charge.
    """

    step: LoweredStep
    gemm: OpCharges
    kernel_phase: np.ndarray
    vector: OpCharges

    def phase_runs(self) -> dict[Phase, OpRun]:
        """Every field of every phase: the vector kernels' plus the GEMM
        ops' charges.  The key set is the step's phase set — every
        phase has a kernel row — in kernel order."""
        return _phase_runs(
            np.concatenate([self.kernel_phase, self.step.phase]),
            OpCharges(*map(np.concatenate, zip(self.vector, self.gemm))),
            self.kernel_phase)

    def op_log(self, algorithm: Algorithm, accelerator: Accelerator
               ) -> list[tuple[GemmOp, OpRun]]:
        """The GEMM ops as :class:`~repro.training.simulate.GemmOp`
        records with their charges, in schedule order (the per-GEMM
        spans of :mod:`repro.obs.trace`)."""
        kinds = {block.phase: block.kind
                 for block in step_gemm_blocks(algorithm, accelerator)}
        layers = self.step.network.layers
        log = []
        for (p, layer, m, k, n, count, write_output, fuse_norm), run in zip(
                zip(*(getattr(self.step, name).tolist()
                      for name in _OP_COLUMNS)), self.gemm.runs()):
            phase = STEP_PHASES[p]
            gemm = Gemm(m, k, n, count, kinds[phase], layers[layer].name)
            log.append((GemmOp(phase, gemm, write_output, fuse_norm), run))
        return log


def _phase_runs(phase: np.ndarray, charges: OpCharges,
                kernel_phase: np.ndarray) -> dict[Phase, OpRun]:
    """``charges`` summed by ``phase`` (:data:`STEP_PHASES` indices),
    keyed by the phases of ``kernel_phase`` in first-appearance order."""
    runs = charges.sum_by(phase, len(STEP_PHASES))
    return {STEP_PHASES[p]: runs[p]
            for p in dict.fromkeys(kernel_phase.tolist())}


#: The :class:`LoweredStep` columns, in field order.
_OP_COLUMNS = ("phase", "layer", "m", "k", "n", "count", "write_output",
               "fuse_norm")


def _layer_column(network: Network, gemms: Sequence[Gemm]) -> list[int]:
    """Each GEMM's index into ``network.layers``; a GEMM whose layer the
    network does not name rides with the previous GEMM's layer."""
    index = {layer.name: i for i, layer in enumerate(network.layers)}
    layers = []
    previous = 0
    for gemm in gemms:
        previous = index.get(gemm.layer, previous)
        layers.append(previous)
    return layers


@dataclass(frozen=True)
class _AffineGemms:
    """One network's GEMMs of one kind, lowered at batch 1, plus how
    their dims grow per example, deduplicated.

    ``layer`` is the read-only int64 layer column; ``dims`` and ``slope``
    are read-only ``(4, ops)`` int64 rows of m, k, n and count: at batch
    ``b`` the dims are ``dims + (b - 1) * slope``.  Rows with equal dims
    and slopes are one GEMM at every batch: ``first`` holds the first
    row of each distinct one and ``weight`` how many rows repeat it (a
    transformer's encoder layers repeat a handful of GEMMs).  Rows with
    equal m, k and n dims and slopes are one *shape*: ``shapes`` holds
    the distinct ``(m, k, n, m slope, k slope, n slope)`` tuples in
    first-appearance order, and ``shape`` each row's index into it.
    The arrays are read-only.  The entry holds its network, so the
    identity it is keyed by stays live.
    """

    network: Network
    layer: np.ndarray
    dims: np.ndarray
    slope: np.ndarray
    first: np.ndarray
    weight: np.ndarray
    shape: np.ndarray
    shapes: tuple[tuple[int, ...], ...]


def _gemm_dims(gemms: Sequence[Gemm]) -> np.ndarray:
    return np.array([(g.m, g.k, g.n, g.count) for g in gemms],
                    dtype=np.int64).reshape(-1, 4).T


def _lower_kind(network: Network, kind: GemmKind) -> _AffineGemms:
    """Lower ``network.gemms(kind, .)`` at batch 1 and 2, check the
    GEMMs are batch-affine (the same layers, with non-negative slopes)
    and deduplicate their rows and shapes."""
    one, two = (network.gemms(kind, batch) for batch in (1, 2))
    layer = _layer_column(network, one)
    dims = _gemm_dims(one)
    same = len(one) == len(two) and layer == _layer_column(network, two)
    slope = _gemm_dims(two) - dims if same else None
    if slope is None or (slope < 0).any():
        raise ValueError(
            f"{network.name}: the {kind.value} GEMMs are not batch-affine, "
            f"so the step pricer cannot lower them")
    rows: dict[tuple[int, ...], int] = {}
    shapes: dict[tuple[int, ...], int] = {}
    first, row_of, shape = [], [], []
    for j, row in enumerate(map(tuple, np.concatenate([dims, slope])
                                .T.tolist())):
        row_of.append(rows.setdefault(row, len(rows)))
        if row_of[-1] == len(first):
            first.append(j)
        shape.append(shapes.setdefault(row[:3] + row[4:7], len(shapes)))
    dims.flags.writeable = False
    slope.flags.writeable = False
    return _AffineGemms(network=network, layer=_frozen(layer, np.int64),
                        dims=dims, slope=slope, first=_frozen(first, np.int64),
                        weight=_frozen(np.bincount(row_of), np.int64),
                        shape=_frozen(shape, np.int64), shapes=tuple(shapes))


#: Upper bound on memoized per-kind lowerings (LRU eviction).
LOWERED_STEP_CACHE_MAXSIZE = 512

#: Shared bounded LRU of batch-affine per-kind lowerings, keyed by
#: ``(id(network), GemmKind)`` — GEMM dims depend on nothing else, so
#: every algorithm, dataflow and tp of a network shares them.  Networks
#: key by identity (zoo variants share names); entries hold their
#: network, so a live key's id cannot be reused.
_LOWERED_KINDS: "OrderedDict[tuple[int, GemmKind], _AffineGemms]" = \
    OrderedDict()


def clear_lowered_step_cache() -> None:
    """Drop every memoized lowering (mainly for benchmarks)."""
    _LOWERED_KINDS.clear()


def _affine_gemms(network: Network, kind: GemmKind) -> _AffineGemms:
    key = (id(network), kind)
    entry = _LOWERED_KINDS.get(key)
    if entry is None:
        entry = _LOWERED_KINDS[key] = _lower_kind(network, kind)
        if len(_LOWERED_KINDS) > LOWERED_STEP_CACHE_MAXSIZE:
            _LOWERED_KINDS.popitem(last=False)
    else:
        _LOWERED_KINDS.move_to_end(key)
    return entry


@dataclass(frozen=True)
class _SpecGroups:
    """Step specs grouped by engine class, then by step template.

    A group is the specs of one engine class that share ``(network,
    algorithm, tp, can_fuse_norm)``: the dataflow and norm fusion are
    all a step template reads of an accelerator, so one group holds
    every geometry of a design-space grid.  ``heads`` holds each
    group's ``(accelerator, network, algorithm, tp)``, the accelerator
    being any one of the group's; groups of one class are adjacent
    (``class_groups`` counts them per class, in first-appearance order).
    Spec positions run group by group, ``count[g]`` of them for group
    ``g``; position ``p`` is spec ``index[p]`` at mini-batch
    ``batch[p]`` on accelerator ``units[unit[p]]``.  The distinct
    accelerators are numbered class by class (``class_units`` counts
    them per class), and ``unit_charges`` holds their charge
    parameters.
    """

    heads: list[tuple[Accelerator, Network, Algorithm, int]]
    class_groups: list[int]
    units: list[Accelerator]
    class_units: list[int]
    unit_charges: ChargeColumns
    index: np.ndarray
    batch: np.ndarray
    unit: np.ndarray
    count: np.ndarray


def _group_specs(specs: Sequence[tuple]) -> _SpecGroups:
    # Engine class -> (its accelerators, its groups by template key).
    classes: dict[type, tuple[list[Accelerator], dict[tuple, tuple]]] = {}
    # Accelerator id -> (its class's groups, index in class, can fuse).
    units: dict[int, tuple[dict[tuple, tuple], int, bool]] = {}
    for index, (accel, network, algorithm, batch, *rest) in enumerate(specs):
        tp = rest[0] if rest else 1
        unit = units.get(id(accel))
        if unit is None:
            accels, by_group = classes.setdefault(type(accel.engine),
                                                  ([], {}))
            unit = units[id(accel)] = (by_group, len(accels),
                                       accel.can_fuse_norm)
            accels.append(accel)
        by_group, local, fuse = unit
        group = by_group.get((id(network), algorithm, tp, fuse))
        if group is None:
            group = by_group[id(network), algorithm, tp, fuse] = (
                (accel, network, algorithm, tp), [], [], [])
        group[1].append(index)
        group[2].append(batch)
        group[3].append(local)
    groups = []
    unit_list: list[Accelerator] = []
    for accels, by_group in classes.values():
        offset = len(unit_list)
        unit_list += accels
        groups += [(head, indices, batches, [offset + u for u in locals_])
                   for head, indices, batches, locals_ in by_group.values()]
    batch = np.array([b for _, _, batches, _ in groups for b in batches],
                     dtype=np.int64)
    if (batch <= 0).any():
        raise ValueError(f"batch must be positive, got {int(batch.min())}")
    return _SpecGroups(
        heads=[head for head, *_ in groups],
        class_groups=[len(by_group) for _, by_group in classes.values()],
        units=unit_list,
        class_units=[len(accels) for accels, _ in classes.values()],
        unit_charges=charge_columns(unit_list),
        index=np.array([u for _, indices, _, _ in groups for u in indices],
                       dtype=np.int64),
        batch=batch,
        unit=np.array([u for *_, units in groups for u in units],
                      dtype=np.int64),
        count=np.array([len(indices) for _, indices, _, _ in groups],
                       dtype=np.int64),
    )


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``arange(start, start + length)``, concatenated."""
    begins = np.cumsum(lengths) - lengths
    return (np.repeat(starts - begins, lengths)
            + np.arange(int(lengths.sum()), dtype=np.int64))


def _expand(groups: _SpecGroups, rows: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast per-group templates over the groups' specs.

    Group ``g`` has a template of ``rows[g]`` consecutive rows (the
    templates laid end to end).  Returns the ``(template row, spec
    position)`` of every (group, spec, row), group by group and spec
    by spec, so each spec's rows are one contiguous run in template
    order."""
    per_spec = np.repeat(rows, groups.count)
    return (_ragged_arange(np.repeat(np.cumsum(rows) - rows, groups.count),
                           per_spec),
            np.repeat(np.arange(len(per_spec)), per_spec))


def _dense_unique(key: np.ndarray, space: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)``: an entry of each distinct value of ``key``
    (ints in ``range(space)``), in increasing value order, and each
    entry's distinct index.

    Marks the values in a table of ``space`` flags, so it costs two
    passes over ``key`` and none of a sort; a key space much larger
    than the key falls back to ``np.unique``'s sort.
    """
    if space > 4 * len(key) + 4096:
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        return first, inverse
    seen = np.zeros(space, dtype=bool)
    seen[key] = True
    values = np.flatnonzero(seen)
    slot = np.empty(space, dtype=np.int64)
    slot[values] = np.arange(len(values))
    inverse = slot[key]
    first = np.empty(len(values), dtype=np.int64)
    first[inverse] = np.arange(len(key))
    return first, inverse


class _GemmColumns(NamedTuple):
    """Every GEMM op of a set of grouped specs, as columns.

    ``position`` is each op's spec position (:class:`_SpecGroups`); the
    ops of one spec are contiguous and in schedule order, and
    ``op_count[g]`` is the number of ops of each spec of group ``g``.
    ``shape`` is each op's template shape (:class:`_AffineGemms`),
    numbered across the entries in use so that equal shapes of two
    entries are one, and ``varies[s]`` whether shape ``s``'s m, k or n
    grows with the batch.  ``weight`` is how many ops each row stands
    for (``None`` when every row is one op).
    """

    position: np.ndarray
    op_count: np.ndarray
    phase: np.ndarray
    layer: np.ndarray
    m: np.ndarray
    k: np.ndarray
    n: np.ndarray
    count: np.ndarray
    write_output: np.ndarray
    fuse_norm: np.ndarray
    shape: np.ndarray
    varies: np.ndarray
    weight: np.ndarray | None


def _gemm_columns(groups: _SpecGroups, every_op: bool = True
                  ) -> _GemmColumns:
    """Expand each group's :func:`step_gemm_blocks` over the per-kind
    lowerings and broadcast it over the group's batches and ``tp``.

    With ``every_op`` each GEMM op is one row, in schedule order.
    Without it each distinct GEMM of a block is one row, with the
    number of ops repeating it as its ``weight`` and the layer of its
    first op: the phase cycles are the weighted sums, in a fraction of
    the rows.
    """
    # Template rows index the per-kind lowerings (every row, or each
    # distinct row), laid side by side in one (4, rows) table of
    # batch-1 dims and one of slopes.  Entries of one call can share
    # shapes (kinds and networks repeat layers), so their shapes are
    # numbered once more, across entries.
    kinds: dict[tuple, tuple[int, int, _AffineGemms, Any]] = {}
    rules: dict[tuple, list[tuple[GemmKind, int, bool, bool]]] = {}
    width = 0
    blocks: list[tuple[int, int, int, bool, bool]] = []
    op_count = []
    for accel, network, algorithm, _ in groups.heads:
        rule = (algorithm, accel.engine.dataflow, accel.can_fuse_norm)
        if rule not in rules:
            rules[rule] = [
                (block.kind, _PHASE_INDEX[block.phase], block.write_output,
                 block.fuse_norm)
                for block in step_gemm_blocks(algorithm, accel)]
        total = 0
        for kind, phase, write_output, fuse_norm in rules[rule]:
            lowered = kinds.get((id(network), kind))
            if lowered is None:
                entry = _affine_gemms(network, kind)
                rows = slice(None) if every_op else entry.first
                lowered = kinds[id(network), kind] = (
                    width, len(entry.layer[rows]), entry, rows)
                width += lowered[1]
            start, size, _, _ = lowered
            blocks.append((start, size, phase, write_output, fuse_norm))
            total += size
        op_count.append(total)
    base, slope, layer = (
        np.concatenate([getattr(entry, name)[..., rows]
                        for _, _, entry, rows in kinds.values()], axis=-1)
        for name in ("dims", "slope", "layer"))
    shapes: dict[tuple[int, ...], int] = {}
    shape = np.concatenate([
        np.array([shapes.setdefault(row, len(shapes)) for row in entry.shapes],
                 dtype=np.int64)[entry.shape[rows]]
        for _, _, entry, rows in kinds.values()])
    start, size, phase, write_output, fuse_norm = (
        np.array(column, dtype=dtype) for column, dtype in zip(
            zip(*blocks), (np.int64,) * 3 + (bool,) * 2))
    template = _ragged_arange(start, size)
    op_count = np.array(op_count, dtype=np.int64)
    row, position = _expand(groups, op_count)
    column = template[row]
    grown = groups.batch[position] - 1
    m, k, n, count = (base[i][column] + grown * slope[i][column]
                      for i in range(4))
    tp = np.repeat(np.array([head[3] for head in groups.heads],
                            dtype=np.int64), groups.count)
    return _GemmColumns(
        position=position, op_count=op_count,
        phase=np.repeat(phase, size)[row], layer=layer[column],
        m=m, k=k, n=-(-n // tp[position]), count=count,
        write_output=np.repeat(write_output, size)[row],
        fuse_norm=np.repeat(fuse_norm, size)[row], shape=shape[column],
        varies=np.array([any(row[3:]) for row in shapes], dtype=bool),
        weight=None if every_op else np.concatenate(
            [entry.weight for _, _, entry, _ in kinds.values()])[column])


def _class_rows(groups: _SpecGroups, per_spec: np.ndarray
                ) -> Iterator[tuple[GemmEngine, slice, slice, slice]]:
    """Each engine class's ``(engine, units, positions, rows)``: one
    engine of the class, its slices of :attr:`_SpecGroups.units` and of
    the spec positions, and its contiguous run of rows, where every
    spec of group ``g`` has ``per_spec[g]`` rows (a group's specs, and
    the groups of one class, are adjacent)."""
    stops = np.cumsum(per_spec * groups.count).tolist()
    position_stops = np.cumsum(groups.count).tolist()
    first = stop = unit_stop = position_stop = 0
    for size, units in zip(groups.class_groups, groups.class_units):
        start, stop = stop, stops[first + size - 1]
        unit_start, unit_stop = unit_stop, unit_stop + units
        position_start, position_stop = (position_stop,
                                          position_stops[first + size - 1])
        yield (groups.heads[first][0].engine, slice(unit_start, unit_stop),
               slice(position_start, position_stop), slice(start, stop))
        first += size


class _Kernels(NamedTuple):
    """Every vector kernel of a set of grouped specs, priced.

    ``position`` is each kernel's spec position (:class:`_SpecGroups`),
    ``phase`` its :data:`STEP_PHASES` index, and ``kernel_count[g]`` the
    number of kernels of each spec of group ``g``.
    """

    position: np.ndarray
    phase: np.ndarray
    kernel_count: np.ndarray
    charges: OpCharges


def _vector_kernels(groups: _SpecGroups) -> _Kernels:
    """Price every grouped spec's :func:`step_vector_kernels` rows.

    The rows are stated once per ``(network, algorithm, tp, dataflow,
    can_fuse_norm)``, one template row per (group, kernel) is broadcast
    over the group's batches (elements and DRAM bytes are affine in the
    batch), and one :meth:`Accelerator.vector_charges` call charges
    every kernel on its own accelerator.
    """
    rows: list[tuple] = []
    kernel_count = []
    templates: dict[tuple, list[tuple]] = {}
    for accel, network, algorithm, tp in groups.heads:
        key = (id(network), algorithm, tp, accel.engine.dataflow,
               accel.can_fuse_norm)
        template = templates.get(key)
        if template is None:
            template = templates[key] = [
                (_PHASE_INDEX[k.phase], k.elems_per_example, k.elems_fixed,
                 k.read_per_example, k.read_fixed, k.write_per_example,
                 k.write_fixed, k.ops_per_elem, k.reduction)
                for k in step_vector_kernels(network, algorithm, accel, tp)]
        rows += template
        kernel_count.append(len(template))
    (phase, elems_per_example, elems_fixed, read_per_example, read_fixed,
     write_per_example, write_fixed, ops, reduction) = (
        np.array(column, dtype=dtype) for column, dtype in zip(
            zip(*rows), (np.int64,) * 7 + (float, bool)))
    counts = np.array(kernel_count, dtype=np.int64)
    row, position = _expand(groups, counts)
    batch = groups.batch[position]
    charges = groups.units[0].vector_charges(
        batch * elems_per_example[row] + elems_fixed[row], ops[row],
        batch * read_per_example[row] + read_fixed[row],
        batch * write_per_example[row] + write_fixed[row], reduction[row],
        columns=take_rows(groups.unit_charges, groups.unit[position]))
    return _Kernels(position=position, phase=phase[row],
                    kernel_count=counts, charges=charges)


def step_vector_runs(
    network: Network,
    algorithm: Algorithm,
    accelerator: Accelerator,
    batch: int,
    tp: int = 1,
) -> dict[Phase, OpRun]:
    """Non-GEMM (vector / element-wise) work of one step, per phase.

    The :func:`step_vector_kernels` rows priced as in
    :func:`training_step_batch` and summed per phase; phases whose work
    is GEMM-only carry a zero :class:`OpRun`, so the key set is the
    step's phase set.
    """
    kernels = _vector_kernels(_group_specs(
        [(accelerator, network, algorithm, batch, tp)]))
    return _phase_runs(kernels.phase, kernels.charges, kernels.phase)


def training_step_batch(
    specs: Sequence[tuple],
    profiler: "Profiler | None" = None,
    *,
    collect_ops: bool = False,
) -> StepBatch:
    """Price single-chip training steps in one pass per engine class.

    ``specs`` is a sequence of ``(accelerator, network, algorithm,
    batch[, tp])`` tuples; accelerators may repeat or differ freely.  A
    trailing ``tp`` column-shards every GEMM and parameter-proportional
    vector kernel across a tensor-parallel group.
    :func:`~repro.training.simulate.simulate_training_step` is this
    function on one spec.

    Specs are grouped by engine class (WS, OS, DiVa, packed), then by
    ``(network, algorithm, tp, can_fuse_norm)``: every geometry of a
    class shares one group.  Each group contributes one template — its
    :func:`step_vector_kernels` rows and its :func:`step_gemm_blocks`
    expanded over the memoized per-kind lowerings — and every template
    row is broadcast over the group's specs by index arithmetic, so the
    vector kernels form one ``specs x kernels`` column pass and the
    GEMM dims one ``specs x ops`` pass; Python visits a spec only to
    group it.  Every op is charged on its own accelerator, whose
    parameters are gathered as columns, by one
    :meth:`~repro.arch.accelerator.Accelerator.vector_charges` and one
    :meth:`~repro.arch.accelerator.Accelerator.gemm_charges` call
    (:func:`_gemm_charges` prices the GEMMs); only the cycles are
    summed into the phase matrix.

    ``collect_ops=True`` additionally keeps every op's columns and full
    charge in :attr:`StepBatch.ops` — the inputs of a step report, its
    trace and the pipeline schedule of a 3D grid point.

    ``profiler`` (a :class:`repro.obs.profile.Profiler`) times the
    vector-kernel and batched-GEMM stages and counts specs / GEMM ops
    / priced GEMM instances — purely additive bookkeeping.
    """
    specs = list(specs)
    frequency = np.array([accel.frequency_hz for accel, *_ in specs],
                         dtype=float)
    if profiler is not None:
        profiler.count("step_specs", len(specs))
    matrix = np.zeros((len(specs), len(STEP_PHASES)), dtype=np.int64)
    if not specs:
        return StepBatch(phase_cycles=matrix, frequency_hz=frequency)
    groups = _group_specs(specs)
    flat = matrix.reshape(-1)

    with _stage(profiler, "step-batch/vector"):
        kernels = _vector_kernels(groups)
        np.add.at(flat, groups.index[kernels.position] * len(STEP_PHASES)
                  + kernels.phase, kernels.charges.cycles)

    with _stage(profiler, "step-batch/gemm"):
        ops = _gemm_columns(groups, every_op=collect_ops)
        charges = _gemm_charges(groups, ops, profiler)
        if collect_ops:
            gemm = OpCharges(*map(np.concatenate, zip(*charges)))
            cycles = gemm.cycles
        else:
            # A grid keeps only the cycles of each class's charges, one
            # row per distinct GEMM of a block, weighted by its ops.
            cycles = np.concatenate([charge.cycles for charge in charges]
                                    ) * ops.weight
        np.add.at(flat, groups.index[ops.position] * len(STEP_PHASES)
                  + ops.phase, cycles)

    if not collect_ops:
        return StepBatch(phase_cycles=matrix, frequency_hz=frequency)
    op_columns = [getattr(ops, name) for name in _OP_COLUMNS]
    for column in (*op_columns, *gemm, kernels.phase, *kernels.charges):
        column.flags.writeable = False
    # Each spec's ops and kernels are contiguous runs, in schedule order.
    by_spec: dict[int, StepOps] = {}
    spec = iter(groups.index.tolist())
    op_stop = kernel_stop = 0
    for (_, network, _, _), specs_in_group, op_count, kernel_count in zip(
            groups.heads, groups.count.tolist(), ops.op_count.tolist(),
            kernels.kernel_count.tolist()):
        for _ in range(specs_in_group):
            op_start, op_stop = op_stop, op_stop + op_count
            kernel_start, kernel_stop = kernel_stop, kernel_stop + kernel_count
            gemms = slice(op_start, op_stop)
            rows = slice(kernel_start, kernel_stop)
            by_spec[next(spec)] = StepOps(
                LoweredStep(network, *(column[gemms]
                                       for column in op_columns)),
                gemm.rows(gemms), kernels.phase[rows],
                kernels.charges.rows(rows))
    return StepBatch(phase_cycles=matrix, frequency_hz=frequency,
                     ops=by_spec)


#: Rows per :func:`gemm_stats_batch` and
#: :meth:`Accelerator.gemm_charges` call of :func:`_gemm_charges`: the
#: bound on its temporaries.
_CHUNK = 4096


def _chunks(length: int) -> Iterator[slice]:
    """``range(length)`` in slices of at most :data:`_CHUNK` entries."""
    return (slice(start, min(start + _CHUNK, length))
            for start in range(0, length, _CHUNK))


def _gemm_charges(groups: _SpecGroups, ops: _GemmColumns,
                  profiler: "Profiler | None") -> Iterator[OpCharges]:
    """The GEMM ops' charges, in row order, engine class by engine class.

    A priced *instance* is a template shape (:class:`_AffineGemms`) at
    one ``(batch, tp)`` on one accelerator; a shape whose m, k and n do
    not grow with the batch is one instance at every batch.  Instances
    are numbered by integer arithmetic on the ops' shape, the rank of
    their spec's ``(batch, tp)`` and their accelerator's index in its
    class (:func:`_dense_unique`), so no op row is sorted.  Each class
    prices its distinct instances once by :func:`gemm_stats_batch`,
    each on its own geometry (:func:`~repro.arch.engine.engine_columns`
    rows), scales them to every op's ``count`` by
    :meth:`~repro.arch.engine.GemmEngine.rounds` and charges every op on
    its own accelerator by :meth:`Accelerator.gemm_charges`.  Both run
    over :data:`_CHUNK` rows at a time.
    """
    # Rank every spec position's (batch, tp) pair, then its (1, tp) pair.
    tp = np.repeat(np.array([head[3] for head in groups.heads],
                            dtype=np.int64), groups.count)
    pairs, rank = np.unique(
        np.concatenate([groups.batch, np.ones_like(groups.batch)])
        * (int(tp.max()) + 1) + np.concatenate([tp, tp]),
        return_inverse=True)
    rank = rank.reshape(2, -1)

    for engine, units, positions, rows in _class_rows(groups, ops.op_count):
        geometry = engine_columns(
            [accel.engine for accel in groups.units[units]])
        size = units.stop - units.start
        # Each position's accelerator in the class, and its instance
        # key but for the shape: (rank, accelerator) at its batch (row
        # 0) and at batch 1 (row 1).
        local = groups.unit[positions] - units.start
        at = rank[:, positions] * size + local
        position = ops.position[rows] - positions.start
        shape = ops.shape[rows]
        first, inverse = _dense_unique(
            shape * (len(pairs) * size) + np.where(
                ops.varies[shape], at[0][position], at[1][position]),
            len(ops.varies) * len(pairs) * size)
        if profiler is not None:
            profiler.count("gemm_ops", len(position))
            profiler.count("unique_gemm_shapes", len(first))
        m, k, n, count, write_output, fuse_norm = (
            column[rows] for column in (ops.m, ops.k, ops.n, ops.count,
                                        ops.write_output, ops.fuse_norm))
        priced = [gemm_stats_batch(engine, m[rep], k[rep], n[rep], 1,
                                   take_rows(geometry, local[position[rep]]))
                  for rep in map(first.__getitem__, _chunks(len(first)))]
        compute, sram_read, sram_write = (
            np.concatenate([getattr(stats, name) for stats in priced])
            for name in ("compute_cycles", "sram_read_bytes",
                         "sram_write_bytes"))
        for part in _chunks(len(position)):
            instance, unit = inverse[part], local[position[part]]
            # One instance's engine charge, scaled to all ``count`` of
            # them as gemm_stats_batch scales it.
            yield groups.units[0].gemm_charges(
                m[part], k[part], n[part], count[part], write_output[part],
                fuse_norm[part],
                compute_cycles=compute[instance] * engine.rounds(
                    m[part], n[part], count[part], geometry, unit),
                sram_read_bytes=sram_read[instance] * count[part],
                sram_write_bytes=sram_write[instance] * count[part],
                columns=take_rows(groups.unit_charges, unit + units.start))


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
    :func:`_sharded_steps`.  ``norm_payload`` is 0 for non-private
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

    This front end resolves names and validates the grid; the step
    itself is :func:`_sharded_steps`, the composition that
    :func:`~repro.training.simulate.simulate_sharded_training_step`
    runs on one point.  The shard is evaluated once per distinct
    ``(kind, model, algorithm, local batch, tp)``, pipeline schedules
    once per distinct ``(shard, pp)``, and the collective model runs
    fully vectorized.  ``profiler`` forwards to
    :func:`training_step_batch` and counts grid points / unique shard
    evaluations.
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
    if (pp_col < 1).any() or (tp_col < 1).any():
        raise ValueError("pp and tp degrees must be >= 1")
    mp = pp_col * tp_col
    if (n_chips % mp).any():
        bad = int(np.argmax(n_chips % mp != 0))
        raise ValueError(
            f"{int(n_chips[bad])} chips do not factor into "
            f"pp={int(pp_col[bad])} x tp={int(tp_col[bad])} stages")
    # InterconnectConfig rejects chips_per_node on flat topologies;
    # grid columns keep the same contract.
    if ((topo != TOPOLOGY_CODES["hierarchical"]) & (cpn != 1)).any():
        raise ValueError(
            "chips_per_node is only meaningful for the 'hierarchical' "
            "topology")

    accels = {kind: build_accelerator(kind, config=config)
              for kind in dict.fromkeys(kind_names)}
    return _sharded_steps(
        [accels[kind] for kind in kind_names],
        [build_model(model) for model in models],
        [Algorithm(algorithm) for algorithm in algorithm_names],
        global_batch, n_chips // mp, pp_col, tp_col, topo, bucket, cpn,
        links, overlap, profiler=profiler)[0]


def _sharded_steps(
    accelerators: Sequence[Accelerator],
    networks: Sequence[Network],
    algorithms: Sequence[Algorithm],
    global_batch: np.ndarray,
    dp: np.ndarray,
    pp: np.ndarray,
    tp: np.ndarray,
    topology: np.ndarray,
    bucket: np.ndarray,
    chips_per_node: np.ndarray,
    links: tuple[np.ndarray, ...],
    overlap: np.ndarray,
    *,
    microbatches: "Sequence[int | None] | None" = None,
    collect_ops: bool = False,
    profiler: "Profiler | None" = None,
) -> "tuple[ShardedStepBatch, StepBatch, list[PipelineSchedule | None]]":
    """The one composition of a sharded (DP, or 3D DP x PP x TP) step.

    Every column holds one entry per resolved grid point; ``links`` is
    :meth:`Fabric.link_params` order and ``microbatches`` each point's
    :attr:`ParallelPlan.microbatches` (all ``None`` when omitted).
    Each point's replica runs ``global_batch / dp`` examples on one
    :func:`training_step_batch` shard; the gradient allreduce moves
    ``params * GRAD_BYTES`` (one pipeline stage's TP-sharded share
    under a 3D plan) and private algorithms add one ``GRAD_BYTES``
    norm per example of the global batch.  The allreduce may hide
    behind the backward phase that produces the gradient sum bucket
    by bucket: the clipping pass under DP-SGD, the per-batch
    weight-gradient GEMMs otherwise (a 3D plan's bottleneck stage's
    share of it).  :func:`step_comm_cycles` prices the collectives.

    Returns the grid's steps, its distinct shards (one
    :class:`StepBatch` row each, in first-appearance order, so the
    first point's shard is row 0) and each point's pipeline schedule
    (``None`` for pure-DP points).
    """
    if (global_batch <= 0).any():
        raise ValueError(f"global batch must be positive, got "
                         f"{int(global_batch.min())}")
    if (global_batch % dp).any():
        bad = int(np.argmax(global_batch % dp != 0))
        plan = ParallelPlan(dp=int(dp[bad]), pp=int(pp[bad]),
                            tp=int(tp[bad]))
        across = (f"{plan.n_chips} chips" if plan.is_pure_dp else
                  f"{plan.dp} data-parallel replicas of plan {plan}")
        raise ValueError(f"global batch {int(global_batch[bad])} does not "
                         f"divide evenly across {across}")
    length = len(networks)
    local_batch = global_batch // dp
    specs: list[tuple] = []
    shard_index = np.empty(length, dtype=np.int64)
    key_to_index: dict[tuple, int] = {}
    for i, (accel, network, algorithm, batch, shards) in enumerate(zip(
            accelerators, networks, algorithms, local_batch.tolist(),
            tp.tolist())):
        key = (id(accel), id(network), algorithm, batch, shards)
        index = key_to_index.get(key)
        if index is None:
            index = key_to_index[key] = len(specs)
            specs.append((accel, network, algorithm, batch, shards))
        shard_index[i] = index
    if profiler is not None:
        profiler.count("grid_points", length)
        profiler.count("unique_shards", len(specs))
    mp = pp * tp
    step = training_step_batch(specs, profiler=profiler,
                               collect_ops=collect_ops or bool(
                                   (mp > 1).any()))

    shard_cycles = step.total_cycles[shard_index]
    frequency = step.frequency_hz[shard_index]
    grad_payload = np.array([network.params for network in networks],
                            dtype=np.int64) * GRAD_BYTES
    private = np.array([algorithm.is_private for algorithm in algorithms],
                       dtype=bool)
    norm_payload = np.where(private, global_batch * GRAD_BYTES, 0)
    dpsgd = np.array([algorithm is Algorithm.DP_SGD
                      for algorithm in algorithms], dtype=bool)
    overlappable = np.where(
        dpsgd, step.cycles_of(Phase.BWD_GRAD_CLIP)[shard_index],
        step.cycles_of(Phase.BWD_BATCH_GRAD)[shard_index])

    # 3D points: the pipeline schedule replaces the replica's cycles,
    # gradient payload and overlap window, and adds the TP allgathers
    # and stage-boundary transfers.
    tp_payload = np.zeros(length, dtype=np.int64)
    tp_colls = np.zeros(length, dtype=np.int64)
    boundary = np.zeros(length, dtype=np.int64)
    cuts = np.zeros(length, dtype=np.int64)
    micro = np.ones(length, dtype=np.int64)
    bubble = np.zeros(length, dtype=np.int64)
    schedules: "list[PipelineSchedule | None]" = [None] * length
    if (mp > 1).any():
        from repro.training.parallel import build_pipeline_schedule

        built: dict[tuple, PipelineSchedule] = {}
        for i in np.flatnonzero(mp > 1).tolist():
            u = int(shard_index[i])
            micro_i = None if microbatches is None else microbatches[i]
            sched_key = (u, int(pp[i]), micro_i)
            sched = built.get(sched_key)
            if sched is None:
                _, network, algorithm, batch, shards = specs[u]
                ops = step.ops[u]
                sched = built[sched_key] = build_pipeline_schedule(
                    network, algorithm, ops.step, ops.gemm.cycles,
                    {p: int(step.phase_cycles[u, _PHASE_INDEX[p]])
                     for p in PHASE_ORDER},
                    batch, ParallelPlan(dp=int(dp[i]), pp=int(pp[i]),
                                        tp=shards, microbatches=micro_i))
            schedules[i] = sched
            shard_cycles[i] = sched.pipeline_cycles
            bubble[i] = sched.bubble_cycles
            overlappable[i] = sched.overlappable_cycles
            grad_payload[i] = sched.dp_payload_bytes
            tp_payload[i] = sched.tp_payload_bytes
            tp_colls[i] = sched.tp_collectives
            boundary[i] = sched.boundary_micro_bytes
            cuts[i] = sched.cuts
            micro[i] = sched.microbatches

    comm_cycles, comm_total_cycles, wire = step_comm_cycles(
        grad_payload, norm_payload, dp, topology, bucket, chips_per_node,
        links, overlappable, frequency, overlap, tp=tp, pp=pp,
        tp_payload=tp_payload, tp_collectives=tp_colls, boundary=boundary,
        cuts=cuts, microbatches=micro)
    return ShardedStepBatch(
        n_chips=dp * mp,
        global_batch=global_batch,
        frequency_hz=frequency,
        shard_cycles=shard_cycles,
        comm_cycles=comm_cycles,
        comm_total_cycles=comm_total_cycles,
        link_bytes=wire,
        dp=dp,
        bubble_cycles=bubble,
    ), step, schedules

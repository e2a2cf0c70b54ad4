"""GEMM engine abstraction: tiling, cycle accounting, utilization.

Every engine (WS systolic, OS systolic, DiVa outer-product) maps a GEMM
onto a fixed ``height x width`` array of processing engines (PEs) by
tiling two of the three GEMM dimensions onto the physical array, then
accumulates per-tile cycle counts from dataflow-specific formulas
(Figure 3 of the paper).  The resulting :class:`GemmStats` carries
everything downstream consumers need: compute cycles, MAC counts
(→ FLOPS utilization, Figures 7/15) and SRAM traffic (→ energy model).

One closed form prices every GEMM: :func:`gemm_stats_batch` evaluates
it over arrays of ``(m, k, n, count)``.  A tile grid has at most four
distinct tile shapes (full x full, full x remainder, remainder x full,
remainder x remainder), so cycles and traffic reduce to ``(G, 4)``
integer arithmetic plus a fixed set of adjacent-tile pair classes, and
spatial packing (:meth:`GemmEngine.rounds`) is one more column.  The
engine's parameters are columns too (:class:`ArrayColumns`): one call
prices rows on many geometries of one engine class, each row on its
own.  :meth:`GemmEngine.gemm_stats` is its length-1 adapter, memoized
per ``(engine-config, gemm-dims)`` in an explicit bounded LRU shared by
all engine instances.

The **reference path** (:meth:`GemmEngine.gemm_stats_reference`)
materializes every tile and loops over it in Python.  It is the oracle
the closed form is tested against.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass

from typing import Any, NamedTuple, Sequence, TypeVar

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.workloads.gemms import Gemm


def chunk_sizes(total: int, size: int) -> list[int]:
    """Split ``total`` into chunks of at most ``size`` (last may be short)."""
    if total <= 0 or size <= 0:
        raise ValueError(f"chunk_sizes requires positive args, got {total}, {size}")
    full, rem = divmod(total, size)
    return [size] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class ArrayConfig:
    """Physical parameters of a 2D PE array (Table II defaults).

    Attributes
    ----------
    height, width:
        PE array dimensions (PE_H, PE_W); 128x128 like Google TPUv3.
    frequency_hz:
        Operating frequency (940 MHz, Table II).
    fill_rows_per_cycle:
        RHS-matrix rows latched per clock during WS weight fill
        (8 rows/clock, Table I).
    drain_rows_per_cycle:
        Output rows drained per clock from an output-stationary array
        (R = 8, Section IV-C).
    input_bytes / acc_bytes:
        Operand (BF16) and accumulator (FP32) widths (Table I footnote).
    weight_double_buffer:
        WS arrays overlap the next tile's weight fill with the current
        stream (TPU weight-prefetch patents cited in Section V).
    accum_double_buffer:
        OS/outer-product arrays overlap output drain with the next
        tile's accumulation.
    tile_startup_cycles:
        Fixed per-tile control overhead (address generation, issue).
    gemm_startup_cycles:
        Fixed per-GEMM overhead (descriptor decode, DMA kick-off).
    """

    height: int = 128
    width: int = 128
    frequency_hz: float = 940e6
    fill_rows_per_cycle: int = 8
    drain_rows_per_cycle: int = 8
    input_bytes: int = 2
    acc_bytes: int = 4
    weight_double_buffer: bool = True
    accum_double_buffer: bool = True
    tile_startup_cycles: int = 2
    gemm_startup_cycles: int = 16

    def __post_init__(self) -> None:
        for name in ("height", "width", "fill_rows_per_cycle",
                     "drain_rows_per_cycle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def peak_macs_per_cycle(self) -> int:
        """Maximum MACs the array can retire per clock."""
        return self.height * self.width

    @property
    def peak_flops(self) -> float:
        """Peak FLOP/s (2 FLOPs per MAC)."""
        return 2.0 * self.peak_macs_per_cycle * self.frequency_hz


_Columns = TypeVar("_Columns", bound="tuple[Any, ...]")


def unit_columns(cls: "type[_Columns]",
                 units: "Sequence[tuple[Any, ...]]") -> _Columns:
    """``cls`` (a NamedTuple of parameters) over several units' values.

    ``units`` holds one parameter tuple per unit (an engine, an
    accelerator).  A field every unit shares stays that scalar, so a
    uniform parameter costs no per-row work; any other field becomes an
    array with one entry per unit, for :func:`take_rows` to gather.
    """
    fields: list[Any] = []
    for values in zip(*units):
        first = values[0]
        fields.append(first if values.count(first) == len(values)
                      else np.array(values))
    return cls(*fields)


def take_rows(columns: _Columns, index: Any) -> _Columns:
    """``columns`` at ``index`` (unit indices, one per row): array fields
    are gathered, scalar fields apply to every row as they are."""
    return type(columns)(*(value[index] if isinstance(value, np.ndarray)
                           else value for value in columns))


class ArrayColumns(NamedTuple):
    """The engine parameters the closed form reads, as scalars or columns.

    The fields are :class:`ArrayConfig`'s cycle and traffic parameters
    plus the engine's :attr:`~GemmEngine.bus_segments`.
    :attr:`GemmEngine.columns` is one engine's all-scalar form;
    :func:`engine_columns` stacks several engines of one class, and
    :func:`take_rows` gives each GEMM row its engine's entries.  The
    formulas (:func:`gemm_stats_batch`, :meth:`GemmEngine.rounds`, the
    ``tile_*_batch`` hooks) broadcast over either form.
    """

    height: Any
    width: Any
    fill_rows_per_cycle: Any
    drain_rows_per_cycle: Any
    input_bytes: Any
    acc_bytes: Any
    weight_double_buffer: Any
    accum_double_buffer: Any
    tile_startup_cycles: Any
    gemm_startup_cycles: Any
    bus_segments: Any


def engine_columns(engines: "Sequence[GemmEngine]") -> ArrayColumns:
    """The parameters of ``engines`` (one engine class), one entry per
    engine: rows of it price GEMMs each on its own engine."""
    return unit_columns(ArrayColumns, [engine.columns for engine in engines])


@dataclass(frozen=True)
class GemmStats:
    """Execution statistics of one (possibly batched) GEMM on an engine.

    All figures cover every one of ``gemm.count`` independent GEMMs.
    """

    gemm: Gemm
    engine: str
    compute_cycles: int
    macs: int
    peak_macs_per_cycle: int
    tiles: int
    sram_read_bytes: int
    sram_write_bytes: int

    @property
    def utilization(self) -> float:
        """Effective FLOPS utilization, as plotted in Figures 7 and 15."""
        if self.compute_cycles == 0:
            return 0.0
        return self.macs / (self.compute_cycles * self.peak_macs_per_cycle)

    def __add__(self, other: "GemmStats") -> "GemmStats":
        if self.peak_macs_per_cycle != other.peak_macs_per_cycle:
            raise ValueError("cannot merge stats from different arrays")
        return GemmStats(
            gemm=self.gemm,
            engine=self.engine,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            macs=self.macs + other.macs,
            peak_macs_per_cycle=self.peak_macs_per_cycle,
            tiles=self.tiles + other.tiles,
            sram_read_bytes=self.sram_read_bytes + other.sram_read_bytes,
            sram_write_bytes=self.sram_write_bytes + other.sram_write_bytes,
        )


@dataclass(frozen=True)
class GemmStatsBatch:
    """Struct-of-arrays counterpart of :class:`~repro.arch.engine.GemmStats`.

    Every array has one entry per input GEMM; figures cover all
    ``count`` instances of each GEMM (matching the scalar stats).
    ``peak_macs_per_cycle`` is an array too when the GEMMs ran on
    engines of several geometries.
    """

    engine: str
    peak_macs_per_cycle: "int | NDArray[Any]"
    m: NDArray[Any]
    k: NDArray[Any]
    n: NDArray[Any]
    count: NDArray[Any]
    compute_cycles: NDArray[Any]
    macs: NDArray[Any]
    tiles: NDArray[Any]
    sram_read_bytes: NDArray[Any]
    sram_write_bytes: NDArray[Any]

    def __len__(self) -> int:
        return self.m.shape[0]

    @property
    def utilization(self) -> NDArray[Any]:
        """Effective FLOPS utilization per GEMM (0.0 where idle)."""
        denom = self.compute_cycles * self.peak_macs_per_cycle
        return np.divide(self.macs, denom, where=denom != 0,
                         out=np.zeros(len(self), dtype=float))


@dataclass(frozen=True)
class TileShape:
    """One tile of a GEMM mapped onto the array."""

    m: int
    k: int
    n: int


#: Upper bound on memoized :class:`GemmStats` entries (LRU eviction).
GEMM_STATS_CACHE_MAXSIZE = 4096

#: Shared bounded LRU keyed by ``(engine key, m, k, n, count)``.  Shared
#: across engine instances so freshly built accelerators (the experiment
#: harness rebuilds them liberally) reuse previously computed stats.
_GEMM_STATS_CACHE: "OrderedDict[tuple, GemmStats]" = OrderedDict()


def clear_gemm_stats_cache() -> None:
    """Drop every memoized :class:`GemmStats` (mainly for benchmarks)."""
    _GEMM_STATS_CACHE.clear()


class GemmEngine(abc.ABC):
    """Abstract GEMM engine with dataflow-specific tiling and cycles."""

    #: Human-readable engine name used in reports ("WS", "OS", "DiVa").
    name: str = "abstract"
    #: Dataflow family: "weight_stationary" or "output_stationary".
    dataflow: str = "abstract"
    #: Which GEMM dims :meth:`tiles` chunks onto the PE grid, as
    #: ``(rows_axis, cols_axis)`` names in {"m", "k", "n"} — rows chunk
    #: by ``height``, columns by ``width``.  Every engine declares it:
    #: :func:`gemm_stats_batch` prices all GEMMs from it.
    grid_axes: tuple[str, str]
    #: Independent broadcast-bus sectors; up to this many instances of a
    #: batched GEMM whose footprint fits side by side run concurrently
    #: (see :meth:`rounds`).  1 means no spatial packing.
    bus_segments: int = 1

    def __init__(self, config: ArrayConfig | None = None) -> None:
        if getattr(self, "grid_axes", None) is None:
            raise TypeError(f"{type(self).__name__} must declare grid_axes")
        self.config = config or ArrayConfig()

    # -- dataflow-specific hooks -------------------------------------------
    @abc.abstractmethod
    def tiles(self, gemm: Gemm) -> list[TileShape]:
        """Decompose a single GEMM (count ignored) into array tiles."""

    @abc.abstractmethod
    def tile_cycle_phases(self, tile: TileShape) -> tuple[int, int]:
        """Return ``(setup_or_drain_cycles, main_cycles)`` for one tile.

        For WS the first element is the weight-fill time; for OS and
        outer-product it is the output-drain time.  The two phases can
        overlap across consecutive tiles when the corresponding
        double-buffer option is enabled.
        """

    @abc.abstractmethod
    def tile_sram_traffic(self, tile: TileShape) -> tuple[int, int]:
        """Return ``(read_bytes, write_bytes)`` of SRAM traffic per tile."""

    @abc.abstractmethod
    def tile_phases_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Vectorized :meth:`tile_cycle_phases` over tile-dim arrays,
        with the parameters ``cfg`` (scalars, or columns that broadcast
        against the tile dims)."""

    @abc.abstractmethod
    def tile_traffic_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
        cfg: ArrayColumns,
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Vectorized :meth:`tile_sram_traffic` over tile-dim arrays,
        with the parameters ``cfg``."""

    # -- shared machinery ----------------------------------------------------
    @property
    def columns(self) -> ArrayColumns:
        """This engine's parameters as the closed form reads them."""
        cfg = self.config
        return ArrayColumns(
            cfg.height, cfg.width, cfg.fill_rows_per_cycle,
            cfg.drain_rows_per_cycle, cfg.input_bytes, cfg.acc_bytes,
            cfg.weight_double_buffer, cfg.accum_double_buffer,
            cfg.tile_startup_cycles, cfg.gemm_startup_cycles,
            self.bus_segments)

    def _overlapped(self, cfg: "ArrayConfig | ArrayColumns | None" = None
                    ) -> Any:
        cfg = self.config if cfg is None else cfg
        if self.dataflow == "weight_stationary":
            return cfg.weight_double_buffer
        return cfg.accum_double_buffer

    def rounds(self, m: NDArray[Any], n: NDArray[Any],
               count: NDArray[Any], columns: ArrayColumns | None = None,
               unit: NDArray[Any] | None = None) -> NDArray[Any]:
        """Sequential rounds that run ``count`` instances of ``m x n``.

        ``(H // m) * (W // n)`` instances fit side by side on the array;
        ``pack``, that fit capped by ``bus_segments`` and ``count`` (and
        at least 1), run concurrently, so the batch takes
        ``ceil(count / pack)`` rounds of one-instance latency.  With one
        bus segment this is ``count``.  ``columns`` gives each row its
        own engine's parameters: one entry per row, or, with ``unit``,
        one per engine (:func:`engine_columns`) and ``unit`` each row's
        engine.
        """
        cfg = self.columns if columns is None else columns
        if np.all(cfg.bus_segments == 1):
            return count
        if unit is not None:
            cfg = take_rows(cfg, unit)
        fit = (cfg.height // m) * (cfg.width // n)
        pack = np.maximum(1, np.minimum(np.minimum(fit, cfg.bus_segments),
                                        count))
        return -(-count // pack)

    def single_gemm_cycles_reference(self, gemm: Gemm) -> tuple[int, int]:
        """Per-tile-loop cycles and tile count of one GEMM instance.

        In the overlapped regime each tile's fill/drain phase is paired
        with the *neighbouring* tile's main phase; exactly one boundary
        instance of each phase kind is exposed.
        """
        phases = [self.tile_cycle_phases(t) for t in self.tiles(gemm)]
        fixed = (self.config.gemm_startup_cycles
                 + len(phases) * self.config.tile_startup_cycles)
        if not self._overlapped():
            return fixed + sum(o + m for o, m in phases), len(phases)
        if self.dataflow == "weight_stationary":
            cycles = phases[0][0] + phases[-1][1] + sum(
                max(phases[i][1], phases[i + 1][0])
                for i in range(len(phases) - 1))
        else:
            cycles = phases[0][1] + phases[-1][0] + sum(
                max(phases[i][0], phases[i + 1][1])
                for i in range(len(phases) - 1))
        return fixed + cycles, len(phases)

    def _cache_key(self) -> tuple[object, ...]:
        """Hashable identity of this engine's cycle model."""
        return (type(self).__qualname__, self.config, self.bus_segments)

    def gemm_stats(self, gemm: Gemm) -> GemmStats:
        """Execute ``gemm`` (all ``count`` instances): one row of
        :func:`gemm_stats_batch`.

        Memoized in a bounded shared LRU; stats depend only on the GEMM
        dimensions, so entries are keyed by ``(m, k, n, count)`` and
        re-tagged with the caller's ``gemm`` (kind/layer) on a hit.
        """
        key = (self._cache_key(), gemm.m, gemm.k, gemm.n, gemm.count)
        cached = _GEMM_STATS_CACHE.get(key)
        if cached is not None:
            _GEMM_STATS_CACHE.move_to_end(key)
            if cached.gemm == gemm:
                return cached
            # Built field by field: ``dataclasses.replace`` re-reads the
            # field list on every hit.
            return GemmStats(
                gemm=gemm,
                engine=cached.engine,
                compute_cycles=cached.compute_cycles,
                macs=cached.macs,
                peak_macs_per_cycle=cached.peak_macs_per_cycle,
                tiles=cached.tiles,
                sram_read_bytes=cached.sram_read_bytes,
                sram_write_bytes=cached.sram_write_bytes,
            )
        row = gemm_stats_batch(self, gemm.m, gemm.k, gemm.n, gemm.count)
        stats = GemmStats(
            gemm=gemm,
            engine=self.name,
            compute_cycles=int(row.compute_cycles[0]),
            macs=gemm.macs,
            peak_macs_per_cycle=row.peak_macs_per_cycle,
            tiles=int(row.tiles[0]),
            sram_read_bytes=int(row.sram_read_bytes[0]),
            sram_write_bytes=int(row.sram_write_bytes[0]),
        )
        _GEMM_STATS_CACHE[key] = stats
        if len(_GEMM_STATS_CACHE) > GEMM_STATS_CACHE_MAXSIZE:
            _GEMM_STATS_CACHE.popitem(last=False)
        return stats

    def gemm_stats_reference(self, gemm: Gemm) -> GemmStats:
        """Per-tile-loop oracle for :meth:`gemm_stats` (never cached)."""
        cycles, tiles = self.single_gemm_cycles_reference(gemm)
        reads = writes = 0
        for tile in self.tiles(gemm):
            r, w = self.tile_sram_traffic(tile)
            reads += r
            writes += w
        return GemmStats(
            gemm=gemm,
            engine=self.name,
            compute_cycles=cycles * gemm.count,
            macs=gemm.macs,
            peak_macs_per_cycle=self.config.peak_macs_per_cycle,
            tiles=tiles * gemm.count,
            sram_read_bytes=reads * gemm.count,
            sram_write_bytes=writes * gemm.count,
        )

    def utilization(self, gemm: Gemm) -> float:
        """FLOPS utilization for ``gemm`` on this engine."""
        return self.gemm_stats(gemm).utilization

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = self.config
        return f"{type(self).__name__}({cfg.height}x{cfg.width}@{cfg.frequency_hz/1e6:.0f}MHz)"


def _class_cycles_overlapped(engine: GemmEngine, overlap: NDArray[Any],
                             main: NDArray[Any], fo: NDArray[Any],
                             ro: NDArray[Any], fi: NDArray[Any],
                             ri: NDArray[Any]) -> NDArray[Any]:
    """Overlapped-pipeline cycle sum over the tile-pair classes.

    Tile classes are indexed ``outer_kind * 2 + inner_kind`` with kind
    0 = full-size and kind 1 = remainder; absent classes carry count 0.
    The pair classes enumerate every consecutive tile pair of the
    row-major tile order (:meth:`GemmEngine.tiles`): within-row
    neighbours plus the last-column -> first-column boundary between
    consecutive rows, ``tiles - 1`` pairs in all.
    """
    has_fo, has_ro = fo > 0, ro > 0
    has_fi, has_ri = fi > 0, ri > 0
    one = np.int64(1)
    zero = np.int64(0)
    rows = {0: fo, 1: has_ro.astype(np.int64)}
    gemms = np.arange(len(fo))

    first_i = np.where(has_fi, 0, 1)
    last_i = np.where(has_ri, 1, 0)
    first_o = np.where(has_fo, 0, 1)
    last_o = np.where(has_ro, 1, 0)

    # Within-row neighbours keep one outer kind ``o``, so their classes
    # are fixed columns: (src column, dst column, multiplicity), with
    # full->full pairs and the full->remainder boundary once per row.
    fixed = [(2 * o, 2 * o + to_rem,
              rows[o] * (np.where(has_ri & has_fi, one, zero) if to_rem
                         else np.maximum(fi - 1, 0)))
             for o in (0, 1) for to_rem in (0, 1)]
    # Row-to-row: last column of one row -> first column of the next
    # (per-GEMM class arrays).
    varying = [(last_i, first_i, np.maximum(fo - 1, 0)),
               (last_i, 2 + first_i, np.where(has_ro & has_fo, one, zero))]

    c_first = first_o * 2 + first_i
    c_last = last_o * 2 + last_i
    if engine.dataflow == "weight_stationary":
        # Fill precedes the stream: tile i+1's fill hides behind tile
        # i's stream; the first fill is exposed.
        before, after = main, overlap
        boundary = overlap[gemms, c_first] + main[gemms, c_last]
    else:
        # Drain follows the main phase: tile i's drain hides behind
        # tile i+1's main phase; the last drain is exposed.
        before, after = overlap, main
        boundary = main[gemms, c_first] + overlap[gemms, c_last]
    terms = [mult * np.maximum(before[:, src], after[:, dst])
             for src, dst, mult in fixed]
    terms += [mult * np.maximum(before[gemms, src], after[gemms, dst])
              for src, dst, mult in varying]
    total = boundary
    for term in terms:
        total = total + term
    return total


def gemm_stats_batch(engine: GemmEngine, m: "ArrayLike", k: "ArrayLike",
                     n: "ArrayLike", count: "ArrayLike" = 1,
                     columns: ArrayColumns | None = None,
                     ) -> GemmStatsBatch:
    """Evaluate the closed-form cycle model over arrays of GEMM dims.

    ``m``, ``k``, ``n`` and ``count`` broadcast against each other;
    every entry must be positive (the same contract as
    :class:`~repro.workloads.gemms.Gemm`).  This is the only GEMM
    pricer: :meth:`GemmEngine.gemm_stats` is its cached length-1
    adapter.  Compute cycles are one instance's cycles times
    :meth:`GemmEngine.rounds`; tiles and SRAM traffic scale with
    ``count``.

    ``columns`` prices each row on its own geometry: the rows of
    :func:`engine_columns` over engines of ``engine``'s class (one
    entry per GEMM, or scalars).  Without it every row runs on
    ``engine``.  Either way the dataflow and tiling axes are the
    class's, so one call prices a whole design-space grid of one
    engine class.
    """
    m = np.asarray(m, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    count = np.asarray(count, dtype=np.int64)
    m, k, n, count = (np.atleast_1d(a) for a in
                      np.broadcast_arrays(m, k, n, count))
    if m.size and (m.min() <= 0 or k.min() <= 0 or n.min() <= 0
                   or count.min() <= 0):
        raise ValueError("GEMM dims and count must be positive")
    m, k, n, count = (np.ascontiguousarray(a) for a in (m, k, n, count))

    axes = engine.grid_axes
    cfg = engine.columns if columns is None else columns
    dims = {"m": m, "k": k, "n": n}
    outer_total = dims[axes[0]]
    inner_total = dims[axes[1]]
    fo, ro = np.divmod(outer_total, np.int64(cfg.height))
    fi, ri = np.divmod(inner_total, np.int64(cfg.width))
    # Per-row parameters broadcast against the (G, 4) tile classes.
    tile_cfg = take_rows(cfg, np.s_[:, None])

    # Tile-shape classes, indexed outer_kind * 2 + inner_kind with
    # kind 0 = full chunk, kind 1 = remainder; absent classes carry
    # multiplicity zero and never contribute.
    height = np.full_like(outer_total, cfg.height)
    width = np.full_like(inner_total, cfg.width)
    outer_sizes = np.stack([height, height, ro, ro], axis=1)
    inner_sizes = np.stack([width, ri, width, ri], axis=1)
    has_ro = (ro > 0).astype(np.int64)
    has_ri = (ri > 0).astype(np.int64)
    counts = np.stack([fo * fi, fo * has_ri, has_ro * fi,
                       has_ro * has_ri], axis=1)

    def tile_dim(axis: str) -> NDArray[Any]:
        if axis == axes[0]:
            return outer_sizes
        if axis == axes[1]:
            return inner_sizes
        return np.broadcast_to(dims[axis][:, None], outer_sizes.shape)

    tm, tk, tn = tile_dim("m"), tile_dim("k"), tile_dim("n")
    overlap, main = engine.tile_phases_batch(tm, tk, tn, tile_cfg)
    reads, writes = engine.tile_traffic_batch(tm, tk, tn, tile_cfg)

    tiles = counts.sum(axis=1)
    read_bytes = (counts * reads).sum(axis=1)
    write_bytes = (counts * writes).sum(axis=1)
    fixed = (np.int64(cfg.gemm_startup_cycles)
             + tiles * np.int64(cfg.tile_startup_cycles))
    # A column of double-buffer flags prices both regimes and picks.
    overlapped = engine._overlapped(cfg)
    if np.any(overlapped):
        cycles = _class_cycles_overlapped(engine, overlap, main, fo, ro,
                                          fi, ri)
        if not np.all(overlapped):
            cycles = np.where(overlapped, cycles,
                              (counts * (overlap + main)).sum(axis=1))
    else:
        cycles = (counts * (overlap + main)).sum(axis=1)
    cycles = fixed + cycles

    return GemmStatsBatch(
        engine=engine.name,
        peak_macs_per_cycle=cfg.height * cfg.width,
        m=m, k=k, n=n, count=count,
        compute_cycles=cycles * engine.rounds(m, n, count, cfg),
        macs=m * k * n * count,
        tiles=tiles * count,
        sram_read_bytes=read_bytes * count,
        sram_write_bytes=write_bytes * count,
    )

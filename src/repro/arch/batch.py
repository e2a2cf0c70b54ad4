"""Batched (struct-of-arrays) closed-form GEMM cycle evaluation.

:func:`gemm_stats_batch` evaluates the analytic cycle model of
:meth:`repro.arch.engine.GemmEngine.gemm_stats` over *arrays* of GEMM
dimensions in a handful of NumPy broadcast passes — no per-GEMM Python
round trip.  It is element-wise identical (integer-exact) to the scalar
path: the scalar closed form prices at most four distinct tile-shape
classes per GEMM plus a small enumeration of adjacent-tile pair
classes, and every one of those quantities is a pure elementwise
function of ``(m, k, n)`` and the array geometry, so a grid of ``G``
GEMMs reduces to ``(G, 4)``-shaped integer arithmetic.

The batched path piggybacks on the engines' existing vectorized hooks
(``tile_phases_batch`` / ``tile_traffic_batch``) and a new declarative
hook, :attr:`~repro.arch.engine.GemmEngine.grid_axes`, naming which two
GEMM dimensions tile onto the PE grid (rows chunk by ``height``,
columns by ``width``).  Engines without ``grid_axes`` (no closed form)
fall back to a scalar loop, so the function is total.

This module is the foundation of the batched sweep/serving hot paths:
:mod:`repro.training.batch` builds whole-training-step evaluation on
top of it, and the ``scaling`` / ``design-space`` experiments and the
fleet simulator's service-time table route their grids through that.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any, Iterable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.arch.engine import GemmEngine
from repro.arch.interconnect import (
    DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    DEFAULT_LINK_LATENCY_S,
    TOPOLOGIES,
)
from repro.workloads.gemms import Gemm

#: Integer codes the vectorized collective model uses for topologies.
TOPOLOGY_CODES = {name: code for code, name in enumerate(TOPOLOGIES)}


@dataclass(frozen=True)
class GemmStatsBatch:
    """Struct-of-arrays counterpart of :class:`~repro.arch.engine.GemmStats`.

    Every array has one entry per input GEMM; figures cover all
    ``count`` instances of each GEMM (matching the scalar stats).
    """

    engine: str
    peak_macs_per_cycle: int
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


def _class_cycles_overlapped(engine: GemmEngine, overlap: NDArray[Any],
                             main: NDArray[Any], fo: NDArray[Any],
                             ro: NDArray[Any], fi: NDArray[Any],
                             ri: NDArray[Any]) -> NDArray[Any]:
    """Overlapped-pipeline cycle sum over the tile-pair classes.

    Vectorization of :func:`repro.arch.engine._grid_pair_classes` plus
    the pair-term sum of ``GemmEngine._closed_form``: tile classes are
    indexed ``outer_kind * 2 + inner_kind`` with kind 0 = full-size and
    kind 1 = remainder, and absent classes simply carry count 0.
    """
    has_fo, has_ro = fo > 0, ro > 0
    has_fi, has_ri = fi > 0, ri > 0
    one = np.int64(1)
    zero = np.int64(0)
    rows = {0: fo, 1: has_ro.astype(np.int64)}

    first_i = np.where(has_fi, 0, 1)
    last_i = np.where(has_ri, 1, 0)
    first_o = np.where(has_fo, 0, 1)
    last_o = np.where(has_ro, 1, 0)

    def take(arr: NDArray[Any], idx: NDArray[Any]) -> NDArray[Any]:
        return np.take_along_axis(arr, idx[:, None], axis=1)[:, 0]

    # (src class, dst class, multiplicity) triples, all (G,) arrays.
    pairs: list[tuple[NDArray[Any], NDArray[Any], NDArray[Any]]] = []
    for o in (0, 1):
        base = np.full_like(fo, o * 2)
        # Within-row full->full neighbours.
        pairs.append((base, base, rows[o] * np.maximum(fi - 1, 0)))
        # Within-row full->remainder boundary, once per row.
        pairs.append((base, base + 1,
                      rows[o] * np.where(has_ri & has_fi, one, zero)))
    # Row-to-row: last column of one row -> first column of the next.
    pairs.append((last_i, first_i, np.maximum(fo - 1, 0)))
    pairs.append((last_i, 2 + first_i,
                  np.where(has_ro & has_fo, one, zero)))

    c_first = first_o * 2 + first_i
    c_last = last_o * 2 + last_i
    if engine.dataflow == "weight_stationary":
        boundary = take(overlap, c_first) + take(main, c_last)
        terms = [mult * np.maximum(take(main, src), take(overlap, dst))
                 for src, dst, mult in pairs]
    else:
        boundary = take(main, c_first) + take(overlap, c_last)
        terms = [mult * np.maximum(take(overlap, src), take(main, dst))
                 for src, dst, mult in pairs]
    total = boundary
    for term in terms:
        total = total + term
    return total


def _scalar_fallback(engine: GemmEngine, m: NDArray[Any], k: NDArray[Any],
                     n: NDArray[Any], count: NDArray[Any]) -> GemmStatsBatch:
    """Per-GEMM loop for engines without a declarative tile grid."""
    fields = {"compute_cycles": [], "macs": [], "tiles": [],
              "sram_read_bytes": [], "sram_write_bytes": []}
    for mi, ki, ni, ci in zip(m, k, n, count):
        stats = engine.gemm_stats(Gemm(int(mi), int(ki), int(ni), int(ci)))
        for name, values in fields.items():
            values.append(getattr(stats, name))
    return GemmStatsBatch(
        engine=engine.name,
        peak_macs_per_cycle=engine.config.peak_macs_per_cycle,
        m=m, k=k, n=n, count=count,
        **{name: np.asarray(values, dtype=np.int64)
           for name, values in fields.items()},
    )


def gemm_stats_batch(engine: GemmEngine, m: "ArrayLike", k: "ArrayLike",
                     n: "ArrayLike", count: "ArrayLike" = 1
                     ) -> GemmStatsBatch:
    """Evaluate the closed-form cycle model over arrays of GEMM dims.

    ``m``, ``k``, ``n`` and ``count`` broadcast against each other;
    every entry must be positive (the same contract as
    :class:`~repro.workloads.gemms.Gemm`).  The result is element-wise
    identical to calling ``engine.gemm_stats(Gemm(m, k, n, count))``
    per entry, without the per-GEMM Python round trip (and without
    touching the scalar LRU).
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
    if axes is None:
        return _scalar_fallback(engine, m, k, n, count)

    cfg = engine.config
    dims = {"m": m, "k": k, "n": n}
    outer_total = dims[axes[0]]
    inner_total = dims[axes[1]]
    fo, ro = np.divmod(outer_total, np.int64(cfg.height))
    fi, ri = np.divmod(inner_total, np.int64(cfg.width))

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
    overlap, main = engine.tile_phases_batch(tm, tk, tn)
    reads, writes = engine.tile_traffic_batch(tm, tk, tn)

    tiles = counts.sum(axis=1)
    read_bytes = (counts * reads).sum(axis=1)
    write_bytes = (counts * writes).sum(axis=1)
    fixed = (np.int64(cfg.gemm_startup_cycles)
             + tiles * np.int64(cfg.tile_startup_cycles))
    if engine._overlapped():
        cycles = fixed + _class_cycles_overlapped(
            engine, overlap, main, fo, ro, fi, ri)
    else:
        cycles = fixed + (counts * (overlap + main)).sum(axis=1)

    return GemmStatsBatch(
        engine=engine.name,
        peak_macs_per_cycle=cfg.peak_macs_per_cycle,
        m=m, k=k, n=n, count=count,
        compute_cycles=cycles * count,
        macs=m * k * n * count,
        tiles=tiles * count,
        sram_read_bytes=read_bytes * count,
        sram_write_bytes=write_bytes * count,
    )


def unique_rows(*columns: NDArray[Any]
                ) -> tuple[NDArray[Any], NDArray[Any]]:
    """``np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)``
    through one packed int64 key per row.

    Each column is ranked by its own 1-D ``np.unique``; the ranks pack
    mixed-radix into a key whose order is the rows' lexicographic
    order, so a 1-D ``np.unique`` over the keys yields the same unique
    rows, in the same order, with the same inverse — without the
    structured-dtype sort that ``axis=0`` runs, which costs over an
    order of magnitude more.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for column in columns:
        values, rank = np.unique(column, return_inverse=True)
        if radix * len(values) > np.iinfo(np.int64).max:
            # Re-rank the key so far (order-preserving, < len(key)).
            _, key = np.unique(key, return_inverse=True)
            radix = len(key)
        key = key * len(values) + rank
        radix *= len(values)
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    return np.stack([column[first] for column in columns], axis=1), inverse


# -- vectorized collective cost model ---------------------------------------
#
# Array mirrors of :class:`repro.arch.interconnect.Interconnect`, one
# entry per (payload, cluster) configuration.  Every floating-point
# expression repeats the scalar model's operation order exactly, so the
# batched sharded-step evaluator stays bitwise-identical to the serial
# one.  ``topology`` is a :data:`TOPOLOGY_CODES` integer array and
# ``bucket_bytes`` uses 0 as the "monolithic" (None) sentinel.

def topology_codes(names: Iterable[str]) -> NDArray[Any]:
    """Map topology-name sequences onto :data:`TOPOLOGY_CODES` ints."""
    try:
        return np.array([TOPOLOGY_CODES[name] for name in names],
                        dtype=np.int64)
    except KeyError as error:
        raise ValueError(
            f"unknown topology {error.args[0]!r}; "
            f"choose from {TOPOLOGIES}") from None


def _bucket_shape_batch(
    payload_bytes: NDArray[Any], bucket_bytes: NDArray[Any],
) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """``(full, size, remainder)`` arrays of the DDP bucket split."""
    mono = (bucket_bytes <= 0) | (bucket_bytes >= payload_bytes)
    divisor = np.maximum(bucket_bytes, 1)
    full = np.where(mono, 1, payload_bytes // divisor)
    size = np.where(mono, payload_bytes, bucket_bytes)
    rem = np.where(mono, 0, payload_bytes % divisor)
    empty = payload_bytes <= 0
    return (np.where(empty, 0, full), np.where(empty, 0, size),
            np.where(empty, 0, rem))


def n_buckets_batch(payload_bytes: NDArray[Any], bucket_bytes: NDArray[Any]) -> NDArray[Any]:
    """Vectorized :meth:`Interconnect.n_buckets`."""
    full, _, rem = _bucket_shape_batch(payload_bytes, bucket_bytes)
    return full + (rem > 0)


def _one_allreduce_seconds_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    chips_per_node: NDArray[Any],
    bandwidth: "float | NDArray[Any]", latency: "float | NDArray[Any]",
    intra_bandwidth: "float | NDArray[Any] | None" = None,
    intra_latency: "float | NDArray[Any] | None" = None,
) -> NDArray[Any]:
    """Seconds of one unbucketed allreduce, per topology code.

    ``bandwidth`` / ``latency`` describe the cross-node link class;
    ``intra_bandwidth`` / ``intra_latency`` (defaulting to the same
    values — the uniform fabric) price the hierarchical topology's
    in-node stage, mirroring the scalar fabric resolution.
    """
    if intra_bandwidth is None:
        intra_bandwidth = bandwidth
    if intra_latency is None:
        intra_latency = latency
    n = n_chips
    ring = 2 * (n - 1) * (payload_bytes / (n * bandwidth) + latency)
    a2a = 2 * (payload_bytes / (n * bandwidth) + latency)
    m = chips_per_node
    # Guard k against degenerate (masked-out) entries so the eager
    # numpy arithmetic never divides by zero; valid entries have k >= 1.
    k = np.maximum(n // np.maximum(m, 1), 1)
    in_node = 2 * (payload_bytes / (m * intra_bandwidth) + intra_latency)
    cross = 2 * (k - 1) * (payload_bytes / ((m * k) * bandwidth) + latency)
    hier = (np.where(m > 1, in_node, 0.0)
            + np.where(k > 1, cross, 0.0))
    return np.select(
        [topology == TOPOLOGY_CODES["ring"],
         topology == TOPOLOGY_CODES["all_to_all"]],
        [ring, a2a], default=hier)


def allreduce_seconds_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    bucket_bytes: NDArray[Any], chips_per_node: NDArray[Any],
    bandwidth: "float | NDArray[Any]" = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    latency: "float | NDArray[Any]" = DEFAULT_LINK_LATENCY_S,
    intra_bandwidth: "float | NDArray[Any] | None" = None,
    intra_latency: "float | NDArray[Any] | None" = None,
) -> NDArray[Any]:
    """Vectorized :meth:`Interconnect.allreduce_seconds` (total wire time)."""
    links = (bandwidth, latency, intra_bandwidth, intra_latency)
    full, size, rem = _bucket_shape_batch(payload_bytes, bucket_bytes)
    seconds = full * _one_allreduce_seconds_batch(
        size, n_chips, topology, chips_per_node, *links)
    rem_seconds = _one_allreduce_seconds_batch(
        rem, n_chips, topology, chips_per_node, *links)
    seconds = np.where(rem > 0, seconds + rem_seconds, seconds)
    return np.where((n_chips <= 1) | (payload_bytes <= 0), 0.0, seconds)


def first_bucket_seconds_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    bucket_bytes: NDArray[Any], chips_per_node: NDArray[Any],
    bandwidth: "float | NDArray[Any]" = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    latency: "float | NDArray[Any]" = DEFAULT_LINK_LATENCY_S,
    intra_bandwidth: "float | NDArray[Any] | None" = None,
    intra_latency: "float | NDArray[Any] | None" = None,
) -> NDArray[Any]:
    """Vectorized :meth:`Interconnect.first_bucket_seconds`."""
    _, size, _ = _bucket_shape_batch(payload_bytes, bucket_bytes)
    seconds = _one_allreduce_seconds_batch(
        size, n_chips, topology, chips_per_node, bandwidth, latency,
        intra_bandwidth, intra_latency)
    return np.where((n_chips <= 1) | (payload_bytes <= 0), 0.0, seconds)


def _one_link_bytes_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    chips_per_node: NDArray[Any],
) -> NDArray[Any]:
    """Per-chip wire bytes of one unbucketed allreduce."""
    n = n_chips
    flat = 2 * (n - 1) * np.ceil(payload_bytes / n).astype(np.int64)
    m = chips_per_node
    k = np.maximum(n // np.maximum(m, 1), 1)
    shard = np.ceil(payload_bytes / m).astype(np.int64)
    in_node = np.where(m > 1, 2 * (m - 1) * shard, 0)
    cross = np.where(
        k > 1, 2 * (k - 1) * np.ceil(shard / k).astype(np.int64), 0)
    return np.where(topology == TOPOLOGY_CODES["hierarchical"],
                    in_node + cross, flat)


def link_bytes_per_chip_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    bucket_bytes: NDArray[Any], chips_per_node: NDArray[Any],
) -> NDArray[Any]:
    """Vectorized :meth:`Interconnect.link_bytes_per_chip`."""
    full, size, rem = _bucket_shape_batch(payload_bytes, bucket_bytes)
    total = full * _one_link_bytes_batch(
        size, n_chips, topology, chips_per_node)
    total = total + np.where(
        rem > 0,
        _one_link_bytes_batch(rem, n_chips, topology, chips_per_node), 0)
    return np.where((n_chips <= 1) | (payload_bytes <= 0), 0, total)

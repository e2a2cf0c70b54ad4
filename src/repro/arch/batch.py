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

The collective cost forms (:func:`allreduce_seconds_batch`,
:func:`first_bucket_seconds_batch`, :func:`link_bytes_per_chip_batch`,
:func:`n_buckets_batch`, :func:`topology_codes`) are defined once in
:mod:`repro.arch.interconnect` and re-exported here.

This module is the foundation of the batched sweep/serving hot paths:
:mod:`repro.training.batch` builds whole-training-step evaluation on
top of it, and the ``scaling`` / ``design-space`` experiments and the
fleet simulator's service-time table route their grids through that.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.arch.engine import GemmEngine
from repro.arch.interconnect import (
    allreduce_seconds_batch as allreduce_seconds_batch,
    first_bucket_seconds_batch as first_bucket_seconds_batch,
    link_bytes_per_chip_batch as link_bytes_per_chip_batch,
    n_buckets_batch as n_buckets_batch,
    topology_codes as topology_codes,
)
from repro.workloads.gemms import Gemm


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

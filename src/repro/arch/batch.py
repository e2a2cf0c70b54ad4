"""Batched (struct-of-arrays) cost forms for the sweep and serving paths.

The GEMM closed form (:func:`gemm_stats_batch`, :class:`GemmStatsBatch`)
is defined once in :mod:`repro.arch.engine`, where
:meth:`~repro.arch.engine.GemmEngine.gemm_stats` is its cached length-1
adapter.  It evaluates arrays of GEMM dimensions in a handful of NumPy
broadcast passes from the engines' vectorized hooks
(``tile_phases_batch`` / ``tile_traffic_batch``) and their
:attr:`~repro.arch.engine.GemmEngine.grid_axes`, which names the two
GEMM dimensions that tile onto the PE grid (rows chunk by ``height``,
columns by ``width``).

The collective cost forms (:func:`allreduce_seconds_batch`,
:func:`first_bucket_seconds_batch`, :func:`link_bytes_per_chip_batch`,
:func:`n_buckets_batch`, :func:`topology_codes`) are defined once in
:mod:`repro.arch.interconnect`.  Both families are re-exported here.

This module is the foundation of the batched sweep/serving hot paths:
:mod:`repro.training.batch` builds whole-training-step evaluation on
top of it, and the ``scaling`` / ``design-space`` experiments and the
fleet simulator's service-time table route their grids through that.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.arch.engine import (
    GemmStatsBatch as GemmStatsBatch,
    gemm_stats_batch as gemm_stats_batch,
)
from repro.arch.interconnect import (
    allreduce_seconds_batch as allreduce_seconds_batch,
    first_bucket_seconds_batch as first_bucket_seconds_batch,
    link_bytes_per_chip_batch as link_bytes_per_chip_batch,
    n_buckets_batch as n_buckets_batch,
    topology_codes as topology_codes,
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

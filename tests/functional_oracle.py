"""Cycle-by-cycle functional array simulators: the register-level oracles.

Real data moves through register arrays one clock at a time, so the
tests can validate both the numerics and the cycle formulas of the
analytic engines in ``repro.arch`` / ``repro.core``:

* :func:`simulate_ws` / :func:`ws_stream_cycles` — a weight-stationary
  array (Figure 3(c)), pinned to ``WeightStationaryEngine``;
* :func:`simulate_os` / :func:`os_wavefront_cycles` — an
  output-stationary array (Figure 3(b)), pinned to
  ``OutputStationaryEngine``;
* :func:`simulate_outer_product` — DiVa's outer-product engine
  (Figure 9(b)) with the PPU's fused norm tap, pinned to
  ``OuterProductEngine``;
* :class:`PipelinedAdderTree` / :func:`simulate_adder_tree` — one PPU
  adder tree (Figure 11);
* :func:`to_bfloat16` / :func:`bf16_matmul` /
  :func:`bf16_relative_error` — the BF16-multiply, FP32-accumulate
  datapath (Table I);
* :func:`tiled_matmul` — the engines' tiling executed through the
  single-tile simulators.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.engine import chunk_sizes


# -------------------------------------------------------------------------
# Cycle-by-cycle functional simulation of a weight-stationary array
#
# Real data moves through register arrays one clock at a time, exactly as
# in Figure 3(c): the RHS matrix is latched into the PEs (at
# ``fill_rows_per_cycle`` rows per clock), the LHS streams in from the
# left edge with a one-cycle skew per row, partial sums flow downward and
# outputs exit from the bottom of each column.  The simulator returns
# both the numeric result (validated against NumPy in the tests) and the
# exact cycle count (validating the analytic model of
# :class:`repro.arch.systolic.WeightStationaryEngine`).


@dataclass(frozen=True)
class FunctionalResult:
    """Output of a functional array simulation."""

    output: np.ndarray
    fill_cycles: int
    stream_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.fill_cycles + self.stream_cycles


def simulate_ws(lhs: np.ndarray, rhs: np.ndarray, height: int, width: int,
                fill_rows_per_cycle: int = 8) -> FunctionalResult:
    """Multiply ``lhs @ rhs`` on an (height x width) WS systolic array.

    The operand shapes must fit a single tile: ``k <= height`` and
    ``n <= width`` (multi-tile GEMMs are the analytic model's job; this
    simulator validates the per-tile behaviour).
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    m, k = lhs.shape
    k2, n = rhs.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {lhs.shape} @ {rhs.shape}")
    if k > height or n > width:
        raise ValueError(
            f"tile ({k}x{n}) exceeds array ({height}x{width}); "
            "tile the GEMM first"
        )

    # Phase 1: latch the RHS, fill_rows_per_cycle rows per clock.
    fill_cycles = math.ceil(k / fill_rows_per_cycle)
    weights = np.zeros((height, width))
    weights[:k, :n] = rhs

    # Phase 2: stream the LHS with a one-cycle skew per PE row.  The
    # horizontal registers carry activations rightward; the vertical
    # registers carry partial sums downward.
    h_regs = np.zeros((height, width))
    v_regs = np.zeros((height, width))
    output = np.zeros((m, n))
    collected = 0
    cycle = 0
    # Row i of the output exits column c at cycle i + k - 1 + c; run
    # until every output has been collected.
    max_cycles = m + k + width + 8  # safety bound; loop exits earlier
    while collected < m * n and cycle < max_cycles:
        # Shift activations right and partial sums down (read the
        # previous cycle's values before overwriting).
        h_prev = h_regs.copy()
        v_prev = v_regs.copy()
        h_regs[:, 1:] = h_prev[:, :-1]
        # Inject the skewed LHS at the left edge: row r sees element
        # lhs[cycle - r][r].
        for r in range(k):
            i = cycle - r
            h_regs[r, 0] = lhs[i, r] if 0 <= i < m else 0.0
        # Each PE multiplies its resident weight by the arriving
        # activation and adds the partial sum from the PE above.
        above = np.zeros((height, width))
        above[1:, :] = v_prev[:-1, :]
        v_regs = above + h_regs * weights
        # Outputs exit below the last latched row (row k-1).
        for c in range(n):
            i = cycle - (k - 1) - c
            if 0 <= i < m:
                output[i, c] = v_regs[k - 1, c]
                collected += 1
        cycle += 1
    if collected != m * n:
        raise RuntimeError("WS simulation failed to drain all outputs")
    return FunctionalResult(output=output, fill_cycles=fill_cycles,
                            stream_cycles=cycle)


def ws_stream_cycles(m: int, k: int, n: int) -> int:
    """Closed form of the functional stream time: ``m + k + n - 2``.

    The final output element (row m-1, column n-1) completes at cycle
    ``(m-1) + (k-1) + (n-1)`` counted from zero.  The analytic engine
    uses the paper's conservative variant with the *physical* array
    width (``m + k + PE_W - 1``, Figure 3(c)); the functional array
    retires the final output as soon as it leaves the last *used*
    column.
    """
    return m + k + n - 2


# -------------------------------------------------------------------------
# Cycle-by-cycle functional simulation of an output-stationary array
#
# Figure 3(b): LHS rows stream in from the left edge and RHS columns from
# the top edge, both skewed one cycle per row/column, so PE(i, j) sees
# ``lhs[i, t]`` and ``rhs[t, j]`` simultaneously and accumulates its
# output element locally.  After the wavefront passes, results drain at
# ``drain_rows_per_cycle`` rows per clock.


@dataclass(frozen=True)
class OsResult:
    """Output of a functional OS simulation."""

    output: np.ndarray
    wavefront_cycles: int
    drain_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.wavefront_cycles + self.drain_cycles


def simulate_os(lhs: np.ndarray, rhs: np.ndarray, height: int, width: int,
                drain_rows_per_cycle: int = 8) -> OsResult:
    """Multiply ``lhs @ rhs`` on an (height x width) OS systolic array.

    Requires a single output tile: ``m <= height`` and ``n <= width``.
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    m, k = lhs.shape
    k2, n = rhs.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {lhs.shape} @ {rhs.shape}")
    if m > height or n > width:
        raise ValueError(
            f"output tile ({m}x{n}) exceeds array ({height}x{width})"
        )

    h_regs = np.zeros((height, width))  # LHS values moving right
    v_regs = np.zeros((height, width))  # RHS values moving down
    acc = np.zeros((height, width))
    # The final MAC of PE(m-1, n-1) happens once the last skewed
    # operands reach it: cycle (k-1) + (m-1) + (n-1); +1 cycles because
    # we count completed cycles.
    wavefront = k + m + n - 2
    for cycle in range(wavefront):
        h_prev = h_regs.copy()
        v_prev = v_regs.copy()
        h_regs[:, 1:] = h_prev[:, :-1]
        v_regs[1:, :] = v_prev[:-1, :]
        for i in range(m):
            t = cycle - i
            h_regs[i, 0] = lhs[i, t] if 0 <= t < k else 0.0
        for j in range(n):
            t = cycle - j
            v_regs[0, j] = rhs[t, j] if 0 <= t < k else 0.0
        acc += h_regs * v_regs
    drain = math.ceil(m / drain_rows_per_cycle)
    return OsResult(output=acc[:m, :n].copy(), wavefront_cycles=wavefront,
                    drain_cycles=drain)


def os_wavefront_cycles(m: int, k: int, n: int) -> int:
    """Closed form of the wavefront time: ``k + m + n - 2``.

    The analytic engine uses ``k + m + n - 1`` (the paper's Figure 3(b)
    expression), one conservative cycle above the register-level sim.
    """
    return k + m + n - 2


# -------------------------------------------------------------------------
# Cycle-by-cycle functional simulation of DiVa's outer-product engine
#
# Figure 9(b): each clock, one LHS column (length m) and one RHS row
# (length n) are broadcast over row/column buses; every PE multiplies its
# pair and accumulates locally, so a full rank-1 update retires per
# cycle.  After K cycles the accumulators drain at
# ``drain_rows_per_cycle`` rows per clock — optionally through the PPU,
# which squares and sums each row on the fly (the fused gradient-norm
# path of Section IV-C).


@dataclass(frozen=True)
class OuterProductResult:
    """Output of a functional outer-product simulation."""

    output: np.ndarray
    compute_cycles: int
    drain_cycles: int
    #: Sum of squares of all drained outputs (the PPU norm tap);
    #: ``sqrt`` of this is the Frobenius/L2 norm of the output tile.
    norm_squared: float

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.drain_cycles


def simulate_outer_product(
    lhs: np.ndarray,
    rhs: np.ndarray,
    height: int,
    width: int,
    drain_rows_per_cycle: int = 8,
) -> OuterProductResult:
    """Multiply ``lhs @ rhs`` on an (height x width) outer-product array.

    Requires a single output tile: ``m <= height`` and ``n <= width``;
    K may be arbitrary (the dimension the dataflow is robust to).
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    m, k = lhs.shape
    k2, n = rhs.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {lhs.shape} @ {rhs.shape}")
    if m > height or n > width:
        raise ValueError(
            f"output tile ({m}x{n}) exceeds array ({height}x{width})"
        )

    acc = np.zeros((height, width))
    for t in range(k):
        # All-to-all multiply of the broadcast column/row pair: one
        # rank-1 update per clock, regardless of K.
        acc[:m, :n] += np.outer(lhs[:, t], rhs[t, :])

    # Drain R rows per clock; the PPU taps the stream and accumulates
    # the sum of squares (norm derivation is overlapped, costing no
    # extra cycles beyond the pipeline flush modeled analytically).
    drain = math.ceil(m / drain_rows_per_cycle)
    norm_squared = 0.0
    for start in range(0, m, drain_rows_per_cycle):
        rows = acc[start:start + drain_rows_per_cycle, :n]
        norm_squared += float(np.sum(rows * rows))
    return OuterProductResult(
        output=acc[:m, :n].copy(),
        compute_cycles=k,
        drain_cycles=drain,
        norm_squared=norm_squared,
    )


# -------------------------------------------------------------------------
# Cycle-by-cycle functional simulation of one pipelined adder tree
#
# Figure 11: a ``log2(width)``-level binary adder tree reduces one
# ``width``-element row per clock in a fully pipelined fashion.  A new
# row may enter every cycle; its scalar sum emerges ``levels`` cycles
# later.  The PPU instantiates ``R`` such trees, one per drained output
# row (Figure 12).


@dataclass(frozen=True)
class AdderTreeResult:
    """Output of a pipelined adder-tree simulation."""

    sums: np.ndarray
    #: Cycle at which each input row's sum emerged (0-indexed from the
    #: cycle its row was injected).
    latency_cycles: int
    total_cycles: int


class PipelinedAdderTree:
    """A ``width``-input pipelined binary adder tree."""

    def __init__(self, width: int) -> None:
        if width < 2:
            raise ValueError("adder tree needs at least 2 inputs")
        self.width = width
        self.levels = math.ceil(math.log2(width))
        padded = 1 << self.levels
        # pipeline[level] holds the partial sums currently at that level.
        self._pipeline: list[np.ndarray | None] = [None] * self.levels
        self._padded = padded

    def step(self, row: np.ndarray | None) -> float | None:
        """Advance one clock; inject ``row`` (or a bubble) at level 0.

        Returns the scalar that exits the final level this cycle, or
        ``None`` if a bubble emerges.
        """
        out = self._pipeline[-1]
        result = float(out[0]) if out is not None else None
        # Shift every level forward, pairing-and-adding as we go.
        for level in range(self.levels - 1, 0, -1):
            below = self._pipeline[level - 1]
            if below is None:
                self._pipeline[level] = None
            else:
                self._pipeline[level] = below[0::2] + below[1::2]
        if row is None:
            self._pipeline[0] = None
        else:
            row = np.asarray(row, dtype=np.float64)
            if row.shape != (self.width,):
                raise ValueError(
                    f"expected a row of width {self.width}, got {row.shape}"
                )
            padded = np.zeros(self._padded)
            padded[: self.width] = row
            self._pipeline[0] = padded[0::2] + padded[1::2]
        return result


def simulate_adder_tree(rows: np.ndarray) -> AdderTreeResult:
    """Reduce each row of ``rows`` through one pipelined adder tree."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a 2D array of rows")
    count, width = rows.shape
    tree = PipelinedAdderTree(width)
    sums: list[float] = []
    cycle = 0
    for i in range(count):
        out = tree.step(rows[i])
        if out is not None:
            sums.append(out)
        cycle += 1
    # Flush the pipeline with bubbles.
    while len(sums) < count:
        out = tree.step(None)
        if out is not None:
            sums.append(out)
        cycle += 1
    return AdderTreeResult(
        sums=np.array(sums),
        latency_cycles=tree.levels,
        total_cycles=cycle,
    )


# -------------------------------------------------------------------------
# BF16 datapath emulation (Table I: BF16 multiply, FP32 accumulate)
#
# Every engine in the paper multiplies BF16 operands and accumulates in
# FP32.  This section emulates that numeric behaviour in NumPy so the
# tests can quantify the precision impact of the hardware datapath
# (bfloat16 keeps FP32's exponent range but only 8 mantissa bits).


def to_bfloat16(x: np.ndarray) -> np.ndarray:
    """Round an array to bfloat16 precision (kept in float32 storage).

    Uses round-to-nearest-even on the upper 16 bits of the IEEE-754
    single-precision encoding — the standard bfloat16 conversion.
    """
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # Round-to-nearest-even: add 0x7FFF plus the LSB of the kept part.
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) & np.uint32(0xFFFF0000)
    out = rounded.astype(np.uint32).view(np.float32).copy()
    # NaN payloads can be squashed to infinity by the rounding add;
    # restore NaNs explicitly.
    nan_mask = np.isnan(x32)
    if nan_mask.any():
        out[nan_mask] = np.nan
    return out.reshape(x32.shape)


def bf16_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix multiplication with BF16 operands, FP32 accumulation.

    Mirrors the paper's PE datapath: operands are quantized to bfloat16
    before the multiply; products and sums are kept in float32.
    """
    a16 = to_bfloat16(a).astype(np.float32)
    b16 = to_bfloat16(b).astype(np.float32)
    return a16 @ b16


def bf16_relative_error(x: np.ndarray) -> np.ndarray:
    """Element-wise relative quantization error of the BF16 rounding."""
    x = np.asarray(x, dtype=np.float64)
    quantized = to_bfloat16(x).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(quantized - x) / np.abs(x)
    return np.where(x == 0.0, 0.0, err)


# -------------------------------------------------------------------------
# Tiled functional GEMM: compose single-tile array sims over big GEMMs
#
# The analytic engines (:mod:`repro.arch`) tile GEMMs onto the physical
# array and sum per-tile cycle formulas; this section executes the *same
# tiling* through the cycle-by-cycle functional simulators and assembles
# the numeric result — validating that the tiling covers the operands
# exactly and that partial-sum accumulation across K-chunks (WS) or
# output placement across M/N-chunks (OS, outer-product) is correct.


_DATAFLOWS = ("ws", "os", "outer_product")


@dataclass(frozen=True)
class TiledResult:
    """Assembled output and cycle total of a tiled functional GEMM."""

    output: np.ndarray
    total_cycles: int
    tiles: int


def tiled_matmul(a: np.ndarray, b: np.ndarray, height: int, width: int,
                 dataflow: str = "outer_product",
                 fill_rows_per_cycle: int = 8,
                 drain_rows_per_cycle: int = 8) -> TiledResult:
    """Multiply arbitrarily shaped ``a @ b`` on a small functional array.

    WS tiles (K -> rows, N -> columns) accumulate partial sums across
    K-chunks; OS/outer-product tiles (M -> rows, N -> columns) each own
    a disjoint output block.
    """
    if dataflow not in _DATAFLOWS:
        raise ValueError(f"unknown dataflow {dataflow!r}; "
                         f"choose from {_DATAFLOWS}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")

    output = np.zeros((m, n))
    cycles = 0
    tiles = 0
    if dataflow == "ws":
        k_offsets = _offsets(chunk_sizes(k, height))
        n_offsets = _offsets(chunk_sizes(n, width))
        for k0, kt in k_offsets:
            for n0, nt in n_offsets:
                result = simulate_ws(
                    a[:, k0:k0 + kt], b[k0:k0 + kt, n0:n0 + nt],
                    height, width, fill_rows_per_cycle)
                output[:, n0:n0 + nt] += result.output
                cycles += result.total_cycles
                tiles += 1
    else:
        simulate = (simulate_os if dataflow == "os"
                    else simulate_outer_product)
        m_offsets = _offsets(chunk_sizes(m, height))
        n_offsets = _offsets(chunk_sizes(n, width))
        for m0, mt in m_offsets:
            for n0, nt in n_offsets:
                result = simulate(
                    a[m0:m0 + mt, :], b[:, n0:n0 + nt],
                    height, width, drain_rows_per_cycle)
                output[m0:m0 + mt, n0:n0 + nt] = result.output
                cycles += result.total_cycles
                tiles += 1
    return TiledResult(output=output, total_cycles=cycles, tiles=tiles)


def _offsets(chunks: list[int]) -> list[tuple[int, int]]:
    out = []
    position = 0
    for size in chunks:
        out.append((position, size))
        position += size
    return out

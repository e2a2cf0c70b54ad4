"""On-chip SRAM bandwidth requirements per dataflow (Table I).

The paper compares steady-state SRAM read/write bandwidth of the WS
systolic dataflow against OS/outer-product: WS needs a burst weight-fill
path (8 rows/clock of the RHS) but drains only one output row per
column, while OS/outer-product stream both operands continuously and
drain 8 output rows per clock.  Totals for the default 128x128 array:

* WS: ``(2*PE_H + 20*PE_W)`` bytes/clock
* OS & outer-product: ``(2*PE_H + 34*PE_W)`` bytes/clock
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.engine import ArrayConfig


@dataclass(frozen=True)
class SramBandwidth:
    """Per-clock SRAM bandwidth requirement of a dataflow (bytes)."""

    dataflow: str
    lhs_read: int
    rhs_read: int
    output_write: int

    @property
    def total(self) -> int:
        return self.lhs_read + self.rhs_read + self.output_write


def ws_bandwidth(config: ArrayConfig | None = None) -> SramBandwidth:
    """Weight-stationary requirement (Table I, left column)."""
    cfg = config or ArrayConfig()
    return SramBandwidth(
        dataflow="systolic_ws",
        lhs_read=cfg.height * cfg.input_bytes,
        rhs_read=cfg.width * cfg.fill_rows_per_cycle * cfg.input_bytes,
        output_write=cfg.width * cfg.acc_bytes,
    )


def os_bandwidth(config: ArrayConfig | None = None) -> SramBandwidth:
    """OS-systolic / outer-product requirement (Table I, right column)."""
    cfg = config or ArrayConfig()
    return SramBandwidth(
        dataflow="systolic_os/outer_product",
        lhs_read=cfg.height * cfg.input_bytes,
        rhs_read=cfg.width * cfg.input_bytes,
        output_write=cfg.width * cfg.drain_rows_per_cycle * cfg.acc_bytes,
    )

"""Tests for the Table I SRAM bandwidth model (repro.arch.bandwidth)."""

from repro.arch.bandwidth import (
    os_bandwidth,
    ws_bandwidth,
)
from repro.arch.engine import ArrayConfig


class TestTable1Defaults:
    """Exact Table I values for the 128x128 default array."""

    def test_ws_total(self):
        """(2*PE_H + 20*PE_W) bytes/clock = 2816 for 128x128."""
        assert ws_bandwidth().total == 2 * 128 + 20 * 128

    def test_os_total(self):
        """(2*PE_H + 34*PE_W) bytes/clock = 4608 for 128x128."""
        assert os_bandwidth().total == 2 * 128 + 34 * 128

    def test_ws_components(self):
        bw = ws_bandwidth()
        assert bw.lhs_read == 128 * 2
        assert bw.rhs_read == 128 * 8 * 2
        assert bw.output_write == 128 * 4

    def test_os_components(self):
        bw = os_bandwidth()
        assert bw.lhs_read == 128 * 2
        assert bw.rhs_read == 128 * 2
        assert bw.output_write == 128 * 8 * 4

    def test_os_needs_more_than_ws(self):
        """The paper's trade-off: OS-style drain costs SRAM bandwidth."""
        assert os_bandwidth().total > ws_bandwidth().total


class TestTable1Scaling:
    def test_scales_with_array(self):
        cfg = ArrayConfig(height=64, width=256)
        assert ws_bandwidth(cfg).total == 2 * 64 + 20 * 256
        assert os_bandwidth(cfg).total == 2 * 64 + 34 * 256

    def test_fill_rate_raises_ws_rhs(self):
        cfg = ArrayConfig(fill_rows_per_cycle=16)
        assert ws_bandwidth(cfg).rhs_read == 128 * 16 * 2

    def test_drain_rate_raises_os_output(self):
        cfg = ArrayConfig(drain_rows_per_cycle=16)
        assert os_bandwidth(cfg).output_write == 128 * 16 * 4

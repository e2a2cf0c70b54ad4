"""Functional-simulator tests: numerics vs NumPy, cycles vs closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functional_oracle import (
    os_wavefront_cycles,
    simulate_adder_tree,
    simulate_os,
    simulate_outer_product,
    simulate_ws,
    ws_stream_cycles,
)

shapes = st.tuples(st.integers(1, 12), st.integers(1, 8), st.integers(1, 8))


def _operands(m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, k)), rng.normal(size=(k, n))


class TestWsFunctional:
    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 100))
    def test_numerics_match_numpy(self, shape, seed):
        m, k, n = shape
        a, b = _operands(m, k, n, seed)
        result = simulate_ws(a, b, height=8, width=8, fill_rows_per_cycle=2)
        np.testing.assert_allclose(result.output, a @ b, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_stream_cycles_closed_form(self, shape):
        m, k, n = shape
        a, b = _operands(m, k, n)
        result = simulate_ws(a, b, height=8, width=8, fill_rows_per_cycle=2)
        assert result.stream_cycles == ws_stream_cycles(m, k, n)

    def test_fill_cycles(self):
        a, b = _operands(4, 7, 3)
        result = simulate_ws(a, b, height=8, width=8, fill_rows_per_cycle=2)
        assert result.fill_cycles == 4  # ceil(7/2)

    def test_oversize_tile_rejected(self):
        a, b = _operands(4, 9, 3)
        with pytest.raises(ValueError):
            simulate_ws(a, b, height=8, width=8)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_ws(rng.normal(size=(3, 4)), rng.normal(size=(5, 2)),
                        8, 8)


class TestOsFunctional:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 20),
                           st.integers(1, 8)), seed=st.integers(0, 100))
    def test_numerics_match_numpy(self, shape, seed):
        m, k, n = shape
        a, b = _operands(m, k, n, seed)
        result = simulate_os(a, b, height=8, width=8)
        np.testing.assert_allclose(result.output, a @ b, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 20),
                           st.integers(1, 8)))
    def test_wavefront_closed_form(self, shape):
        m, k, n = shape
        a, b = _operands(m, k, n)
        result = simulate_os(a, b, height=8, width=8)
        assert result.wavefront_cycles == os_wavefront_cycles(m, k, n)

    def test_oversize_output_tile_rejected(self):
        a, b = _operands(9, 4, 3)
        with pytest.raises(ValueError):
            simulate_os(a, b, height=8, width=8)


class TestOuterProductFunctional:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 30),
                           st.integers(1, 8)), seed=st.integers(0, 100))
    def test_numerics_match_numpy(self, shape, seed):
        m, k, n = shape
        a, b = _operands(m, k, n, seed)
        result = simulate_outer_product(a, b, height=8, width=8)
        np.testing.assert_allclose(result.output, a @ b, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 30),
                           st.integers(1, 8)))
    def test_compute_cycles_equal_k(self, shape):
        """The headline property: K cycles regardless of M, N."""
        m, k, n = shape
        a, b = _operands(m, k, n)
        result = simulate_outer_product(a, b, height=8, width=8)
        assert result.compute_cycles == k

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 30),
                           st.integers(1, 8)), seed=st.integers(0, 100))
    def test_ppu_norm_tap(self, shape, seed):
        """The drained norm equals the Frobenius norm of the product."""
        m, k, n = shape
        a, b = _operands(m, k, n, seed)
        result = simulate_outer_product(a, b, height=8, width=8)
        expected = float(np.sum((a @ b) ** 2))
        assert result.norm_squared == pytest.approx(expected)

    def test_drain_cycles(self):
        a, b = _operands(7, 3, 4)
        result = simulate_outer_product(a, b, 8, 8, drain_rows_per_cycle=2)
        assert result.drain_cycles == 4  # ceil(7/2)


class TestCrossValidation:
    """The analytic models must be conservative w.r.t. the functional sims."""

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes)
    def test_ws_analytic_upper_bounds_functional(self, shape):
        from repro.arch.engine import ArrayConfig
        from repro.arch.systolic import WeightStationaryEngine

        m, k, n = shape
        cfg = ArrayConfig(height=8, width=8, fill_rows_per_cycle=2,
                          tile_startup_cycles=0, gemm_startup_cycles=0,
                          weight_double_buffer=False)
        engine = WeightStationaryEngine(cfg)
        fill, stream = engine.tile_cycle_phases(
            engine.tiles(__import__("repro.workloads.gemms",
                                    fromlist=["Gemm"]).Gemm(m, k, n))[0])
        a, b = _operands(m, k, n)
        functional = simulate_ws(a, b, 8, 8, fill_rows_per_cycle=2)
        assert fill == functional.fill_cycles
        assert stream >= functional.stream_cycles

    @settings(max_examples=30, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 20),
                           st.integers(1, 8)))
    def test_os_analytic_upper_bounds_functional(self, shape):
        from repro.arch.engine import ArrayConfig
        from repro.arch.systolic import OutputStationaryEngine
        from repro.workloads.gemms import Gemm

        m, k, n = shape
        cfg = ArrayConfig(height=8, width=8, tile_startup_cycles=0,
                          gemm_startup_cycles=0)
        engine = OutputStationaryEngine(cfg)
        _, wave = engine.tile_cycle_phases(engine.tiles(Gemm(m, k, n))[0])
        a, b = _operands(m, k, n)
        functional = simulate_os(a, b, 8, 8)
        assert wave == functional.wavefront_cycles + 1  # paper's +1 skew

    @settings(max_examples=30, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 20),
                           st.integers(1, 8)))
    def test_outer_product_analytic_matches_functional(self, shape):
        from repro.arch.engine import ArrayConfig
        from repro.core.outer_product import OuterProductEngine
        from repro.workloads.gemms import Gemm

        m, k, n = shape
        cfg = ArrayConfig(height=8, width=8, drain_rows_per_cycle=2,
                          tile_startup_cycles=0, gemm_startup_cycles=0)
        engine = OuterProductEngine(cfg)
        drain, main = engine.tile_cycle_phases(
            engine.tiles(Gemm(m, k, n))[0])
        a, b = _operands(m, k, n)
        functional = simulate_outer_product(a, b, 8, 8,
                                            drain_rows_per_cycle=2)
        assert main == functional.compute_cycles
        assert drain == functional.drain_cycles


class TestAdderTree:
    def test_sums_match_numpy(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(20, 32))
        result = simulate_adder_tree(rows)
        np.testing.assert_allclose(result.sums, rows.sum(axis=1), atol=1e-9)

    def test_latency_is_log2_width(self):
        """Section IV-C: output generation is O(log2 E)."""
        rows = np.ones((4, 128))
        result = simulate_adder_tree(rows)
        assert result.latency_cycles == 7

    def test_pipelined_throughput(self):
        """N rows complete in N + levels cycles — one row per clock."""
        rows = np.ones((50, 16))
        result = simulate_adder_tree(rows)
        assert result.total_cycles == 50 + 4

    def test_non_power_of_two_width(self):
        rows = np.arange(30.0).reshape(3, 10)
        result = simulate_adder_tree(rows)
        np.testing.assert_allclose(result.sums, rows.sum(axis=1))

    def test_rejects_width_one(self):
        from functional_oracle import PipelinedAdderTree
        with pytest.raises(ValueError):
            PipelinedAdderTree(1)

    def test_rejects_wrong_row_width(self):
        from functional_oracle import PipelinedAdderTree
        tree = PipelinedAdderTree(8)
        with pytest.raises(ValueError):
            tree.step(np.ones(9))

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            simulate_adder_tree(np.ones(8))

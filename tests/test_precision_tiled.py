"""Tests for BF16 emulation and the tiled functional GEMM runner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functional_oracle import (
    bf16_matmul,
    bf16_relative_error,
    tiled_matmul,
    to_bfloat16,
)

RNG = np.random.default_rng(0)


class TestBfloat16:
    def test_idempotent(self):
        x = RNG.normal(size=100).astype(np.float32)
        once = to_bfloat16(x)
        np.testing.assert_array_equal(to_bfloat16(once), once)

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=1e-30, max_value=1e30,
                           allow_nan=False, allow_infinity=False))
    def test_relative_error_bounded(self, value):
        """BF16 keeps 8 mantissa bits: relative error < 2^-8."""
        err = bf16_relative_error(np.array([value]))
        assert err[0] <= 2.0**-8

    def test_zero_preserved(self):
        assert to_bfloat16(np.array([0.0]))[0] == 0.0

    def test_powers_of_two_exact(self):
        x = np.array([1.0, 2.0, 0.5, 1024.0, 2.0**-20])
        np.testing.assert_array_equal(to_bfloat16(x), x)

    def test_sign_preserved(self):
        x = np.array([-3.14159, 3.14159])
        quantized = to_bfloat16(x)
        assert quantized[0] == -quantized[1]

    def test_inf_preserved(self):
        quantized = to_bfloat16(np.array([np.inf, -np.inf]))
        assert np.isinf(quantized).all()

    def test_nan_preserved(self):
        assert np.isnan(to_bfloat16(np.array([np.nan]))[0])

    def test_round_to_nearest_even(self):
        """A value exactly between two bf16 codes rounds to even."""
        # 1.0 + 2^-9 is halfway between 1.0 and 1.0 + 2^-8.
        halfway = np.float32(1.0 + 2.0**-9)
        assert to_bfloat16(np.array([halfway]))[0] == np.float32(1.0)

    def test_matmul_error_small(self):
        a = RNG.normal(size=(32, 64))
        b = RNG.normal(size=(64, 16))
        exact = a @ b
        approx = bf16_matmul(a, b)
        rel = np.abs(approx - exact) / (np.abs(exact) + 1e-9)
        assert np.median(rel) < 0.02

    def test_dp_step_survives_bf16(self):
        """DP-SGD's clipped/noisy update tolerates the BF16 datapath."""
        from repro.dpml import clip_scales

        grads = RNG.normal(size=(16, 200))
        sq = (grads**2).sum(axis=1)
        exact = (grads * clip_scales(sq, 1.0)[:, None]).sum(axis=0)
        quant_grads = to_bfloat16(grads).astype(np.float64)
        sq_q = (quant_grads**2).sum(axis=1)
        approx = (quant_grads * clip_scales(sq_q, 1.0)[:, None]).sum(axis=0)
        assert np.abs(approx - exact).max() < 0.05 * np.abs(exact).max() + 0.05


shapes = st.tuples(st.integers(1, 30), st.integers(1, 30),
                   st.integers(1, 30))


class TestTiledMatmul:
    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 50))
    def test_ws_tiling_numerics(self, shape, seed):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        result = tiled_matmul(a, b, height=8, width=8, dataflow="ws",
                              fill_rows_per_cycle=2)
        np.testing.assert_allclose(result.output, a @ b, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 50))
    def test_os_tiling_numerics(self, shape, seed):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        result = tiled_matmul(a, b, height=8, width=8, dataflow="os",
                              drain_rows_per_cycle=2)
        np.testing.assert_allclose(result.output, a @ b, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 50))
    def test_outer_product_tiling_numerics(self, shape, seed):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        result = tiled_matmul(a, b, height=8, width=8)
        np.testing.assert_allclose(result.output, a @ b, atol=1e-9)

    def test_tile_counts_match_analytic_tiling(self):
        """The functional runner uses the same tiling as the engines."""
        from repro.arch.engine import ArrayConfig
        from repro.arch.systolic import WeightStationaryEngine
        from repro.core.outer_product import OuterProductEngine
        from repro.workloads.gemms import Gemm

        cfg = ArrayConfig(height=8, width=8)
        a = RNG.normal(size=(20, 19))
        b = RNG.normal(size=(19, 21))
        ws = tiled_matmul(a, b, 8, 8, dataflow="ws")
        op = tiled_matmul(a, b, 8, 8, dataflow="outer_product")
        assert ws.tiles == len(WeightStationaryEngine(cfg).tiles(
            Gemm(20, 19, 21)))
        assert op.tiles == len(OuterProductEngine(cfg).tiles(
            Gemm(20, 19, 21)))

    def test_cycles_positive(self):
        a, b = RNG.normal(size=(9, 9)), RNG.normal(size=(9, 9))
        assert tiled_matmul(a, b, 8, 8).total_cycles > 0

    def test_unknown_dataflow(self):
        a, b = RNG.normal(size=(4, 4)), RNG.normal(size=(4, 4))
        with pytest.raises(ValueError):
            tiled_matmul(a, b, 8, 8, dataflow="rs")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tiled_matmul(RNG.normal(size=(4, 5)), RNG.normal(size=(6, 4)),
                         8, 8)

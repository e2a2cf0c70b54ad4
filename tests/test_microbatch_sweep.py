"""Tests for virtual batching and the GEMM robustness sweep."""

import numpy as np
import pytest

from repro.dpml import (
    Dense,
    DpSgdOptimizer,
    MicrobatchDpSgdOptimizer,
    PrivacyParams,
    ReLU,
    Sequential,
    synthetic_classification,
)
from repro.dpml.microbatch import clipped_grad_sum
from repro.experiments import gemm_sweep


def clipped_grad_sum_loop(per_example, scales):
    """Per-example loop oracle for :func:`clipped_grad_sum`."""
    total = np.zeros_like(per_example[0])
    for gradient, scale in zip(per_example, scales):
        total = total + scale * gradient
    return total


class TestClippedGradSum:
    """The stacked einsum/tensordot contraction vs its loop oracle."""

    @pytest.mark.parametrize("shape", [(1, 3), (8, 5), (16, 4, 6),
                                       (32, 2, 3, 4)])
    def test_matches_loop_oracle(self, shape):
        rng = np.random.default_rng(7)
        per_example = rng.normal(size=shape)
        scales = rng.uniform(0.1, 1.0, size=shape[0])
        np.testing.assert_allclose(
            clipped_grad_sum(per_example, scales),
            clipped_grad_sum_loop(per_example, scales),
            rtol=1e-12, atol=1e-12)

    def test_matches_broadcast_reduce(self):
        # The pre-vectorization formulation (materialize B x params,
        # then reduce) — kept as a second oracle.
        rng = np.random.default_rng(3)
        per_example = rng.normal(size=(24, 6, 5))
        scales = rng.uniform(0.0, 2.0, size=24)
        reference = (per_example
                     * scales.reshape(24, 1, 1)).sum(axis=0)
        np.testing.assert_allclose(
            clipped_grad_sum(per_example, scales), reference,
            rtol=1e-12, atol=1e-12)


def _net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 24, rng=rng), ReLU(),
                       Dense(24, 4, rng=rng)])


class TestMicrobatching:
    def test_validation(self):
        with pytest.raises(ValueError):
            MicrobatchDpSgdOptimizer(_net(), microbatch_size=0)

    @pytest.mark.parametrize("microbatch", [1, 4, 7, 16, 64])
    def test_equivalent_to_full_batch(self, microbatch):
        """Any micro-batch split yields the same logical update."""
        data = synthetic_classification(64, 16, 4, seed=2)
        x, y = data.x[:32], data.y[:32]
        full_net, micro_net = _net(1), _net(1)
        privacy = PrivacyParams(clip_norm=1.0, noise_multiplier=1.0)
        full = DpSgdOptimizer(full_net, privacy=privacy,
                              rng=np.random.default_rng(5))
        micro = MicrobatchDpSgdOptimizer(
            micro_net, privacy=privacy, rng=np.random.default_rng(5),
            microbatch_size=microbatch)
        r_full = full.step_dpsgd(x, y)
        r_micro = micro.step_dpsgd(x, y)
        for la, lb in zip(full_net.weight_layers, micro_net.weight_layers):
            for name in la.params:
                np.testing.assert_allclose(la.params[name], lb.params[name],
                                           atol=1e-9)
        assert r_micro.mean_loss == pytest.approx(r_full.mean_loss)
        assert r_micro.clipped_fraction == r_full.clipped_fraction

    def test_telemetry_covers_all_examples(self):
        data = synthetic_classification(64, 16, 4, seed=3)
        opt = MicrobatchDpSgdOptimizer(
            _net(2), microbatch_size=8,
            privacy=PrivacyParams(1.0, 0.0),
            rng=np.random.default_rng(0))
        result = opt.step_dpsgd(data.x[:24], data.y[:24])
        assert 0.0 <= result.clipped_fraction <= 1.0
        assert result.mean_grad_norm > 0


class TestGemmSweep:
    points = gemm_sweep.k_sweep(m=512, n=256, ks=(1, 8, 64, 512))

    def test_diva_monotone_advantage_shrinks_with_k(self):
        """DiVa's edge over WS is largest at the smallest K."""
        advantages = [p.diva_advantage for p in self.points]
        assert advantages[0] > advantages[-1]
        assert advantages[0] > 5.0

    def test_ws_utilization_grows_with_k(self):
        ws = [p.utilization["WS"] for p in self.points]
        assert all(a <= b + 1e-9 for a, b in zip(ws, ws[1:]))

    def test_diva_flat_across_k(self):
        """The outer product's defining robustness: above the drain
        bound (K >= 128/R = 16), utilization is K-independent."""
        diva = [p.utilization["DiVa"] for p in self.points
                if p.gemm.k >= 16]
        assert max(diva) / min(diva) < 1.5

    def test_render(self):
        text = gemm_sweep.render(self.points)
        assert "DiVa/WS" in text

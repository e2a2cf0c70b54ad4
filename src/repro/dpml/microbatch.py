"""Virtual batching: DP-SGD over micro-batches with one noise draw.

The software-side answer to the Section III-A memory cliff (what Opacus
calls ``BatchMemoryManager``): a logical batch of ``B`` examples is
processed in micro-batches of ``b`` examples, accumulating *clipped*
per-example gradient sums; noise is added once, after the full logical
batch.  The result is mathematically identical to a single ``B``-sized
DP-SGD step — verified in the test suite — while the peak per-example
gradient memory shrinks by ``B / b``.
"""

from __future__ import annotations

import numpy as np

from repro.dpml.dpsgd import DpSgdOptimizer, StepResult, clip_scales
from repro.dpml.loss import softmax_cross_entropy
from repro.dpml.modes import GradMode


def clipped_grad_sum(per_example: np.ndarray,
                     scales: np.ndarray) -> np.ndarray:
    """Clipped gradient sum ``sum_b scales[b] * per_example[b]``.

    One stacked contraction (``tensordot`` over the example axis, the
    einsum ``b...,b->...``) instead of materializing the
    ``B x params`` scaled-gradient intermediate and reducing it — the
    hot inner op of every per-example clip-and-accumulate step.
    ``tests/test_microbatch_sweep.py`` pins it against a per-example
    loop.
    """
    return np.tensordot(scales, per_example, axes=(0, 0))


class MicrobatchDpSgdOptimizer(DpSgdOptimizer):
    """DP-SGD with gradient accumulation over micro-batches."""

    def __init__(self, *args, microbatch_size: int = 16, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if microbatch_size <= 0:
            raise ValueError("microbatch_size must be positive")
        self.microbatch_size = microbatch_size

    def step_dpsgd(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        """One logical DP-SGD step, processed in micro-batches.

        Equivalent to :meth:`DpSgdOptimizer.step_dpsgd` on the whole
        batch (same clipped gradient sum; same single noise draw).
        """
        batch = x.shape[0]
        net = self.network
        accumulated: dict[tuple[int, str], np.ndarray] = {}
        losses: list[float] = []
        norms: list[float] = []
        clipped = 0

        for start in range(0, batch, self.microbatch_size):
            xb = x[start:start + self.microbatch_size]
            yb = labels[start:start + self.microbatch_size]
            net.zero_grads()
            logits = net.forward(xb)
            loss, dlogits = softmax_cross_entropy(logits, yb)
            net.backward(dlogits, mode=GradMode.PER_EXAMPLE)
            sq_norms = net.per_example_sq_norms()
            scales = clip_scales(sq_norms, self.privacy.clip_norm)
            for layer in net.weight_layers:
                for name, per_ex in layer.per_example_grads.items():
                    summed = clipped_grad_sum(per_ex, scales)
                    key = (id(layer), name)
                    if key in accumulated:
                        accumulated[key] += summed
                    else:
                        accumulated[key] = summed
            losses.extend(loss.tolist())
            norms.extend(np.sqrt(sq_norms).tolist())
            clipped += int((scales < 1.0).sum())

        # Single noise draw over the *logical* batch (Algorithm 1 line
        # 24) — noising per micro-batch would overcharge privacy.
        for layer in net.weight_layers:
            for name in layer.params:
                key = (id(layer), name)
                if key not in accumulated:
                    continue
                noisy = (accumulated[key]
                         + self._noise_like(accumulated[key])) / batch
                self._step_param(layer, name, noisy)
        self.steps_taken += 1
        return StepResult(
            mean_loss=float(np.mean(losses)),
            mean_grad_norm=float(np.mean(norms)),
            clipped_fraction=clipped / batch,
        )

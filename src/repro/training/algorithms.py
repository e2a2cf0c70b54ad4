"""Training algorithm taxonomy (Algorithm 1 of the paper)."""

from __future__ import annotations

import enum


class Algorithm(enum.Enum):
    """The three training algorithms characterized by the paper.

    * ``SGD`` — non-private mini-batch SGD: one per-batch weight
      gradient per layer (Section II-B).
    * ``DP_SGD`` — canonical differentially-private SGD (Abadi et al.):
      per-example weight gradients, L2-norm clipping, reduction, and
      Gaussian noise (Algorithm 1, ``DERIVE_DP_GRADIENTS``).
    * ``DP_SGD_R`` — reweighted DP-SGD (Lee & Kifer): a first
      backpropagation derives per-example gradient *norms* only, then a
      second pass computes the clipped per-batch gradient directly from
      a reweighted loss (Algorithm 1,
      ``DERIVE_REWEIGHTED_DP_GRADIENTS``).  Trades extra compute for a
      ~3.8x memory reduction (Section III-A) and becomes the paper's
      baseline DP algorithm.
    """

    SGD = "SGD"
    DP_SGD = "DP-SGD"
    DP_SGD_R = "DP-SGD(R)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_private(self) -> bool:
        """Whether the algorithm provides differential privacy."""
        return self is not Algorithm.SGD

    @property
    def stores_example_gradients(self) -> bool:
        """Whether per-example weight gradients persist in memory.

        Only plain DP-SGD materializes all ``B`` gradient sets at once;
        DP-SGD(R) consumes them on the fly during its first pass.
        """
        return self is Algorithm.DP_SGD

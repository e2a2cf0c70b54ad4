"""Hypothesis property tests for the exact wait-quantile helper.

:func:`repro.serve.metrics.percentile` answers the fleet report's wait
percentiles and every :class:`repro.obs.metrics.Histogram` quantile, so
it must be exact on *adversarial* streams, not just the friendly
exponential waits of the demo trace:

* it equals the textbook nearest-rank value (the ``ceil(n p)``-th
  smallest, ranked in exact rational arithmetic) at every size;
* it depends only on the multiset of values, never on their order —
  including zero-heavy streams (the wait stream's signature point
  mass) and monotone streams past 4,096 observations.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.serve import percentile

_PERCENTS = (50, 95, 99)


def _nearest_rank(data, pct):
    """The ``ceil(n * pct / 100)``-th smallest value, ranked exactly."""
    ordered = sorted(data)
    rank = max(1, math.ceil(Fraction(len(ordered)) * Fraction(pct) / 100))
    return ordered[rank - 1]


class TestExactQuantileProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6),
           zero_frac=st.floats(0.0, 0.95),
           n=st.integers(1, 12_000))
    def test_bounded_and_zero_mass_exact(self, seed, zero_frac, n):
        rng = np.random.default_rng(seed)
        zeros = int(n * zero_frac)
        data = np.concatenate([np.zeros(zeros),
                               rng.exponential(7.0, n - zeros)])
        rng.shuffle(data)
        for pct in _PERCENTS:
            value = percentile(data, pct)
            assert value == _nearest_rank(data.tolist(), pct)
            assert 0.0 <= value <= data.max()
            if pct * n <= 100 * zeros:
                # The zero point mass alone covers pct.
                assert value == 0.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_frac=st.floats(0.0, 0.8))
    def test_zero_heavy_stream_exact_in_any_order(self, seed, zero_frac):
        """12k zero-heavy observations, shuffled twice: same answers."""
        n = 12_000
        rng = np.random.default_rng(seed)
        zeros = int(n * zero_frac)
        data = np.concatenate([np.zeros(zeros),
                               rng.exponential(10.0, n - zeros)])
        rng.shuffle(data)
        reordered = rng.permutation(data)
        for pct in _PERCENTS:
            exact = _nearest_rank(data.tolist(), pct)
            assert percentile(data, pct) == exact
            assert percentile(reordered, pct) == exact

    @settings(max_examples=10, deadline=None)
    @given(direction=st.sampled_from((1, -1)),
           n=st.integers(4_096, 12_000))
    def test_monotone_stream_exact(self, direction, n):
        """Sorted input in either direction: the nearest rank itself."""
        data = np.arange(1.0, n + 1.0)[::direction].copy()
        histogram = Histogram()
        histogram.observe_many(data.tolist())
        for pct in _PERCENTS:
            rank = -(-n * pct // 100)
            assert percentile(data, pct) == float(rank)
            assert histogram.quantile(pct / 100) == float(rank)

    def test_order_independent_any_mix(self):
        data = [0.0, 0.0, 5.0, 1.0, 0.0, 9.0, 2.0]
        for pct in _PERCENTS:
            assert percentile(data, pct) == _nearest_rank(data, pct)
            assert percentile(data[::-1], pct) == percentile(data, pct)

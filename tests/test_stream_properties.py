"""Hypothesis property tests for the streaming quantile estimators.

The P² markers (:class:`repro.serve.stream.P2Quantile`) and their
zero-split wrapper (:class:`repro.serve.stream.StreamingStats`) feed
both the fleet report's wait percentiles and the autoscaler's p99
trigger, so their estimates must stay sane on *adversarial* streams,
not just the friendly exponential waits of the demo trace:

* every estimate is bounded by the observed min/max (a P² marker can
  interpolate, never extrapolate);
* on zero-heavy streams (the wait stream's signature point mass) and
  on monotone streams (the worst case for marker adjustment) the
  estimate stays within a tolerance of the exact nearest-rank
  percentile.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import P2Quantile, StreamingStats, percentile
from repro.serve.stream import WARMUP_OBSERVATIONS

_QUANTILES = (0.5, 0.95, 0.99)


def _exact(data, p):
    return percentile(list(data), p * 100)


class TestP2QuantileBounds:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.floats(0.01, 0.99),
           n=st.integers(1, 2000))
    def test_estimate_bounded_by_observed_extremes(self, seed, p, n):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(0.0, 2.0, n)
        estimator = P2Quantile(p)
        for value in data:
            estimator.add(float(value))
        assert len(estimator) == n
        assert data.min() <= estimator.value() <= data.max()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), p=st.floats(0.01, 0.99))
    def test_seeded_estimator_bounded(self, seed, p):
        rng = np.random.default_rng(seed)
        sample = np.sort(rng.exponential(3.0, 512))
        tail = rng.exponential(3.0, 4096)
        estimator = P2Quantile(p)
        estimator.seed(sample.tolist(), p)
        for value in tail:
            estimator.add(float(value))
        lo = min(sample.min(), tail.min())
        hi = max(sample.max(), tail.max())
        assert lo <= estimator.value() <= hi

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(200, 5000), p=st.sampled_from(_QUANTILES))
    def test_monotone_stream_within_tolerance(self, n, p):
        """Strictly increasing input — P²'s classic stress case.

        Streams shorter than a couple hundred observations are out of
        scope: five markers cannot pin a 99th percentile of a drifting
        distribution they have barely seen.
        """
        data = np.arange(1.0, n + 1.0)
        estimator = P2Quantile(p)
        for value in data:
            estimator.add(float(value))
        exact = _exact(data, p)
        # Markers lag a drifting distribution; 10% of the observed
        # range is far tighter than a broken estimator would manage.
        assert abs(estimator.value() - exact) <= 0.10 * n


class TestStreamingStatsProperties:
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
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        assert stats.count == n
        assert stats.zeros == zeros
        for p in _QUANTILES:
            estimate = stats.quantile(p)
            assert 0.0 <= estimate <= data.max()
            if p * n <= zeros:
                # The zero point mass alone covers p: exact answer.
                assert estimate == 0.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_frac=st.floats(0.0, 0.8))
    def test_zero_heavy_stream_within_tolerance(self, seed, zero_frac):
        n = WARMUP_OBSERVATIONS * 3
        rng = np.random.default_rng(seed)
        zeros = int(n * zero_frac)
        data = np.concatenate([np.zeros(zeros),
                               rng.exponential(10.0, n - zeros)])
        rng.shuffle(data)
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        scale = float(data.max())
        for p in _QUANTILES:
            assert abs(stats.quantile(p) - _exact(data, p)) \
                <= 0.05 * scale + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(direction=st.sampled_from((1.0, -1.0)))
    def test_monotone_stream_past_warmup(self, direction):
        """Sorted input (either direction) straight through graduation."""
        n = WARMUP_OBSERVATIONS * 2
        data = np.arange(1.0, n + 1.0)[::int(direction)].copy()
        stats = StreamingStats()
        for value in data:
            stats.add(float(value))
        for p in _QUANTILES:
            exact = _exact(data, p)
            assert 1.0 <= stats.quantile(p) <= n
            assert abs(stats.quantile(p) - exact) <= 0.10 * n

    def test_exact_below_warmup_any_mix(self):
        data = [0.0, 0.0, 5.0, 1.0, 0.0, 9.0, 2.0]
        stats = StreamingStats()
        for value in data:
            stats.add(value)
        for p in _QUANTILES:
            assert stats.quantile(p) == _exact(data, p)


def _reference_p2_add(estimator, x, p):
    """The textbook P² update, loop for loop: the oracle for
    :meth:`P2Quantile.add`, whose marker shifts are unrolled and which
    returns early when no marker is a full position off target."""
    estimator.p = p
    estimator._count += 1
    q, n = estimator._heights, estimator._positions
    if estimator._count <= 5:
        q.append(x)
        q.sort()
        return
    if x < q[0]:
        q[0] = x
        k = 0
    elif x >= q[4]:
        q[4] = x
        k = 3
    else:
        k = next(i for i in range(3) if x < q[i + 1]) if x < q[3] else 3
    for i in range(k + 1, 5):
        n[i] += 1.0
    span = estimator._count - 1.0
    desired = (1.0, 1.0 + span * p / 2.0, 1.0 + span * p,
               1.0 + span * (1.0 + p) / 2.0, 1.0 + span)
    for i in (1, 2, 3):
        d = desired[i] - n[i]
        if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or \
                (d <= -1.0 and n[i - 1] - n[i] < -1.0):
            d = 1.0 if d > 0 else -1.0
            qi = q[i] + d / (n[i + 1] - n[i - 1]) * (
                (n[i] - n[i - 1] + d) * (q[i + 1] - q[i])
                / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1])
                / (n[i] - n[i - 1]))
            if not q[i - 1] < qi < q[i + 1]:
                j = i + int(d)
                qi = q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
            q[i] = qi
            n[i] += d


class TestP2QuantileBitwise:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6),
           # Dyadic targets land desired positions exactly one marker
           # position away, the boundary of the no-adjust early return.
           p=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                       st.floats(0.0, 1.0)),
           n=st.integers(1, 3000), ties=st.booleans(),
           drift=st.booleans())
    def test_add_matches_reference_update(self, seed, p, n, ties, drift):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(0.0, 2.0, n)
        if ties:
            data = np.round(data)
        targets = rng.uniform(0.0, 1.0, n) if drift else np.full(n, p)
        fast, slow = P2Quantile(p), P2Quantile(p)
        for value, target in zip(data.tolist(), targets.tolist()):
            fast.add(value, target)
            _reference_p2_add(slow, value, target)
        assert fast._heights == slow._heights
        assert fast._positions == slow._positions
        assert (fast._count, fast.p) == (slow._count, slow.p)

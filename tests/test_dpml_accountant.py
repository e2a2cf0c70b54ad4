"""Tests for the RDP accountant (repro.dpml.accountant)."""

import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpml import (
    DEFAULT_ORDERS,
    RdpAccountant,
    compute_rdp,
    epsilon_for_steps,
    max_steps_for_budget,
    noise_multiplier_for_epsilon,
    rdp_sampled_gaussian,
    rdp_to_epsilon,
)
from repro.dpml import accountant
from repro.dpml.accountant import rdp_table, step_rdp_rows


class TestRdpClosedForms:
    def test_q_zero_is_free(self):
        assert rdp_sampled_gaussian(0.0, 1.0, 8) == 0.0

    def test_q_one_is_gaussian(self):
        """q=1 reduces to the Gaussian mechanism: alpha / (2 sigma^2)."""
        for order in (2, 8, 32):
            for sigma in (0.5, 1.0, 4.0):
                assert rdp_sampled_gaussian(1.0, sigma, order) == \
                    pytest.approx(order / (2 * sigma**2))

    def test_sigma_zero_infinite(self):
        assert rdp_sampled_gaussian(0.5, 0.0, 4) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(1.5, 1.0, 4)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.5, 1.0, 2.5)


class TestRdpMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.001, 0.5), sigma=st.floats(0.5, 8.0),
           order=st.sampled_from([2, 4, 8, 16, 64]))
    def test_increasing_in_q(self, q, sigma, order):
        assert (rdp_sampled_gaussian(q, sigma, order)
                <= rdp_sampled_gaussian(min(1.0, q * 1.5), sigma, order)
                + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.001, 0.5), sigma=st.floats(0.5, 8.0),
           order=st.sampled_from([2, 4, 8, 16]))
    def test_decreasing_in_sigma(self, q, sigma, order):
        assert (rdp_sampled_gaussian(q, sigma, order)
                >= rdp_sampled_gaussian(q, sigma * 2, order) - 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.001, 0.3), sigma=st.floats(0.5, 4.0))
    def test_nonnegative(self, q, sigma):
        assert rdp_sampled_gaussian(q, sigma, 8) >= 0.0


class TestRdpTable:
    """``rdp_table`` is the scalar reference evaluated over a pair grid,
    bit for bit."""

    ORDERS = (2, 3, 7, 32, 65, 300)

    @staticmethod
    def _reference(qs, sigmas, orders):
        return np.array([[rdp_sampled_gaussian(q, sigma, order)
                          for order in orders]
                         for q, sigma in zip(qs, sigmas)])

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.floats(0.05, 50.0)),
        min_size=1, max_size=12))
    def test_bitwise_equal_to_scalar(self, pairs):
        # Special rows ride in the same call: q=0 (free), q=1 (plain
        # Gaussian), and sigma <= 0 (infinite), including q=0 with
        # sigma <= 0, which is still free.
        qs = [q for q, _ in pairs] + [0.0, 1.0, 0.3, 1.0, 0.0]
        sigmas = [s for _, s in pairs] + [1.0, 1.7, 0.0, -2.0, -1.0]
        table = rdp_table(qs, sigmas, self.ORDERS)
        reference = self._reference(qs, sigmas, self.ORDERS)
        assert table.shape == (len(qs), len(self.ORDERS))
        np.testing.assert_array_equal(table.view(np.int64),
                                      reference.view(np.int64))

    def test_default_orders_and_empty(self):
        qs, sigmas = [0.01, 0.37, 0.999], [0.7, 1.3, 4.0]
        np.testing.assert_array_equal(
            rdp_table(qs, sigmas),
            self._reference(qs, sigmas, DEFAULT_ORDERS))
        assert rdp_table([], [], self.ORDERS).shape == (0, len(self.ORDERS))

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_out_of_range_q_raises(self, q):
        with pytest.raises(ValueError):
            rdp_table([0.1, q], [1.0, 1.0], self.ORDERS)

    @pytest.mark.parametrize("orders", [(2, 2.5), (1, 4), (0,), (2, -3)])
    def test_bad_orders_raise(self, orders):
        with pytest.raises(ValueError):
            rdp_table([0.1], [1.0], orders)

    def test_memo_prices_only_missing_pairs(self, monkeypatch):
        """Rows land in the memo ``compute_rdp`` reads: once a batch has
        priced a pair, scalar accounting never recomputes it."""
        priced = []

        def counting(qs, sigmas, orders):
            priced.extend(zip(qs, sigmas))
            return rdp_table(qs, sigmas, orders)

        monkeypatch.setattr(accountant, "_step_rdp_memo", OrderedDict())
        monkeypatch.setattr(accountant, "rdp_table", counting)
        qs, sigmas = [0.0123, 0.0456, 0.0123], [1.11, 1.11, 1.11]
        rows = step_rdp_rows(qs, sigmas, self.ORDERS)
        assert priced == [(0.0123, 1.11), (0.0456, 1.11)]
        np.testing.assert_array_equal(rows[0], rows[2])
        np.testing.assert_array_equal(
            compute_rdp(0.0456, 1.11, 3, self.ORDERS), 3 * rows[1])
        max_steps_for_budget(0.0123, 1.11, 2.0, 1e-5, orders=self.ORDERS)
        assert len(priced) == 2


class TestComposition:
    def test_linear_in_steps(self):
        one = compute_rdp(0.01, 1.0, 1)
        many = compute_rdp(0.01, 1.0, 500)
        np.testing.assert_allclose(many, 500 * one)

    def test_zero_steps(self):
        np.testing.assert_allclose(compute_rdp(0.01, 1.0, 0), 0.0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            compute_rdp(0.01, 1.0, -1)


class TestConversion:
    def test_validation(self):
        rdp = compute_rdp(0.01, 1.0, 10)
        with pytest.raises(ValueError):
            rdp_to_epsilon(DEFAULT_ORDERS, rdp, delta=0.0)
        with pytest.raises(ValueError):
            rdp_to_epsilon((2, 3), rdp, delta=1e-5)

    def test_epsilon_grows_with_steps(self):
        eps = [
            rdp_to_epsilon(DEFAULT_ORDERS,
                           compute_rdp(0.01, 1.0, steps), 1e-5)[0]
            for steps in (10, 100, 1000)
        ]
        assert eps[0] < eps[1] < eps[2]

    def test_epsilon_shrinks_with_sigma(self):
        eps = [
            rdp_to_epsilon(DEFAULT_ORDERS,
                           compute_rdp(0.01, sigma, 1000), 1e-5)[0]
            for sigma in (0.8, 1.5, 4.0)
        ]
        assert eps[0] > eps[1] > eps[2]

    def test_reference_value(self):
        """The canonical TF-Privacy example: q=0.01, sigma=1.1,
        10k steps, delta=1e-5 gives epsilon in the low single digits."""
        rdp = compute_rdp(0.01, 1.1, 10_000)
        eps, order = rdp_to_epsilon(DEFAULT_ORDERS, rdp, 1e-5)
        assert 3.0 < eps < 9.0
        assert order in DEFAULT_ORDERS


class TestAccountant:
    def test_zero_steps_zero_epsilon(self):
        acct = RdpAccountant(0.01, 1.0)
        assert acct.epsilon(1e-5) == 0.0

    def test_record_accumulates(self):
        acct = RdpAccountant(0.02, 1.0)
        acct.record_steps(10)
        early = acct.epsilon(1e-5)
        acct.record_steps(990)
        assert acct.epsilon(1e-5) > early
        assert acct.steps == 1000

    def test_matches_direct_computation(self):
        acct = RdpAccountant(0.05, 1.2)
        acct.record_steps(250)
        direct = rdp_to_epsilon(DEFAULT_ORDERS,
                                compute_rdp(0.05, 1.2, 250), 1e-5)[0]
        assert acct.epsilon(1e-5) == pytest.approx(direct)

    def test_privacy_spent_pair(self):
        acct = RdpAccountant(0.01, 1.0)
        acct.record_steps(5)
        eps, delta = acct.privacy_spent(1e-6)
        assert delta == 1e-6
        assert eps > 0

    def test_negative_record_rejected(self):
        with pytest.raises(ValueError):
            RdpAccountant(0.01, 1.0).record_steps(-1)


class TestEpsilonForSteps:
    def test_zero_steps_spend_nothing(self):
        assert epsilon_for_steps(0.01, 1.0, 0, 1e-5) == 0.0

    def test_matches_direct_conversion(self):
        direct = rdp_to_epsilon(DEFAULT_ORDERS,
                                compute_rdp(0.02, 1.1, 300), 1e-5)[0]
        assert epsilon_for_steps(0.02, 1.1, 300, 1e-5) == \
            pytest.approx(direct)


class TestMaxStepsForBudget:
    def test_invalid_target(self):
        with pytest.raises(ValueError):
            max_steps_for_budget(0.01, 1.0, 0.0, 1e-5)

    def test_q_zero_is_unbounded(self):
        assert max_steps_for_budget(0.0, 1.0, 1.0, 1e-5,
                                    max_steps=777) == 777

    def test_sigma_zero_affords_nothing(self):
        assert max_steps_for_budget(0.01, 0.0, 3.0, 1e-5) == 0

    def test_cap_respected(self):
        assert max_steps_for_budget(0.001, 4.0, 50.0, 1e-5,
                                    max_steps=123) == 123

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.002, 0.05), sigma=st.floats(0.8, 3.0),
           target=st.floats(0.5, 8.0))
    def test_inverse_consistent_with_epsilon_for_steps(
            self, q, sigma, target):
        """The crossover property: the returned step count fits the
        budget and one more step would overshoot."""
        delta = 1e-5
        steps = max_steps_for_budget(q, sigma, target, delta,
                                     max_steps=5000)
        assert epsilon_for_steps(q, sigma, steps, delta) <= target
        if steps < 5000:
            assert epsilon_for_steps(q, sigma, steps + 1, delta) > target

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.002, 0.05), sigma=st.floats(0.8, 2.5),
           target=st.floats(0.5, 6.0))
    def test_monotone_in_sigma(self, q, sigma, target):
        """More noise buys at least as many steps."""
        fewer = max_steps_for_budget(q, sigma, target, 1e-5,
                                     max_steps=5000)
        more = max_steps_for_budget(q, sigma * 1.5, target, 1e-5,
                                    max_steps=5000)
        assert more >= fewer

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.002, 0.05), sigma=st.floats(0.8, 2.5),
           target=st.floats(0.5, 4.0))
    def test_monotone_in_target(self, q, sigma, target):
        loose = max_steps_for_budget(q, sigma, 2.0 * target, 1e-5,
                                     max_steps=5000)
        tight = max_steps_for_budget(q, sigma, target, 1e-5,
                                     max_steps=5000)
        assert loose >= tight

    def test_base_rdp_reduces_affordability(self):
        fresh = max_steps_for_budget(0.01, 1.0, 3.0, 1e-5)
        spent = compute_rdp(0.01, 1.0, 500)
        remaining = max_steps_for_budget(0.01, 1.0, 3.0, 1e-5,
                                         base_rdp=spent)
        assert remaining <= fresh - 500 + 1  # linear composition
        assert remaining < fresh

    def test_base_rdp_shape_validated(self):
        with pytest.raises(ValueError):
            max_steps_for_budget(0.01, 1.0, 3.0, 1e-5,
                                 base_rdp=np.zeros(3))

    def test_accountant_method_tracks_recorded_steps(self):
        target, delta = 3.0, 1e-5
        acct = RdpAccountant(0.01, 1.0)
        total = acct.max_steps_for_budget(target, delta)
        assert total == max_steps_for_budget(0.01, 1.0, target, delta)
        acct.record_steps(total)
        assert acct.epsilon(delta) <= target
        assert acct.max_steps_for_budget(target, delta) == 0


class TestNoiseCalibration:
    def test_inverse_property(self):
        """The calibrated sigma achieves (just under) the target."""
        target = 4.0
        sigma = noise_multiplier_for_epsilon(target, 1e-5, 0.02, 1000)
        rdp = compute_rdp(0.02, sigma, 1000)
        eps, _ = rdp_to_epsilon(DEFAULT_ORDERS, rdp, 1e-5)
        assert eps <= target
        assert eps > target * 0.8  # not wastefully noisy

    def test_tighter_target_needs_more_noise(self):
        loose = noise_multiplier_for_epsilon(8.0, 1e-5, 0.02, 1000)
        tight = noise_multiplier_for_epsilon(1.0, 1e-5, 0.02, 1000)
        assert tight > loose

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            noise_multiplier_for_epsilon(0.0, 1e-5, 0.02, 100)

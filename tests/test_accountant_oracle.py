"""The NumPy accountant against its SciPy oracle, bit for bit.

``repro.dpml.accountant`` replaces ``scipy.special.gammaln`` with a
table of ``log(n!)`` and ``scipy.special.logsumexp`` with its own
max-term-aside reduction.  Every per-step RDP value must equal the
SciPy formulas kept in ``tests/accountant_oracle.py`` exactly: the
moments accountant's ``epsilon`` feeds admission decisions, so one ulp
could flip a granted step count.
"""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import accountant_oracle as oracle
from repro.dpml import accountant
from repro.dpml.accountant import (
    DEFAULT_ORDERS,
    rdp_sampled_gaussian,
    rdp_table,
    step_rdp_rows,
)

#: Beyond ``DEFAULT_ORDERS``: the table grows on demand past 1024.
LARGE_ORDERS = (2048, 4096)
#: Fixed mechanisms: tiny and near-one sampling rates, small noise.
PAIRS = ((1e-9, 0.3), (1e-4, 0.5), (0.01, 1.1), (0.256, 0.8),
         (0.5, 2.0), (0.99, 4.0), (1.0 - 1e-9, 0.6), (0.003, 50.0))


def assert_bitwise(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64),
                                  expected.view(np.int64))


class TestLogFactorials:
    def test_table_matches_gammaln(self):
        n = np.arange(4097)
        assert_bitwise(accountant._log_factorials(4096),
                       special.gammaln(n + 1))

    @pytest.mark.parametrize("n", [12, 998, 999, 1000, 100_000, 2_718_281,
                                   10_000_000, 99_999_999, 100_000_000,
                                   10**9])
    def test_each_branch_matches_gammaln(self, n):
        """Both Stirling polynomials and the bare series (x > 1e8)."""
        assert_bitwise(accountant._log_factorial(n), special.gammaln(n + 1))


class TestLogsumexp:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        min_size=1, max_size=4),
        special_value=st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_matches_scipy(self, rows, special_value):
        """Ties (repeated maxima) and non-finite terms included."""
        width = max(map(len, rows))
        a = np.array([row + [row[0]] * (width - len(row)) for row in rows])
        if special_value is not None:
            a[0, -1] = special_value
        assert_bitwise(accountant._logsumexp(a),
                       special.logsumexp(a, axis=1))
        assert_bitwise(accountant._logsumexp(a[0]),
                       special.logsumexp(list(a[0])))


class TestRdpMatchesOracle:
    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, LARGE_ORDERS],
                             ids=["default", "large"])
    def test_table(self, orders):
        qs, sigmas = zip(*PAIRS)
        assert_bitwise(rdp_table(qs, sigmas, orders),
                       oracle.rdp_table(qs, sigmas, orders))

    @pytest.mark.parametrize("order", DEFAULT_ORDERS + LARGE_ORDERS)
    def test_scalar(self, order):
        for q, sigma in PAIRS[::3]:
            assert_bitwise(rdp_sampled_gaussian(q, sigma, order),
                           oracle.rdp_sampled_gaussian(q, sigma, order))

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(
        st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 0.999),
                  st.floats(0.999, 1.0, exclude_max=True)),
        st.one_of(st.floats(0.05, 0.5), st.floats(0.5, 50.0))),
        min_size=1, max_size=8))
    def test_hypothesis_grid(self, pairs):
        # Special rows ride along: free (q=0), Gaussian (q=1), infinite.
        qs = [q for q, _ in pairs] + [0.0, 1.0, 0.3]
        sigmas = [s for _, s in pairs] + [1.0, 0.7, 0.0]
        expected = oracle.rdp_table(qs, sigmas, DEFAULT_ORDERS)
        assert_bitwise(rdp_table(qs, sigmas), expected)
        with mock.patch.object(accountant, "_step_rdp_memo", OrderedDict()):
            assert_bitwise(step_rdp_rows(qs, sigmas), expected)
            assert_bitwise(step_rdp_rows(qs[::-1], sigmas[::-1]),
                           expected[::-1])

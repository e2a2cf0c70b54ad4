"""SciPy reference of the RDP accountant's special functions.

``repro.dpml.accountant`` computes ``log C(n, k)`` from its own table of
``log(n!)`` and reduces the log-terms with its own ``logsumexp``, so the
runtime needs only NumPy.  This module keeps the formulas as they were
written against ``scipy.special`` (``gammaln``, ``logsumexp``): the
tests pin the accountant to them bit for bit.  Nothing under ``src/``
imports this module, and SciPy is a test-only dependency.
"""

import math

import numpy as np
from scipy import special


def log_comb(n, k):
    return (special.gammaln(n + 1) - special.gammaln(k + 1)
            - special.gammaln(n - k + 1))


def rdp_sampled_gaussian(q, sigma, order):
    """RDP of one subsampled-Gaussian step, one Python term per ``k``."""
    if q == 0.0:
        return 0.0
    if sigma <= 0.0:
        return math.inf
    if q == 1.0:
        return order / (2.0 * sigma * sigma)
    log_terms = [
        log_comb(order, k)
        + (order - k) * math.log1p(-q)
        + k * math.log(q)
        + k * (k - 1) / (2.0 * sigma * sigma)
        for k in range(order + 1)
    ]
    return float(special.logsumexp(log_terms)) / (order - 1)


def rdp_table(qs, sigmas, orders):
    """Per-step RDP curves, one ``(pairs x order+1)`` grid per order."""
    qs = np.asarray(qs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    table = np.zeros((qs.size, len(orders)))
    infinite = (qs != 0.0) & (sigmas <= 0.0)
    table[infinite] = math.inf
    gaussian = (qs == 1.0) & ~infinite
    if gaussian.any():
        two_var = 2.0 * sigmas[gaussian] * sigmas[gaussian]
        table[gaussian] = np.array(orders)[None, :] / two_var[:, None]
    rows = np.nonzero((qs != 0.0) & (qs != 1.0) & ~infinite)[0]
    if rows.size == 0:
        return table
    log_1mq = np.array([math.log1p(-q) for q in qs[rows].tolist()])[:, None]
    log_q = np.array([math.log(q) for q in qs[rows].tolist()])[:, None]
    two_var = (2.0 * sigmas[rows] * sigmas[rows])[:, None]
    for col, order in enumerate(orders):
        k = np.arange(order + 1)
        log_terms = (log_comb(order, k) + (order - k) * log_1mq
                     + k * log_q + k * (k - 1) / two_var)
        table[rows, col] = special.logsumexp(log_terms, axis=1) / (order - 1)
    return table

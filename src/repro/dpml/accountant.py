"""Renyi differential privacy (RDP) accountant for DP-SGD.

Implements the moments/RDP accounting used by Abadi et al. and the
TensorFlow-Privacy / Opacus stacks: the subsampled Gaussian mechanism's
RDP at integer orders (Mironov et al., "Renyi Differential Privacy of
the Sampled Gaussian Mechanism", Theorem 5 / Eq. (3)) composed over
steps, then converted to an (epsilon, delta) guarantee.

For sampling rate ``q``, noise multiplier ``sigma`` and integer order
``alpha``::

    RDP(alpha) = log( sum_{k=0..alpha} C(alpha, k) (1-q)^(alpha-k) q^k
                      * exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

Special cases covered exactly: ``q == 0`` gives 0 (no data touched),
``q == 1`` reduces to the Gaussian mechanism's ``alpha / (2 sigma^2)``.

The two special functions it needs are written here in NumPy and
:mod:`math`, bit for bit equal to SciPy's (``tests/accountant_oracle.py``
keeps the SciPy formulas as the oracle): ``log C(n, k)`` reads a table
of ``log(n!)`` (:func:`_log_factorials`, Cephes ``lgam`` at the
integers) and the reduction over ``k`` is :func:`_logsumexp`, SciPy's
max-term-aside form.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

#: Default RDP orders, matching TF-Privacy's ladder.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 64)) + (
    128, 256, 512, 1024)


#: Cephes ``lgam``'s Stirling-series coefficients (``A``) and ``log(2 pi)/2``.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LS2PI = 0.91893853320467274178
#: ``_log_factorial_table[n] == log(n!)``; grown by :func:`_log_factorials`.
_log_factorial_table: list[float] = []


def _log_factorial(n: int) -> float:
    """``log(n!)``, bitwise ``scipy.special.gammaln(n + 1)``.

    Below 12 the factorial is exact, and Cephes ``lgam`` returns the log
    of that same product.  From 12 on it repeats ``lgam``'s Stirling
    branch at ``x = n + 1`` in the same operation order, with the libm
    ``log`` SciPy calls: the 5-term polynomial below ``x = 1000``, the
    3-term form from there, the bare series above ``1e8``.
    """
    if n < 12:
        return math.log(math.factorial(n))
    x = float(n + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        poly = poly * p + coef
    return q + poly / x


def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..n``, grown on demand and kept."""
    table = _log_factorial_table
    table.extend(map(_log_factorial, range(len(table), n + 1)))
    return np.array(table[:n + 1])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis, bitwise SciPy 1.17's.

    Every element equal to the maximum is set aside (``m`` of them),
    ``s`` sums ``exp(a - a_max)`` over the rest, and the result is
    ``log1p(s / m) + log(m) + a_max``.  Where that is not finite (an
    infinite or NaN term), the row is ``log(sum(exp(a)))`` as in SciPy.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=-1, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max),
                   axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        direct = ~np.isfinite(out[..., 0])
        if direct.any():
            out[direct] = np.log(np.sum(np.exp(a[direct]), axis=-1,
                                        keepdims=True))
    return out[..., 0]


def rdp_sampled_gaussian(q: float, sigma: float, order: int) -> float:
    """RDP of one subsampled-Gaussian step at an integer ``order``: the
    one-entry :func:`rdp_table`."""
    return float(rdp_table([q], [sigma], (order,))[0, 0])


def rdp_table(qs: ArrayLike, sigmas: ArrayLike,
              orders: tuple[int, ...] = DEFAULT_ORDERS) -> np.ndarray:
    """Per-step RDP of many mechanisms: ``(len(qs), len(orders))``.

    Row ``i`` is the curve of ``(qs[i], sigmas[i])`` over ``orders``:
    each order's log-terms ``log C(a, k) + (a - k) log(1 - q) + k log q
    + k (k - 1) / (2 sigma^2)`` form one ``(pairs x order+1)`` grid,
    evaluated in that operation order and reduced by one row-wise
    :func:`_logsumexp`.  The logs of ``q`` come from :mod:`math` per
    pair, because NumPy's ``log``/``log1p`` can differ from them by an
    ulp.
    """
    qs = np.asarray(qs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    bad = ~((qs >= 0.0) & (qs <= 1.0))
    if bad.any():
        raise ValueError(
            f"sampling rate must be in [0, 1], got {qs[bad][0]}")
    for order in orders:
        if order < 2 or int(order) != order:
            raise ValueError(f"order must be an integer >= 2, got {order}")
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
    log_fact = _log_factorials(int(max(orders, default=0)))
    for col, order in enumerate(orders):
        order = int(order)
        k = np.arange(order + 1)
        log_comb = log_fact[order] - log_fact[k] - log_fact[order - k]
        log_terms = (log_comb + (order - k) * log_1mq + k * log_q
                     + k * (k - 1) / two_var)
        table[rows, col] = _logsumexp(log_terms) / (order - 1)
    return table


#: Most distinct ``(q, sigma, orders)`` per-step curves kept memoized.
_STEP_RDP_MEMO_SIZE = 512
_step_rdp_memo: OrderedDict[tuple[float, float, tuple[int, ...]],
                            tuple[float, ...]] = OrderedDict()


def step_rdp_rows(qs: ArrayLike, sigmas: ArrayLike,
                  orders: tuple[int, ...] = DEFAULT_ORDERS) -> np.ndarray:
    """Memoized per-step RDP curves, one row per ``(q, sigma)`` pair.

    The curve is the expensive part of accounting (~66 orders with up
    to ``order + 1`` logsumexp terms each) and admission control /
    budget searches evaluate it for the same handful of mechanism
    parameters over and over.  Pairs missing from the LRU memo are
    priced together in one :func:`rdp_table` call; memo entries are
    tuples so a hit can never alias a mutable array.
    """
    orders = tuple(orders)
    keys = [(q, sigma, orders) for q, sigma in
            zip(np.asarray(qs, dtype=float).tolist(),
                np.asarray(sigmas, dtype=float).tolist())]
    missing = [key for key in dict.fromkeys(keys)
               if key not in _step_rdp_memo]
    if missing:
        fresh = rdp_table([key[0] for key in missing],
                          [key[1] for key in missing], orders)
        _step_rdp_memo.update(zip(missing, map(tuple, fresh.tolist())))
    rows = np.array([_step_rdp_memo[key] for key in keys],
                    dtype=float).reshape(len(keys), len(orders))
    for key in keys:
        _step_rdp_memo.move_to_end(key)
    while len(_step_rdp_memo) > _STEP_RDP_MEMO_SIZE:
        _step_rdp_memo.popitem(last=False)
    return rows


def _single_step_rdp(q: float, sigma: float,
                     orders: tuple[int, ...]) -> tuple[float, ...]:
    """One step's RDP curve: a row of :func:`step_rdp_rows`' memo."""
    key = (q, sigma, orders)
    if key in _step_rdp_memo:
        _step_rdp_memo.move_to_end(key)
    else:
        step_rdp_rows([q], [sigma], orders)
    return _step_rdp_memo[key]


def compute_rdp(q: float, sigma: float, steps: int,
                orders: tuple[int, ...] = DEFAULT_ORDERS) -> np.ndarray:
    """RDP of ``steps`` composed subsampled-Gaussian mechanisms."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return steps * np.array(_single_step_rdp(q, sigma, tuple(orders)))


def rdp_to_epsilon(orders: tuple[int, ...], rdp: np.ndarray,
                   delta: float) -> tuple[float, int]:
    """Convert an RDP curve to ``(epsilon, best_order)`` at ``delta``.

    Uses the standard conversion
    ``epsilon = RDP(alpha) + log(1/delta) / (alpha - 1)`` minimized over
    the available orders.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rdp = np.asarray(rdp, dtype=float)
    if rdp.shape != (len(orders),):
        raise ValueError("orders and rdp must align")
    epsilons = rdp + math.log(1.0 / delta) / (np.array(orders) - 1.0)
    best = int(np.argmin(epsilons))
    return float(epsilons[best]), orders[best]


@dataclass
class RdpAccountant:
    """Tracks the cumulative privacy cost of a DP-SGD training run.

    Parameters
    ----------
    sampling_rate:
        Per-step probability each example is included (``B / N`` under
        Poisson sampling).
    noise_multiplier:
        ``sigma`` of Algorithm 1.
    """

    sampling_rate: float
    noise_multiplier: float
    orders: tuple[int, ...] = DEFAULT_ORDERS
    steps: int = 0
    _rdp: np.ndarray = field(default=None, repr=False)  # type: ignore

    def __post_init__(self) -> None:
        if self._rdp is None:
            self._rdp = np.zeros(len(self.orders))
        self._per_step = compute_rdp(
            self.sampling_rate, self.noise_multiplier, 1, self.orders)

    def record_steps(self, steps: int = 1) -> None:
        """Account for ``steps`` more DP-SGD iterations."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.steps += steps
        self._rdp = self._rdp + steps * self._per_step

    def epsilon(self, delta: float) -> float:
        """Current ``epsilon`` at the given ``delta``."""
        if self.steps == 0:
            return 0.0
        eps, _ = rdp_to_epsilon(self.orders, self._rdp, delta)
        return eps

    def privacy_spent(self, delta: float) -> tuple[float, float]:
        """The ``(epsilon, delta)`` pair reported by Algorithm 1."""
        return self.epsilon(delta), delta

    def max_steps_for_budget(self, target_epsilon: float, delta: float,
                             max_steps: int = 1_000_000) -> int:
        """How many *more* steps fit inside ``(target_epsilon, delta)``.

        Accounts for the steps already recorded: the returned count is
        the remaining affordable budget, not the total from scratch.
        See :func:`max_steps_for_budget` for the search itself.
        """
        return max_steps_for_budget(
            self.sampling_rate, self.noise_multiplier, target_epsilon,
            delta, orders=self.orders, base_rdp=self._rdp,
            max_steps=max_steps)


def epsilon_for_steps(q: float, sigma: float, steps: int, delta: float,
                      orders: tuple[int, ...] = DEFAULT_ORDERS) -> float:
    """``epsilon`` after ``steps`` subsampled-Gaussian iterations.

    Zero steps spend zero budget (matching
    :meth:`RdpAccountant.epsilon`, which special-cases the fresh
    accountant rather than reporting the RDP conversion's
    ``log(1/delta) / (alpha - 1)`` floor).
    """
    if steps == 0:
        return 0.0
    rdp = compute_rdp(q, sigma, steps, orders)
    return rdp_to_epsilon(orders, rdp, delta)[0]


def max_steps_for_budget(
    q: float,
    sigma: float,
    target_epsilon: float,
    delta: float,
    *,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    base_rdp: np.ndarray | None = None,
    max_steps: int = 1_000_000,
) -> int:
    """Largest step count whose ``epsilon`` stays within a budget.

    Binary search over the step axis: ``epsilon`` is nondecreasing in
    steps (RDP composes additively and the conversion is monotone), so
    the answer is the unique crossover.  Returns ``max_steps`` when
    even that many steps fit the budget (``q == 0`` never spends
    anything) and ``0`` when a single step already overshoots
    (``sigma <= 0`` has infinite per-step cost).

    ``base_rdp`` is an already-spent RDP curve over ``orders`` (e.g.
    from previous jobs of the same tenant): the search then returns
    the *additional* affordable steps.  This is what
    :meth:`RdpAccountant.max_steps_for_budget` and the serving layer's
    admission control use.
    """
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be positive")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    per_step = compute_rdp(q, sigma, 1, orders)
    base = (np.zeros(len(orders)) if base_rdp is None
            else np.asarray(base_rdp, dtype=float))
    if base.shape != (len(orders),):
        raise ValueError("base_rdp must align with orders")

    def eps(steps: int) -> float:
        # `steps == 0` must not touch per_step: 0 * inf (sigma <= 0)
        # would poison the curve with NaNs.
        rdp = base if steps == 0 else base + steps * per_step
        if not np.any(rdp):
            return 0.0
        return rdp_to_epsilon(orders, rdp, delta)[0]

    if eps(0) > target_epsilon:
        return 0
    if eps(max_steps) <= target_epsilon:
        return max_steps
    low, high = 0, max_steps  # eps(low) <= target < eps(high)
    while high - low > 1:
        mid = (low + high) // 2
        if eps(mid) <= target_epsilon:
            low = mid
        else:
            high = mid
    return low


def noise_multiplier_for_epsilon(
    target_epsilon: float,
    delta: float,
    sampling_rate: float,
    steps: int,
    lower: float = 0.3,
    upper: float = 64.0,
) -> float:
    """Smallest noise multiplier achieving ``target_epsilon`` (bisection)."""
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be positive")

    def eps(sigma: float) -> float:
        rdp = compute_rdp(sampling_rate, sigma, steps)
        return rdp_to_epsilon(DEFAULT_ORDERS, rdp, delta)[0]

    if eps(upper) > target_epsilon:
        raise ValueError("target epsilon unreachable within sigma bounds")
    for _ in range(60):
        mid = 0.5 * (lower + upper)
        if eps(mid) > target_epsilon:
            lower = mid
        else:
            upper = mid
    return upper

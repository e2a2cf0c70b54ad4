"""Per-tenant privacy-budget admission control.

Every tenant owns an ``(epsilon, delta)`` budget in the sense of Abadi
et al.'s moments accounting: each admitted job appends
``steps x RDP(q, sigma)`` to the tenant's cumulative RDP curve, and a
job is only admitted if the curve's ``(epsilon, delta)`` conversion
stays inside the budget *after* the job runs.  Because jobs of one
tenant may mix sampling rates and noise multipliers, the ledger
composes raw RDP curves (which add across heterogeneous mechanisms)
rather than reusing a fixed-``(q, sigma)``
:class:`~repro.dpml.accountant.RdpAccountant`.

Decisions are made at *arrival* and the budget is reserved
immediately, so two queued jobs of one tenant can never jointly
overspend no matter which scheduling policy later runs them first.
A job that does not fit in full is truncated to the largest affordable
step count (:func:`repro.dpml.accountant.max_steps_for_budget`) when
truncation is allowed, and rejected outright otherwise.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass

from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.arch.batch import unique_rows
from repro.dpml.accountant import (
    DEFAULT_ORDERS,
    compute_rdp,
    max_steps_for_budget,
    rdp_to_epsilon,
    step_rdp_rows,
)
from repro.serve.job import TraceArrays

#: Jobs per chunk of the batched admission prefix pass — bounds the
#: cumulative-RDP scratch matrix regardless of trace length.
_ADMIT_CHUNK = 1024


@dataclass(frozen=True)
class TenantBudget:
    """One tenant's lifetime ``(epsilon, delta)`` allowance."""

    epsilon: float
    delta: float = 1e-5

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(
                f"budget epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(
                f"budget delta must be in (0, 1), got {self.delta}")


class AdmissionStatus(enum.Enum):
    """Outcome of one admission decision."""

    ADMITTED = "admitted"
    TRUNCATED = "truncated"
    REJECTED = "rejected"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller granted, and what it cost.

    ``granted_steps`` is ``job.steps`` for a full admit, the truncated
    count for a partial one, and 0 for a rejection.  ``epsilon_after``
    is the tenant's cumulative spend once the grant is reserved.
    """

    status: AdmissionStatus
    granted_steps: int
    epsilon_cost: float
    epsilon_after: float

    @property
    def admitted(self) -> bool:
        return self.status is not AdmissionStatus.REJECTED


@dataclass(frozen=True)
class BatchAdmissionDecisions:
    """Struct-of-arrays outcome of :meth:`AdmissionController.admit_batch`.

    ``status`` uses the integer codes below; ``epsilon_after`` is the
    tenant's cumulative spend once the job's grant is reserved (the
    scalar decision's ``epsilon_after``), which the streaming
    scheduler's budget policy reads as the tenant's position at each
    arrival.
    """

    ADMITTED = 0
    TRUNCATED = 1
    REJECTED = 2

    status: NDArray[Any]
    granted_steps: NDArray[Any]
    epsilon_after: NDArray[Any]

    def __len__(self) -> int:
        return self.status.shape[0]

    @property
    def admitted(self) -> NDArray[Any]:
        """Mask of jobs that received any grant."""
        return self.status != self.REJECTED


class AdmissionController:
    """RDP ledger + admit/truncate/reject gate over a stream of jobs.

    Parameters
    ----------
    budget:
        Either one :class:`TenantBudget` applied to every tenant, or a
        mapping ``tenant -> TenantBudget`` (tenants absent from the
        mapping fall back to ``default_budget``).
    default_budget:
        Fallback for tenants missing from a ``budget`` mapping.
    allow_truncation:
        When True (default), a job that does not fit in full is cut to
        the largest affordable step count instead of rejected.
    orders:
        RDP orders the ledger composes over.
    """

    def __init__(
        self,
        budget: TenantBudget | Mapping[str, TenantBudget] | None = None,
        *,
        default_budget: TenantBudget | None = None,
        allow_truncation: bool = True,
        orders: tuple[int, ...] = DEFAULT_ORDERS,
    ) -> None:
        if budget is None:
            budget = TenantBudget(epsilon=3.0)
        if isinstance(budget, TenantBudget):
            self._default = budget
            self._overrides: dict[str, TenantBudget] = {}
        else:
            self._default = default_budget or TenantBudget(epsilon=3.0)
            self._overrides = dict(budget)
        self.allow_truncation = allow_truncation
        self.orders = orders
        self._rdp: dict[str, NDArray[Any]] = {}
        #: ``epsilon_spent`` per tenant, computed on the first read after
        #: a ledger write (``_set_ledger`` drops the stale value).
        self._epsilon: dict[str, float] = {}
        self._counts: dict[str, dict[str, int]] = {}

    def budget_for(self, tenant: str) -> TenantBudget:
        return self._overrides.get(tenant, self._default)

    def _set_ledger(self, tenant: str, rdp: NDArray[Any]) -> None:
        """Write ``tenant``'s RDP ledger.  Every ledger write goes through
        here, so the cached ``epsilon`` can never outlive its ledger."""
        self._rdp[tenant] = rdp
        self._epsilon.pop(tenant, None)

    def epsilon_spent(self, tenant: str) -> float:
        """Tenant's cumulative ``epsilon`` at its own ``delta``."""
        spent = self._epsilon.get(tenant)
        if spent is None:
            rdp = self._rdp.get(tenant)
            spent = (rdp_to_epsilon(self.orders, rdp,
                                    self.budget_for(tenant).delta)[0]
                     if rdp is not None and np.any(rdp) else 0.0)
            self._epsilon[tenant] = spent
        return spent

    def remaining_fraction(self, tenant: str) -> float:
        """Unspent share of the tenant's epsilon budget, in [0, 1]."""
        budget = self.budget_for(tenant)
        return max(0.0, 1.0 - self.epsilon_spent(tenant) / budget.epsilon)

    def seen_tenants(self) -> tuple[str, ...]:
        """Tenants that submitted at least one job, in first-seen order."""
        return tuple(self._counts)

    def counts(self, tenant: str) -> dict[str, int]:
        """``{admitted, truncated, rejected}`` tallies for ``tenant``."""
        return dict(self._counts.get(
            tenant, {"admitted": 0, "truncated": 0, "rejected": 0}))

    # -- crash/retry ledger transactions --------------------------------------

    def reprice_steps(self, tenant: str, sampling_rate: float,
                      noise_multiplier: float, steps: int) -> int:
        """Reserve up to ``steps`` extra mechanism executions for ``tenant``.

        Called when a crash discards work past the last checkpoint: the
        lost steps already executed (their noise was released), so their
        reservation stays spent, and re-running them needs a *fresh*
        grant.  Prices the request against the tenant's remaining
        budget and returns the granted count in ``[0, steps]`` —
        possibly smaller than asked, never larger, so the ledger can
        only move toward the budget cap, never past it.
        """
        if steps <= 0:
            return 0
        base = self._rdp.get(tenant)
        budget = self.budget_for(tenant)
        granted = max_steps_for_budget(
            sampling_rate, noise_multiplier, budget.epsilon,
            budget.delta, orders=self.orders, base_rdp=base,
            max_steps=steps)
        if granted <= 0:
            return 0
        per_step = compute_rdp(sampling_rate, noise_multiplier,
                               1, self.orders)
        if base is None:
            base = np.zeros(len(self.orders))
        self._set_ledger(tenant, base + granted * per_step)
        return granted

    def refund_steps(self, tenant: str, sampling_rate: float,
                     noise_multiplier: float, steps: int) -> None:
        """Return ``steps`` reserved-but-never-executed steps to the ledger.

        Only reservations whose noise was never released may be
        refunded (e.g. the un-run tail of a job abandoned after its
        retry cap).  The subtraction mirrors the reservation's
        ``steps x per-step`` RDP exactly; clipping at zero only absorbs
        float round-off, so a refund can never mint budget.
        """
        if steps <= 0:
            return
        base = self._rdp.get(tenant)
        if base is None:
            return
        per_step = compute_rdp(sampling_rate, noise_multiplier,
                               1, self.orders)
        self._set_ledger(tenant, np.maximum(base - steps * per_step, 0.0))

    # -- batched (trace-at-once) admission -----------------------------------

    def admit_batch(self, trace: TraceArrays) -> "BatchAdmissionDecisions":
        """Decide a whole trace at once, decision-identical to the
        scalar oracle in ``tests/`` (one job at a time, in arrival
        order).

        Ledger updates are inherently sequential within a tenant (each
        grant changes the RDP base every later decision sees), but two
        regimes vectorize: runs of *full admits* resolve through a
        chunked prefix-cumulative RDP pass (each prefix row is exactly
        the ledger the scalar path would have held), and runs of
        *rejections* — the steady state once a tenant's budget is
        exhausted — never touch the ledger, so a whole run classifies
        against one fixed base in a single pass over the distinct
        ``(sampling rate, sigma, steps)`` mechanism shapes.  Only
        truncations (rare: each one pushes the tenant to the budget
        edge) fall back to the scalar binary search.  Every
        floating-point expression repeats the scalar path's operation
        order, so the decisions (and the final per-tenant ledgers and
        tallies) are identical, not merely close.

        Updates this controller's ledger/tally state exactly as
        deciding the jobs one by one, in arrival order, would.
        """
        n = len(trace)
        status = np.full(n, BatchAdmissionDecisions.REJECTED,
                         dtype=np.int8)
        granted = np.zeros(n, dtype=np.int64)
        eps_after = np.zeros(n, dtype=float)
        if n == 0:
            return BatchAdmissionDecisions(status, granted, eps_after)

        is_private = trace.is_private
        unique_pairs, class_of = unique_rows(trace.sampling_rate,
                                             trace.noise_multiplier)
        per_step_table = step_rdp_rows(unique_pairs[:, 0],
                                       unique_pairs[:, 1], self.orders)

        # Tenants register in first-arrival order (scalar setdefault).
        _, first_seen = np.unique(trace.tenant, return_index=True)
        for code in trace.tenant[np.sort(first_seen)].tolist():
            self._admit_tenant_batch(
                trace, int(code), is_private, class_of, per_step_table,
                status, granted, eps_after)
        return BatchAdmissionDecisions(status, granted, eps_after)

    def _admit_tenant_batch(
        self, trace: TraceArrays, code: int, is_private: NDArray[Any],
        class_of: NDArray[Any], per_step_table: NDArray[Any],
        status: NDArray[Any], granted: NDArray[Any], eps_after: NDArray[Any],
    ) -> None:
        """Replay one tenant's jobs (arrival order) against its ledger."""
        name = trace.tenants[code]
        tally = self._counts.setdefault(
            name, {"admitted": 0, "truncated": 0, "rejected": 0})
        budget = self.budget_for(name)
        target = budget.epsilon
        log_term = math.log(1.0 / budget.delta) / (
            np.array(self.orders) - 1.0)

        jobs = np.nonzero(trace.tenant == code)[0]
        total = len(jobs)
        private = is_private[jobs]
        steps = trace.steps[jobs]
        classes = class_of[jobs]
        base = self._rdp.get(name)
        ledger = (np.zeros(len(self.orders)) if base is None
                  else np.asarray(base, dtype=float))

        def eps_of(rdp: NDArray[Any]) -> float:
            """Scalar ``epsilon`` of one RDP curve (the rdp_to_epsilon
            formula, with its all-zero special case)."""
            if not np.any(rdp):
                return 0.0
            return float(np.min(rdp + log_term))

        spent = eps_of(ledger)
        # Prefix rows never decrease when no increment or ledger entry
        # is negative, so a nonzero row stays nonzero.  Tiny sampling
        # rates (q below about 1e-10) round some per-step entries to
        # about -1e-31, so the signs are checked, not assumed.
        monotone = bool((per_step_table >= 0.0).all()
                        and (ledger >= 0.0).all())
        shifted = np.empty((min(total, _ADMIT_CHUNK), len(self.orders)))
        admitted_code = BatchAdmissionDecisions.ADMITTED
        rejected_code = BatchAdmissionDecisions.REJECTED

        def resolve_fixed(lo: int, hi: int) -> None:
            """Jobs [lo, hi) under an unchanged ledger: private ->
            rejected, non-private -> admitted."""
            seg = jobs[lo:hi]
            mask = private[lo:hi]
            status[seg[~mask]] = admitted_code
            granted[seg[~mask]] = steps[lo:hi][~mask]
            eps_after[seg] = spent
            tally["rejected"] += int(mask.sum())
            tally["admitted"] += int((~mask).sum())

        pos = 0
        while pos < total:
            if spent > target:
                # Scalar guard: eps(0) already overshoots, nothing
                # private ever fits again.
                resolve_fixed(pos, total)
                return

            # -- A: maximal run of sequential full admits ------------------
            blocked = -1
            while pos < total and blocked < 0:
                hi = min(pos + _ADMIT_CHUNK, total)
                chunk_priv = pos + np.nonzero(private[pos:hi])[0]
                if chunk_priv.size == 0:
                    seg = jobs[pos:hi]
                    status[seg] = admitted_code
                    granted[seg] = steps[pos:hi]
                    eps_after[seg] = spent
                    tally["admitted"] += hi - pos
                    pos = hi
                    continue
                # The chunk's increments, in place in one gathered
                # matrix; row 0 takes the ledger (``inc0 + ledger`` is
                # bitwise ``ledger + inc0``).  Left-associated prefix
                # sums: row j is then bitwise the ledger the scalar
                # path holds after fully granting the first j+1
                # private jobs of the chunk.
                cumulative = per_step_table[classes[chunk_priv]]
                np.multiply(cumulative, steps[chunk_priv, None],
                            out=cumulative)
                cumulative[0] += ledger
                np.cumsum(cumulative, axis=0, out=cumulative)
                eps_cum = np.add(cumulative, log_term,
                                 out=shifted[:len(chunk_priv)]).min(axis=1)
                if not (monotone and cumulative[0].any()):
                    # Only an all-zero row converts to epsilon 0; with
                    # nonnegative increments, none follows a nonzero
                    # row 0.
                    eps_cum = np.where(np.any(cumulative, axis=1),
                                       eps_cum, 0.0)
                over = eps_cum > target
                fits = int(np.argmax(over)) if over.any() \
                    else len(chunk_priv)
                stop = int(chunk_priv[fits]) if fits < len(chunk_priv) \
                    else hi
                spent_at_start = spent
                span = np.arange(pos, stop)
                mask = private[pos:stop]
                if fits > 0:
                    admitted_priv = chunk_priv[:fits]
                    pj = jobs[admitted_priv]
                    status[pj] = admitted_code
                    granted[pj] = steps[admitted_priv]
                    eps_after[pj] = eps_cum[:fits]
                    tally["admitted"] += fits
                    ledger = cumulative[fits - 1]
                    self._set_ledger(name, ledger)
                    spent = float(eps_cum[fits - 1])
                nj = jobs[span[~mask]]
                status[nj] = admitted_code
                granted[nj] = steps[span[~mask]]
                if fits > 0:
                    before = np.searchsorted(chunk_priv[:fits],
                                             span[~mask])
                    eps_after[nj] = np.where(
                        before > 0,
                        eps_cum[np.maximum(before - 1, 0)],
                        spent_at_start)
                else:
                    eps_after[nj] = spent_at_start
                tally["admitted"] += int((~mask).sum())
                pos = stop
                if fits < len(chunk_priv):
                    blocked = stop
            if blocked < 0:
                return

            # -- B: the blocked private job: truncate or reject ------------
            job = int(jobs[blocked])
            per_step = per_step_table[int(classes[blocked])]
            want = int(steps[blocked])
            if self.allow_truncation and \
                    eps_of(ledger + 1 * per_step) <= target:
                low, high = 0, want  # eps(low) <= target < eps(high)
                while high - low > 1:
                    mid = (low + high) // 2
                    if eps_of(ledger + mid * per_step) <= target:
                        low = mid
                    else:
                        high = mid
                ledger = ledger + low * per_step
                self._set_ledger(name, ledger)
                spent = eps_of(ledger)
                status[job] = BatchAdmissionDecisions.TRUNCATED
                granted[job] = low
                eps_after[job] = spent
                tally["truncated"] += 1
                pos = blocked + 1
                continue
            status[job] = rejected_code
            eps_after[job] = spent
            tally["rejected"] += 1
            pos = blocked + 1
            if pos >= total:
                return

            # -- C: fixed-ledger scan to the next eligible private job -----
            remaining = np.arange(pos, total)
            rem_priv = remaining[private[pos:]]
            if rem_priv.size == 0:
                seg = jobs[pos:]
                status[seg] = admitted_code
                granted[seg] = steps[pos:]
                eps_after[seg] = spent
                tally["admitted"] += total - pos
                return
            unique_keys, inverse = unique_rows(classes[rem_priv],
                                               steps[rem_priv])
            rdp_full = (ledger + unique_keys[:, 1][:, None]
                        * per_step_table[unique_keys[:, 0]])
            eps_full = np.where(
                np.any(rdp_full, axis=1),
                np.min(rdp_full + log_term, axis=1), 0.0)
            ok_full = eps_full[inverse] <= target
            unique_classes = np.unique(classes[rem_priv])
            rdp_one = ledger + 1 * per_step_table[unique_classes]
            eps_one = np.where(
                np.any(rdp_one, axis=1),
                np.min(rdp_one + log_term, axis=1), 0.0)
            ok_one = eps_one[np.searchsorted(
                unique_classes, classes[rem_priv])] <= target
            eligible = ok_full | (self.allow_truncation & ok_one)
            next_eligible = (int(rem_priv[np.argmax(eligible)])
                             if eligible.any() else total)
            resolve_fixed(pos, next_eligible)
            pos = next_eligible
            # The loop re-enters regime A (full admit) or B (truncate)
            # for the eligible job under the unchanged ledger.

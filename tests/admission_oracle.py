"""Plain-Python reference of privacy-budget admission: one job at a time.

``AdmissionController.admit_batch`` decides a whole trace in array
passes.  :class:`ScalarAdmission` keeps the per-job decision
``AdmissionController.admit`` made before admission became batch-only,
so the tests can pin the batched ledger, its tallies and the fleet's
decisions against it.  Nothing under ``src/`` imports this module.
"""

import numpy as np

from repro.dpml.accountant import compute_rdp, max_steps_for_budget
from repro.serve import AdmissionController
from repro.serve.budget import AdmissionDecision, AdmissionStatus


class ScalarAdmission(AdmissionController):
    """An :class:`AdmissionController` that also decides single jobs."""

    def admit(self, job):
        """Decide on ``job`` and reserve any granted budget."""
        tally = self._counts.setdefault(
            job.tenant, {"admitted": 0, "truncated": 0, "rejected": 0})
        base = self._rdp.get(job.tenant)
        if not job.is_private:
            # Non-private jobs never touch the ledger.
            tally["admitted"] += 1
            spent = self.epsilon_spent(job.tenant)
            return AdmissionDecision(
                AdmissionStatus.ADMITTED, job.steps, 0.0, spent)

        budget = self.budget_for(job.tenant)
        spent_before = self.epsilon_spent(job.tenant)
        affordable = max_steps_for_budget(
            job.sampling_rate, job.noise_multiplier, budget.epsilon,
            budget.delta, orders=self.orders, base_rdp=base,
            max_steps=job.steps)
        if affordable >= job.steps:
            status, granted = AdmissionStatus.ADMITTED, job.steps
        elif self.allow_truncation and affordable >= 1:
            status, granted = AdmissionStatus.TRUNCATED, affordable
        else:
            tally["rejected"] += 1
            return AdmissionDecision(
                AdmissionStatus.REJECTED, 0, 0.0, spent_before)

        per_step = compute_rdp(job.sampling_rate, job.noise_multiplier,
                               1, self.orders)
        if base is None:
            base = np.zeros(len(self.orders))
        self._set_ledger(job.tenant, base + granted * per_step)
        spent_after = self.epsilon_spent(job.tenant)
        tally["admitted" if status is AdmissionStatus.ADMITTED
              else "truncated"] += 1
        return AdmissionDecision(
            status, granted, spent_after - spent_before, spent_after)

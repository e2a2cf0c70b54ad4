"""Multi-tenant fleet serving: schedule a DP-training job trace onto a
pool of DiVa clusters under privacy-budget admission control.

Run:
    python examples/fleet_serving.py [trace_jobs]

Walks through the whole repro.serve stack: generate a seeded Poisson
trace, price each job against its tenant's (epsilon, delta) budget,
replay the trace under every scheduling policy, and compare the fleet
reports.  Also shows what a single job costs in epsilon and how
truncation rescues a job the full request would overspend.
"""

import sys

from repro.dpml import epsilon_for_steps, max_steps_for_budget
from repro.serve import (
    AdmissionController,
    FleetConfig,
    TenantBudget,
    TraceConfig,
    generate_trace_arrays,
    simulate_fleet_streaming,
)
from repro.serve.metrics import render_tenant_table


def main(trace_jobs: int = 60) -> None:
    # -- 1. one job's privacy price ------------------------------------
    q, sigma, steps, delta = 256 / 20_000, 1.0, 1500, 1e-5
    eps = epsilon_for_steps(q, sigma, steps, delta)
    print(f"A {steps}-step job at q={q:.4f}, sigma={sigma} costs "
          f"epsilon={eps:.2f} (delta={delta})")
    budget = 2.0
    afford = max_steps_for_budget(q, sigma, budget, delta)
    print(f"Under a {budget:.1f}-epsilon budget only {afford} of those "
          f"steps are affordable — admission would truncate it.\n")

    # -- 2. a synthetic multi-tenant trace -----------------------------
    config = TraceConfig(jobs=trace_jobs)
    trace = generate_trace_arrays(config)
    private = int(trace.is_private.sum())
    print(f"Trace: {len(trace)} jobs from {config.n_tenants} tenants "
          f"({private} private), models {', '.join(config.models)}, "
          f"mean inter-arrival {config.mean_interarrival_s:.0f} s")

    # -- 3. replay under each policy -----------------------------------
    fleet = FleetConfig(chips=4, chips_per_cluster=1)
    print(f"Fleet: {fleet.chips} chips as {fleet.n_clusters} clusters\n")
    header = (f"{'Policy':8s}{'Done':>6s}{'Trunc':>7s}{'Rej':>6s}"
              f"{'p95 wait':>10s}{'Util':>7s}")
    print(header)
    last = None
    for policy in ("fifo", "sjf", "budget"):
        admission = AdmissionController(TenantBudget(epsilon=3.0))
        report = simulate_fleet_streaming(trace, fleet, policy=policy,
                                          admission=admission)
        print(f"{policy:8s}{report.completed:6d}{report.truncated:7d}"
              f"{report.rejected:6d}{report.wait_p95_s:9.1f}s"
              f"{report.utilization * 100:6.1f}%")
        last = report

    # -- 4. the budget ledger (identical across policies) --------------
    print()
    print(render_tenant_table(last.tenants))
    over = [t for t in last.tenants if not t.within_budget]
    print(f"\nTenants over budget: {len(over)} (admission control "
          "guarantees zero)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 60)

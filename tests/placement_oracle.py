"""Plain-Python reference of the placement planner: the per-candidate oracle.

``plan_placement`` and the fault path's degraded replicas price their
plans through one ``price_plans`` call.  This module keeps them the way
they were before, so the tests can pin the batched pricer against
them:

* :func:`plan_placement` — the search that built a whole ``Cluster``
  and ran one ``simulate_sharded_training_step`` per DP x PP x TP
  candidate, body verbatim;
* :func:`degraded_step_s` — ``FaultRun._degraded_step_s``'s lookup,
  one full :func:`plan_placement` search per ``dp' < dp`` with a
  swallowed ``ValueError``, body verbatim (``self.fleet`` is the
  ``fleet`` argument, and there is no memo).

Nothing under ``src/`` imports this module.
"""

import math

from repro.training.memory import (
    DEFAULT_CAPACITY_BYTES, DEFAULT_RESERVED_FRACTION,
)
from repro.training.plan import PlacementResult, PlanCandidate, _factorizations


def plan_placement(
    network,
    algorithm,
    n_chips,
    global_batch,
    *,
    kind="diva",
    capacity_bytes=DEFAULT_CAPACITY_BYTES,
    reserved_fraction=DEFAULT_RESERVED_FRACTION,
    topology="ring",
    bucket_bytes=None,
    chips_per_node=1,
    fabric=None,
    overlap=True,
):
    """Search DP x PP x TP placements of one workload on ``n_chips``,
    one simulated candidate at a time."""
    from repro.arch.interconnect import InterconnectConfig, fabric_named
    from repro.core.diva import build_cluster
    from repro.training.parallel import stage_memory_breakdown
    from repro.training.simulate import simulate_sharded_training_step

    if n_chips < 1:
        raise ValueError(f"n_chips must be >= 1, got {n_chips}")
    if global_batch < 1:
        raise ValueError(
            f"global batch must be positive, got {global_batch}")
    if isinstance(fabric, str):
        fabric = fabric_named(fabric)
    cluster = build_cluster(
        kind=kind, n_chips=n_chips,
        interconnect=InterconnectConfig(
            topology=topology, bucket_bytes=bucket_bytes,
            chips_per_node=chips_per_node, fabric=fabric))
    budget = int(capacity_bytes * (1.0 - reserved_fraction))
    n_layers = len(network.layers)
    candidates: list[PlanCandidate] = []
    for plan in _factorizations(n_chips):
        if global_batch % plan.dp:
            candidates.append(PlanCandidate(
                plan, False,
                f"global batch {global_batch} not divisible by "
                f"dp={plan.dp}", math.inf, 0))
            continue
        if plan.pp > n_layers:
            candidates.append(PlanCandidate(
                plan, False,
                f"pp={plan.pp} exceeds the {n_layers}-layer network",
                math.inf, 0))
            continue
        if (topology == "hierarchical" and plan.dp > 1
                and plan.dp % chips_per_node):
            candidates.append(PlanCandidate(
                plan, False,
                f"dp={plan.dp} does not group into hierarchical nodes "
                f"of {chips_per_node}", math.inf, 0))
            continue
        report = simulate_sharded_training_step(
            network, algorithm, cluster, global_batch, plan=plan,
            overlap=overlap)
        bounds = report.stage_bounds or (0, n_layers)
        peak = max(
            b.total for b in stage_memory_breakdown(
                network, algorithm, report.local_batch, bounds, plan.tp))
        if peak > budget:
            candidates.append(PlanCandidate(
                plan, False,
                f"stage memory {peak / 2**30:.1f} GiB exceeds the "
                f"{budget / 2**30:.1f} GiB budget",
                report.total_seconds, peak))
            continue
        candidates.append(PlanCandidate(
            plan, True, "", report.total_seconds, peak))
    return PlacementResult(
        network=network.name,
        algorithm=algorithm,
        n_chips=n_chips,
        global_batch=global_batch,
        candidates=tuple(candidates),
        budget_bytes=budget,
    )


def degraded_step_s(fleet, model_name, algorithm, batch, chips_lost):
    """Step latency at the nearest feasible ``dp' < dp``, one
    :func:`plan_placement` search per ``dp'``."""
    from repro.training import Algorithm
    from repro.workloads import build_model

    replicas_lost = min(fleet.dp, chips_lost)
    best = None
    for dp2 in range(fleet.dp - replicas_lost, 0, -1):
        chips2 = dp2 * fleet.pp * fleet.tp
        rounded = math.ceil(batch / dp2) * dp2
        try:
            result = plan_placement(
                build_model(model_name), Algorithm(algorithm),
                chips2, rounded, kind=fleet.kind,
                topology=fleet.topology,
                bucket_bytes=fleet.bucket_bytes,
                chips_per_node=fleet.chips_per_node,
                fabric=fleet.fabric, overlap=fleet.overlap)
        except ValueError:
            continue
        for cand in result.candidates:
            if cand.feasible and cand.plan.dp == dp2 \
                    and cand.plan.pp == fleet.pp \
                    and cand.plan.tp == fleet.tp:
                best = cand.step_seconds
                break
        if best is not None:
            break
    return best

"""Multi-tenant DP-training fleet simulator with budget admission.

The serving layer on top of ``arch`` / ``training`` / ``dpml`` /
``experiments``: synthetic job traces (:mod:`repro.serve.job`),
per-tenant ``(epsilon, delta)`` admission control
(:mod:`repro.serve.budget`), a discrete-event scheduler over a pool of
clusters (:mod:`repro.serve.scheduler`) and fleet-level metrics
(:mod:`repro.serve.metrics`).  See ``docs/serving.md``.
"""

from repro.serve.autoscale import (
    SCALE_REASONS,
    AutoscalerPolicy,
    AutoscalerState,
    ScaleEvent,
)
from repro.serve.budget import (
    AdmissionController,
    BatchAdmissionDecisions,
    TenantBudget,
)
from repro.serve.capacity import CapacityPlan, CapacityProbe, plan_capacity
from repro.serve.faults import (
    AttemptOutcome,
    FaultConfig,
    FaultEvent,
    FaultModel,
    FaultRun,
)
from repro.serve.job import (
    JOB_ALGORITHMS,
    TRACE_SHAPES,
    TraceArrays,
    TraceConfig,
    generate_trace_arrays,
)
from repro.serve.metrics import (
    FleetReport,
    TenantUsage,
    build_streaming_report,
    percentile,
)
from repro.serve.scheduler import (
    POLICIES,
    FleetConfig,
    predict_step_seconds_batch,
    simulate_fleet_streaming,
)

__all__ = [
    "JOB_ALGORITHMS",
    "TRACE_SHAPES",
    "TraceConfig",
    "TraceArrays",
    "generate_trace_arrays",
    "SCALE_REASONS",
    "AutoscalerPolicy",
    "AutoscalerState",
    "ScaleEvent",
    "CapacityPlan",
    "CapacityProbe",
    "plan_capacity",
    "AttemptOutcome",
    "FaultConfig",
    "FaultEvent",
    "FaultModel",
    "FaultRun",
    "TenantBudget",
    "AdmissionController",
    "BatchAdmissionDecisions",
    "POLICIES",
    "FleetConfig",
    "predict_step_seconds_batch",
    "simulate_fleet_streaming",
    "FleetReport",
    "TenantUsage",
    "build_streaming_report",
    "percentile",
]

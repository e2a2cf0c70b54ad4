"""Training-step planning, memory modeling and simulation."""

from repro.training.algorithms import Algorithm
from repro.training.memory import (
    DEFAULT_CAPACITY_BYTES,
    MemoryBreakdown,
    checkpoint_bytes,
    max_batch_size,
    memory_breakdown,
)
from repro.training.phases import (
    BACKPROP_PHASES,
    CLUSTER_PHASE_ORDER,
    PHASE_ORDER,
    Phase,
)
from repro.training.batch import (
    ShardedStepBatch,
    StepBatch,
    sharded_step_batch,
    step_vector_runs,
    training_step_batch,
)
from repro.training.parallel import (
    PipelineSchedule,
    build_pipeline_schedule,
    partition_layers,
    stage_memory_breakdown,
)
from repro.training.plan import (
    PlacementResult,
    PlanCandidate,
    bottleneck_gemms,
    phase_gemms,
    plan_placement,
)
from repro.training.simulate import (
    DEFAULT_STORAGE_BYTES_PER_S,
    CheckpointConfig,
    ClusterTrainingReport,
    GemmOp,
    TrainingReport,
    checkpoint_write_seconds,
    checkpointed_step_seconds,
    simulate_sharded_training_step,
    simulate_training_step,
    stage_utilization,
    step_gemm_blocks,
    step_gemm_ops,
    step_vector_kernels,
    young_daly_interval_s,
)

__all__ = [
    "Algorithm",
    "Phase",
    "PHASE_ORDER",
    "CLUSTER_PHASE_ORDER",
    "BACKPROP_PHASES",
    "phase_gemms",
    "bottleneck_gemms",
    "MemoryBreakdown",
    "memory_breakdown",
    "max_batch_size",
    "checkpoint_bytes",
    "DEFAULT_CAPACITY_BYTES",
    "DEFAULT_STORAGE_BYTES_PER_S",
    "CheckpointConfig",
    "checkpoint_write_seconds",
    "checkpointed_step_seconds",
    "young_daly_interval_s",
    "TrainingReport",
    "ClusterTrainingReport",
    "simulate_training_step",
    "simulate_sharded_training_step",
    "stage_utilization",
    "GemmOp",
    "step_gemm_blocks",
    "step_gemm_ops",
    "step_vector_kernels",
    "step_vector_runs",
    "StepBatch",
    "ShardedStepBatch",
    "training_step_batch",
    "sharded_step_batch",
    "PipelineSchedule",
    "build_pipeline_schedule",
    "partition_layers",
    "stage_memory_breakdown",
    "PlanCandidate",
    "PlacementResult",
    "plan_placement",
]

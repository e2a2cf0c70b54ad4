"""Shared experiment configuration and caches.

Per the paper's methodology (Figures 4/5 captions, Section V), every
performance comparison uses, for each model, the maximum mini-batch
size feasible with plain DP-SGD under TPUv3's 16 GB HBM — identically
across SGD / DP-SGD / DP-SGD(R) and across design points.
"""

from __future__ import annotations

from functools import lru_cache

from repro.arch.accelerator import Accelerator
from repro.core import build_accelerator
from repro.training import (
    Algorithm,
    TrainingReport,
    max_batch_size,
    simulate_training_step,
)
from repro.workloads import MODEL_NAMES, build_model

#: The models of Figures 13-17's detailed subset.
DETAIL_MODELS = ("VGG-16", "ResNet-152", "BERT-large", "LSTM-large")

#: Design points of Figure 13 (label, accelerator kind, with_ppu).
DESIGN_POINTS = (
    ("WS", "ws", False),
    ("OS w/o PPU", "os", False),
    ("OS with PPU", "os", True),
    ("DiVa w/o PPU", "diva", False),
    ("DiVa with PPU", "diva", True),
)


@lru_cache(maxsize=64)
def default_batch(name: str, input_size: int = 32, seq_len: int = 32) -> int:
    """The paper's batch policy: max DP-SGD batch under 16 GB."""
    return max_batch_size(build_model(name, input_size, seq_len),
                          Algorithm.DP_SGD)


@lru_cache(maxsize=16)
def get_accelerator(kind: str, with_ppu: bool) -> Accelerator:
    """Cached accelerator construction (default Table II config)."""
    if kind == "ws":
        return build_accelerator("ws", with_ppu=False)
    return build_accelerator(kind, with_ppu=with_ppu)


@lru_cache(maxsize=1024)
def simulate(name: str, algorithm: Algorithm, kind: str, with_ppu: bool,
             input_size: int = 32, seq_len: int = 32) -> TrainingReport:
    """Cached training-step simulation at the default batch policy."""
    network = build_model(name, input_size, seq_len)
    batch = default_batch(name, input_size, seq_len)
    accel = get_accelerator(kind, with_ppu)
    return simulate_training_step(network, algorithm, accel, batch)


def all_models() -> tuple[str, ...]:
    """The nine benchmark models in the paper's figure order."""
    return MODEL_NAMES


def clear_caches() -> None:
    """Reset every harness memo (models, accelerators, simulations,
    lowered GEMM schedules and GEMM stats).

    ``benchmarks/bench_gemm_sweep.py`` calls this between timing rounds
    to measure the cold path; sweep worker processes inherit warm parent
    caches via fork, so it is also the hook for experiments that need a
    cold start.
    """
    from repro.arch.engine import clear_gemm_stats_cache
    from repro.training.batch import clear_lowered_step_cache
    from repro.workloads.zoo import clear_model_cache

    clear_model_cache()
    clear_lowered_step_cache()
    default_batch.cache_clear()
    get_accelerator.cache_clear()
    simulate.cache_clear()
    clear_gemm_stats_cache()

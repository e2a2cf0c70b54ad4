"""repro: a reproduction of *DiVa: An Accelerator for Differentially
Private Machine Learning* (MICRO 2022, arXiv:2208.12392).

Public API highlights
---------------------
``repro.workloads``
    Layer IR, Figure 6 GEMM extraction, and the nine-model zoo.
``repro.arch`` / ``repro.core``
    Cycle models for WS/OS systolic arrays, DiVa's outer-product engine,
    the PPU, memory system, vector unit and GPU baselines - plus the
    Section VII packing extension (``repro.core.packing``).
``repro.functional``
    Cycle-by-cycle register simulators, tiled functional GEMM and BF16
    datapath emulation, used to validate the analytic models.
``repro.training``
    SGD / DP-SGD / DP-SGD(R) planners, memory model, simulation driver.
``repro.energy``
    65 nm power/area/energy models (Table III, Figure 16).
``repro.dpml``
    A functional NumPy DP-SGD implementation (per-example gradients,
    ghost norms, LSTM/Embedding/LayerNorm layers) with an RDP
    accountant.
``repro.experiments``
    One module per paper figure/table; ``python -m repro run all``.
"""

__version__ = "1.0.0"

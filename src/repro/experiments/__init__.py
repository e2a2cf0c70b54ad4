"""Experiment harness: one module per paper figure/table.

==================  ==========================================
Module              Reproduces
==================  ==========================================
``fig04_memory``    Figure 4 (memory breakdown)
``fig05_breakdown`` Figure 5 (WS training-time breakdown)
``fig07_utilization`` Figure 7 (WS FLOPS utilization)
``fig13_speedup``   Figure 13 (end-to-end speedup)
``fig14_breakdown`` Figure 14 (DP latency breakdown)
``fig15_flops``     Figure 15 (utilization improvement)
``fig16_energy``    Figure 16 (energy)
``fig17_gpu``       Figure 17 (vs V100/A100)
``table1_bandwidth`` Table I (SRAM bandwidth)
``table3_area_power`` Table III (power/area/TFLOPS)
``sensitivity``     Section VI-C (image/sequence scaling)
``maxbatch``        Section III-A (max mini-batch)
``ppu_traffic``     Section I/IV-C (99% traffic reduction)
``design_space``    Beyond the paper: PE-array geometry sweep
``scaling``         Beyond the paper: multi-chip DP-SGD scaling
``serve``           Beyond the paper: multi-tenant fleet serving
``capacity``        Beyond the paper: fleet capacity planning
==================  ==========================================

Each module exposes ``run()`` returning structured results and
``render()`` returning the paper-style text table.  Their registry,
``ALL_EXPERIMENTS``, lives in :mod:`repro.experiments.run_all`, so
importing one experiment (or the sweep runner) loads no other.
"""

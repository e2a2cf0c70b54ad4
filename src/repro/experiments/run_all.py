"""Regenerate every paper table and figure in one run.

Run:
    python -m repro.experiments.run_all [--jobs N] [--serial]

Prints the text rendering of every experiment — the paper figures and
tables in paper order, then the beyond-the-paper studies (multi-chip
scaling, fleet serving).
Each experiment renders in its own worker process (see
:mod:`repro.experiments.runner`); output order stays deterministic
because results are collected and printed in paper order.  This is the
human-readable counterpart of ``pytest benchmarks/``.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.experiments import (
    ablation,
    capacity,
    design_space,
    fig04_memory,
    gemm_sweep,
    fig05_breakdown,
    fig07_utilization,
    fig13_speedup,
    fig14_breakdown,
    fig15_flops,
    fig16_energy,
    fig17_gpu,
    maxbatch,
    ppu_traffic,
    runner,
    scaling,
    sensitivity,
    serve,
    table1_bandwidth,
    table3_area_power,
)

#: Every experiment module by its CLI key (``python -m repro run KEY``).
ALL_EXPERIMENTS = {
    "fig04": fig04_memory,
    "fig05": fig05_breakdown,
    "fig07": fig07_utilization,
    "fig13": fig13_speedup,
    "fig14": fig14_breakdown,
    "fig15": fig15_flops,
    "fig16": fig16_energy,
    "fig17": fig17_gpu,
    "table1": table1_bandwidth,
    "table3": table3_area_power,
    "sensitivity": sensitivity,
    "maxbatch": maxbatch,
    "ppu_traffic": ppu_traffic,
    "ablation": ablation,
    "gemm_sweep": gemm_sweep,
    "design_space": design_space,
    "scaling": scaling,
    "serve": serve,
    "capacity": capacity,
}

_ORDER = ("maxbatch", "fig04", "fig05", "fig07", "table1", "fig13",
          "fig14", "fig15", "fig16", "table3", "fig17", "sensitivity",
          "ppu_traffic", "scaling", "serve", "capacity")


def _render_one(key: str) -> tuple[str, float, str]:
    """Render one experiment (worker-process entry point)."""
    start = time.perf_counter()
    text = ALL_EXPERIMENTS[key].render()
    return key, time.perf_counter() - start, text


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="regenerate every paper table/figure")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or "
                             "all cores)")
    parser.add_argument("--serial", action="store_true",
                        help="render experiments one by one in-process")
    args = parser.parse_args(argv)
    if args.serial:
        # Nested sweeps inside render() must serialize too — debuggers
        # and no-fork sandboxes are the whole point of --serial.
        os.environ["REPRO_PARALLEL"] = "0"
    results = runner.sweep(_render_one, _ORDER, jobs=args.jobs,
                           parallel=False if args.serial else None)
    for key, elapsed, text in results:
        print(f"=== {key} ({elapsed:.1f}s) ===")
        print(text)
        print()


if __name__ == "__main__":
    main()

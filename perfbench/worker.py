"""One measured run, in a fresh interpreter started by ``run.py``.

The worker imports the workload's modules (the set-up every CLI user
pays), stamps the moment it is ready, runs the workload once — the
timed pipeline, then its output checks, with layer spans installed when
``--traced`` — and prints its record as the last line of standard
output.  ``ready_monotonic`` is read from the system-wide monotonic
clock, so the parent computes set-up time from the moment it started
this process.

Around the run (outside its timed section) the worker also times a
fixed reference kernel, ``ref_s``: the mean of :data:`REFERENCE_REPS`
repetitions before the run and as many after it.  On a shared host the
speed drifts in regimes lasting minutes (other tenants' load slows CPU
time as much as wall time; 40-70 % on a shared 2-vCPU x86-64 VM).  The
kernel slows with the host much as the workloads do: an interpreted
arithmetic loop, then building and sorting a dict of small lists,
which is the kind of object-heavy work the event loops and trace
export do.  So ``wall_s / ref_s`` cancels most of the host's current
speed.  Of the candidate kernels tried on that VM (interpreted loop,
small and large NumPy arrays, dict building, JSON encoding) this mix
gave the steadiest ratio on every workload: over ~55 fresh runs each,
a coefficient of variation of 0.09-0.12, against 0.17-0.21 for the raw
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy

import tracing
import workloads

REFERENCE_REPS = 3


def reference_kernel_s() -> float:
    """Seconds of one pass of the fixed reference kernel (~35 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    table = {}
    for i in range(20_000):
        table[i * 7919 % 1_000_003] = [i, float(i), str(i)]
    for key in sorted(table):
        total += table[key][0]
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True,
                        help="directory for temporary files")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    workloads.import_modules(args.workload)
    ready = time.monotonic()

    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    reference = [reference_kernel_s() for _ in range(REFERENCE_REPS)]
    record = workloads.run(args.workload, args.seed, tracer, args.scratch)
    reference += [reference_kernel_s() for _ in range(REFERENCE_REPS)]
    record["ref_s"] = statistics.fmean(reference)
    if tracer is not None:
        tracer.active = False
        record["layers"] = tracing.layer_metrics(
            tracer, record.get("layers", {}))
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump(tracer.dump(), handle)
    record["ready_monotonic"] = ready
    record["numpy"] = numpy.__version__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

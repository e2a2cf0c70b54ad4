"""Command-line interface for the DiVa reproduction.

Usage:
    python -m repro models                     # list the workload zoo
    python -m repro experiments                # list experiments
    python -m repro run fig13                  # regenerate one figure
    python -m repro run all                    # regenerate everything
    python -m repro simulate ResNet-50         # one-model comparison
    python -m repro design-space --heights 64  # PE-geometry sweep
    python -m repro scaling --chips 1 2 4 8    # multi-chip scaling
    python -m repro serve --trace-jobs 200     # fleet serving simulator
    python -m repro capacity --max-p99-wait 60 # fleet capacity planner
    python -m repro trace fleet_trace.json     # inspect a trace file
"""

from __future__ import annotations

import argparse
import sys

from repro.workloads import MODEL_NAMES, build_model


def _cmd_models(_: argparse.Namespace) -> int:
    for name in MODEL_NAMES:
        print(build_model(name).describe())
    return 0


def _cmd_experiments(_: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    for key, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{key:12s} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.experiment == "all":
        from repro.experiments.run_all import main as run_all
        run_all(["--jobs", str(args.jobs)] if args.jobs else [])
        return 0
    module = ALL_EXPERIMENTS.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"choose from {', '.join(ALL_EXPERIMENTS)} or 'all'",
              file=sys.stderr)
        return 2
    print(module.render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core import build_accelerator
    from repro.training import (
        Algorithm,
        max_batch_size,
        simulate_training_step,
    )

    recorder = None
    if args.trace:
        from repro.obs import TraceRecorder
        recorder = TraceRecorder()
    network = build_model(args.model)
    batch = args.batch or max_batch_size(network, Algorithm.DP_SGD)
    print(f"{network.describe()}, B={batch}")
    if args.chips > 1:
        from repro.core import build_cluster
        from repro.training import simulate_sharded_training_step
        cluster = build_cluster("diva", n_chips=args.chips)
        report = simulate_sharded_training_step(
            network, Algorithm(args.algorithm), cluster, batch,
            recorder=recorder)
        print(f"  {args.chips}x diva "
              f"{report.total_seconds * 1e3:9.2f} ms "
              f"(comm {report.comm_seconds * 1e3:.2f} ms exposed)")
    else:
        base = None
        for kind, with_ppu in (("ws", False), ("os", True),
                               ("diva", True)):
            accel = (build_accelerator("ws") if kind == "ws"
                     else build_accelerator(kind, with_ppu=with_ppu))
            report = simulate_training_step(
                network, Algorithm(args.algorithm), accel, batch,
                recorder=recorder)
            if base is None:
                base = report.total_seconds
            print(f"  {accel.name:5s} "
                  f"{report.total_seconds * 1e3:9.2f} ms "
                  f"({base / report.total_seconds:.2f}x)")
    if recorder is not None:
        recorder.write(args.trace)
        print(f"trace: {len(recorder.events)} events -> {args.trace}")
    return 0


def _cmd_design_space(args: argparse.Namespace) -> int:
    from repro.experiments import design_space
    from repro.experiments.runner import CacheStats, ResultCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    stats = CacheStats() if cache is not None else None
    rows = design_space.run(
        models=tuple(args.models),
        heights=tuple(args.heights),
        widths=tuple(args.widths) if args.widths else None,
        jobs=args.jobs,
        cache=cache,
        stats=stats,
    )
    print(design_space.render(rows))
    if stats is not None:
        print(stats.render())
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments import scaling
    from repro.experiments.runner import CacheStats, ResultCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    stats = CacheStats() if cache is not None else None
    try:
        rows = scaling.run(
            models=tuple(args.models or scaling.DEFAULT_MODELS),
            chips=tuple(args.chips or scaling.DEFAULT_CHIPS),
            algorithms=tuple(args.algorithms or scaling.DEFAULT_ALGORITHMS),
            mode=args.mode,
            topology=args.topology,
            batch=args.batch,
            overlap=args.overlap,
            bucket_bytes=(int(args.bucket_mb * 2**20)
                          if args.bucket_mb is not None else None),
            chips_per_node=args.chips_per_node,
            pp=args.pp,
            tp=args.tp,
            plan_mode=args.plan_mode,
            fabric=args.fabric,
            hbm_gb=args.hbm_gb,
            jobs=args.jobs,
            cache=cache,
            stats=stats,
        )
    except ValueError as error:
        print(f"scaling: {error}", file=sys.stderr)
        return 2
    print(scaling.render(rows))
    if stats is not None:
        print(stats.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments import serve
    from repro.experiments.runner import ResultCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    profiler = None
    if args.profile:
        from repro.obs import Profiler
        profiler = Profiler("serve")
    try:
        autoscale = None
        if args.autoscale:
            from repro.serve import AutoscalerPolicy
            autoscale = AutoscalerPolicy(
                max_clusters=args.autoscale_max,
                provision_delay_s=args.provision_delay,
                target_p99_wait_s=args.autoscale_p99,
            )
        rows = serve.run(
            policies=tuple(args.policy) if args.policy else None,
            trace_jobs=args.trace_jobs,
            seed=args.seed,
            chips=args.chips,
            chips_per_cluster=args.chips_per_cluster,
            topology=args.topology,
            chips_per_node=args.chips_per_node,
            bucket_bytes=(int(args.bucket_mb * 2**20)
                          if args.bucket_mb is not None else None),
            overlap=args.overlap,
            pp=args.pp,
            tp=args.tp,
            fabric=args.fabric,
            epsilon_budget=args.epsilon_budget,
            delta=args.delta,
            trace_shape=args.trace_shape,
            mean_interarrival_s=args.mean_interarrival,
            autoscale=autoscale,
            mtbf_hours=args.mtbf_hours,
            checkpoint_interval=args.checkpoint_interval,
            max_retries=args.max_retries,
            straggler_rate=args.straggler_rate,
            cache=cache,
            trace_path=args.trace,
            metrics_dir=args.metrics_out,
            profiler=profiler,
        )
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    print(serve.render(rows))
    if args.trace:
        print(f"trace -> {args.trace}")
    if args.metrics_out:
        print(f"metrics -> {args.metrics_out}")
    if profiler is not None:
        profiler.write(args.profile)
        print(f"profile -> {args.profile}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import load_trace, render_summary, summarize

    try:
        events = load_trace(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    summary = summarize(events)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.experiments import capacity
    from repro.experiments.runner import ResultCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    try:
        result = capacity.run(
            trace_jobs=args.trace_jobs,
            seed=args.seed,
            trace_shape=args.trace_shape,
            mean_interarrival_s=args.mean_interarrival,
            max_p99_wait_s=args.max_p99_wait,
            target_jobs_per_s=args.target_jobs_per_s,
            chips_per_cluster=args.chips_per_cluster,
            topology=args.topology,
            chips_per_node=args.chips_per_node,
            bucket_bytes=(int(args.bucket_mb * 2**20)
                          if args.bucket_mb is not None else None),
            overlap=args.overlap,
            policy=args.policy,
            epsilon_budget=args.epsilon_budget,
            delta=args.delta,
            max_clusters=args.max_clusters,
            cache=cache,
        )
    except ValueError as error:
        print(f"capacity: {error}", file=sys.stderr)
        return 2
    print(capacity.render(result))
    return 0 if result["feasible"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DiVa (MICRO 2022) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("models", help="list the workload zoo")
    sub.add_parser("experiments", help="list available experiments")
    run = sub.add_parser("run", help="regenerate a figure/table")
    run.add_argument("experiment", help="experiment key, or 'all'")
    run.add_argument("--jobs", type=int, default=0,
                     help="worker processes for 'all' (default: all cores)")
    sim = sub.add_parser("simulate", help="simulate one model")
    sim.add_argument("model", choices=MODEL_NAMES)
    sim.add_argument("--batch", type=int, default=0,
                     help="mini-batch (default: max DP-SGD batch)")
    sim.add_argument("--algorithm", default="DP-SGD(R)",
                     choices=[a.value for a in __import__(
                         "repro.training", fromlist=["Algorithm"]
                     ).Algorithm])
    sim.add_argument("--chips", type=int, default=1, metavar="N",
                     help="simulate a sharded step on an N-chip DiVa "
                          "cluster instead of the 3-accelerator "
                          "comparison (default: 1)")
    sim.add_argument("--trace", default=None, metavar="FILE",
                     help="write per-phase/per-op spans as Chrome-trace "
                          "JSON (open in Perfetto, or inspect with "
                          "'python -m repro trace')")
    design = sub.add_parser(
        "design-space",
        help="sweep PE-array geometries (batched in-process, "
             "JSON-cached)")
    design.add_argument("--models", nargs="+", default=["VGG-16",
                                                        "BERT-large"],
                        choices=MODEL_NAMES, metavar="MODEL")
    design.add_argument("--heights", nargs="+", type=int,
                        default=[64, 128, 256], metavar="H",
                        help="PE-array heights (width mirrors height "
                             "unless --widths is given)")
    design.add_argument("--widths", nargs="+", type=int, default=None,
                        metavar="W",
                        help="PE-array widths (full cross product)")
    design.add_argument("--jobs", type=int, default=None,
                        help="accepted for compatibility; the sweep is "
                             "analytic and runs batched in-process "
                             "without workers")
    design.add_argument("--cache-dir", default=None,
                        help="persist results as JSON under this "
                             "directory, keyed by config hash")
    # Defaults resolve inside _cmd_scaling (None sentinels here) so
    # building the parser never imports the experiments package.
    scal = sub.add_parser(
        "scaling",
        help="multi-chip data-parallel DP-SGD scaling sweep "
             "(batched in-process, JSON-cached)")
    scal.add_argument("--chips", nargs="+", type=int, default=None,
                      metavar="N",
                      help="cluster sizes to sweep (default: 1 2 4 8)")
    scal.add_argument("--models", nargs="+", default=None,
                      choices=MODEL_NAMES, metavar="MODEL",
                      help="workloads (default: VGG-16 BERT-large)")
    scal.add_argument("--algorithms", nargs="+", default=None,
                      choices=["SGD", "DP-SGD", "DP-SGD(R)"],
                      metavar="ALG",
                      help="training algorithms (default: the DP pair)")
    scal.add_argument("--mode", choices=["strong", "weak"],
                      default="strong",
                      help="strong: fixed global batch; weak: fixed "
                           "per-chip batch")
    scal.add_argument("--topology",
                      choices=["ring", "all_to_all", "hierarchical"],
                      default="ring", help="interconnect topology")
    scal.add_argument("--chips-per-node", type=int, default=1,
                      metavar="K",
                      help="island size of the hierarchical topology; "
                           "must divide every chip count (default: 1)")
    scal.add_argument("--bucket-mb", type=float, default=None,
                      metavar="MB",
                      help="gradient-bucket size in MiB for pipelined "
                           "bucket allreduces (default: one monolithic "
                           "bucket)")
    scal.add_argument("--overlap", default=True,
                      action=argparse.BooleanOptionalAction,
                      help="hide bucketed gradient allreduces behind "
                           "backward compute (--no-overlap charges "
                           "serial communication)")
    scal.add_argument("--batch", type=int, default=None,
                      help="global batch at one chip (default: largest "
                           "feasible multiple of lcm(chips))")
    scal.add_argument("--pp", type=int, default=1, metavar="P",
                      help="pipeline-parallel stages per grid point; "
                           "pp*tp must divide every chip count "
                           "(default: 1)")
    scal.add_argument("--tp", type=int, default=1, metavar="T",
                      help="tensor-parallel shards per grid point "
                           "(default: 1)")
    scal.add_argument("--plan", choices=["fixed", "auto"],
                      default="fixed", dest="plan_mode",
                      help="fixed: apply --pp/--tp everywhere; auto: "
                           "pick the fastest memory-feasible "
                           "DP x PP x TP factorization per point")
    scal.add_argument("--fabric", choices=["two-tier", "uniform"],
                      default=None,
                      help="heterogeneous link preset (fast intra-node "
                           "+ slow cross-node); default: uniform "
                           "100 GB/s links")
    scal.add_argument("--hbm-gb", type=float, default=None,
                      metavar="GB",
                      help="per-chip HBM capacity in GiB for --plan "
                           "auto feasibility (default: the chip's "
                           "16 GiB)")
    scal.add_argument("--jobs", type=int, default=None,
                      help="accepted for compatibility; the sweep is "
                           "analytic and runs batched in-process "
                           "without workers")
    scal.add_argument("--cache-dir", default=None,
                      help="persist results as JSON under this "
                           "directory, keyed by config hash")
    # Policy choices are inlined (not imported from repro.serve) so
    # building the parser never imports the serving stack.
    serve = sub.add_parser(
        "serve",
        help="multi-tenant DP-training fleet simulator with "
             "privacy-budget admission control")
    serve.add_argument("--jobs", "--trace-jobs", dest="trace_jobs",
                       type=int, default=60, metavar="N",
                       help="synthetic trace length (default: 60)")
    serve.add_argument("--seed", type=int, default=7,
                       help="trace generator seed (default: 7)")
    serve.add_argument("--chips", type=int, default=4,
                       help="total accelerators in the fleet "
                            "(default: 4)")
    serve.add_argument("--chips-per-cluster", type=int, default=1,
                       metavar="N",
                       help="chips per job-granularity cluster; must "
                            "divide --chips (default: 1)")
    serve.add_argument("--policy", nargs="+", default=None,
                       choices=["fifo", "sjf", "budget"],
                       metavar="POLICY",
                       help="scheduling policies to compare: fifo, "
                            "sjf, budget (default: all three)")
    serve.add_argument("--topology",
                       choices=["ring", "all_to_all", "hierarchical"],
                       default="ring",
                       help="intra-cluster interconnect topology")
    serve.add_argument("--chips-per-node", type=int, default=1,
                       metavar="K",
                       help="hierarchical-island size; must divide "
                            "--chips-per-cluster (default: 1)")
    serve.add_argument("--bucket-mb", type=float, default=None,
                       metavar="MB",
                       help="gradient-bucket size in MiB for the "
                            "overlap-aware allreduce model (default: "
                            "one monolithic bucket)")
    serve.add_argument("--overlap", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="hide bucketed gradient allreduces behind "
                            "backward compute in service-time "
                            "predictions")
    serve.add_argument("--pp", type=int, default=1, metavar="P",
                       help="pipeline-parallel stages carved out of "
                            "each cluster (default: 1)")
    serve.add_argument("--tp", type=int, default=1, metavar="T",
                       help="tensor-parallel shards per pipeline stage "
                            "(default: 1)")
    serve.add_argument("--fabric", choices=["two-tier", "uniform"],
                       default=None,
                       help="heterogeneous link preset for cluster "
                            "collectives (default: homogeneous links)")
    serve.add_argument("--epsilon-budget", type=float, default=3.0,
                       metavar="EPS",
                       help="per-tenant lifetime epsilon budget "
                            "(default: 3.0)")
    serve.add_argument("--delta", type=float, default=1e-5,
                       help="per-tenant delta (default: 1e-5)")
    serve.add_argument("--trace-shape", default="poisson",
                       choices=["poisson", "diurnal", "bursty",
                                "multiregion"],
                       help="arrival-process shape of the synthetic "
                            "trace (default: poisson)")
    serve.add_argument("--mean-interarrival", type=float, default=8.0,
                       metavar="S",
                       help="mean seconds between arrivals, any shape "
                            "(default: 8.0)")
    serve.add_argument("--autoscale", default=False,
                       action=argparse.BooleanOptionalAction,
                       help="scale clusters up on load and retire them "
                            "when idle instead of simulating a static "
                            "fleet")
    serve.add_argument("--autoscale-max", type=int, default=64,
                       metavar="N",
                       help="cluster ceiling while autoscaling "
                            "(default: 64)")
    serve.add_argument("--provision-delay", type=float, default=60.0,
                       metavar="S",
                       help="seconds between requesting a cluster and "
                            "it accepting work (default: 60)")
    serve.add_argument("--autoscale-p99", type=float, default=None,
                       metavar="S",
                       help="also scale up when the streaming p99 "
                            "queueing wait exceeds this many seconds "
                            "(default: queue-depth trigger only)")
    serve.add_argument("--mtbf-hours", type=float, default=None,
                       metavar="H",
                       help="inject seeded chip failures with this "
                            "per-chip mean time between failures; "
                            "crashed jobs restart from their last "
                            "checkpoint (default: no faults)")
    serve.add_argument("--checkpoint-interval", type=int, default=None,
                       metavar="STEPS",
                       help="checkpoint every N steps while faults are "
                            "on (default: Young/Daly optimum per "
                            "model)")
    serve.add_argument("--max-retries", type=int, default=3,
                       metavar="N",
                       help="re-admissions per crashed job before it "
                            "counts as failed (default: 3)")
    serve.add_argument("--straggler-rate", type=float, default=0.0,
                       metavar="P",
                       help="fraction of attempts slowed by a "
                            "transient straggler while faults are on "
                            "(default: 0.0)")
    serve.add_argument("--cache-dir", default=None,
                       help="persist per-config step latencies as "
                            "JSON under this directory")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="write job-lifecycle spans, autoscaler "
                            "instants, and load counters for every "
                            "policy as Chrome-trace JSON")
    serve.add_argument("--metrics-out", default=None, metavar="DIR",
                       help="write one metrics_<policy>.json registry "
                            "dump (counters, P2 histograms, windowed "
                            "series) per policy under DIR")
    serve.add_argument("--profile", default=None, metavar="FILE",
                       help="write a wall-clock self-profile of the "
                            "harness (stage timings + counters) as "
                            "JSON")
    capacity = sub.add_parser(
        "capacity",
        help="smallest fleet meeting a p99-wait/throughput SLO "
             "(doubling + bisection over streaming runs)")
    capacity.add_argument("--jobs", "--trace-jobs", dest="trace_jobs",
                          type=int, default=20_000, metavar="N",
                          help="synthetic trace length (default: 20000)")
    capacity.add_argument("--seed", type=int, default=7,
                          help="trace generator seed (default: 7)")
    capacity.add_argument("--trace-shape", default="poisson",
                          choices=["poisson", "diurnal", "bursty",
                                   "multiregion"],
                          help="arrival-process shape (default: poisson)")
    capacity.add_argument("--mean-interarrival", type=float, default=1.0,
                          metavar="S",
                          help="mean seconds between arrivals "
                               "(default: 1.0)")
    capacity.add_argument("--max-p99-wait", type=float, default=120.0,
                          metavar="S",
                          help="SLO: p99 queueing wait ceiling in "
                               "seconds (default: 120)")
    capacity.add_argument("--target-jobs-per-s", type=float, default=None,
                          metavar="T",
                          help="SLO: completed jobs per second of "
                               "makespan (default: no throughput floor)")
    capacity.add_argument("--chips-per-cluster", type=int, default=1,
                          metavar="N",
                          help="chips per job-granularity cluster "
                               "(default: 1)")
    capacity.add_argument("--policy", default="fifo",
                          choices=["fifo", "sjf", "budget"],
                          help="scheduling policy under test "
                               "(default: fifo)")
    capacity.add_argument("--topology",
                          choices=["ring", "all_to_all", "hierarchical"],
                          default="ring",
                          help="intra-cluster interconnect topology")
    capacity.add_argument("--chips-per-node", type=int, default=1,
                          metavar="K",
                          help="hierarchical-island size; must divide "
                               "--chips-per-cluster (default: 1)")
    capacity.add_argument("--bucket-mb", type=float, default=None,
                          metavar="MB",
                          help="gradient-bucket size in MiB for the "
                               "overlap-aware allreduce model")
    capacity.add_argument("--overlap", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="hide bucketed gradient allreduces "
                               "behind backward compute in service-"
                               "time predictions")
    capacity.add_argument("--epsilon-budget", type=float, default=None,
                          metavar="EPS",
                          help="per-tenant lifetime epsilon budget "
                               "(default: the admission controller's "
                               "3.0)")
    capacity.add_argument("--delta", type=float, default=1e-5,
                          help="per-tenant delta (default: 1e-5)")
    capacity.add_argument("--max-clusters", type=int, default=4096,
                          metavar="N",
                          help="search ceiling; an infeasible SLO "
                               "reports this fleet and exits 1 "
                               "(default: 4096)")
    capacity.add_argument("--cache-dir", default=None,
                          help="persist per-config step latencies as "
                               "JSON under this directory")
    trace = sub.add_parser(
        "trace",
        help="inspect a Chrome-trace JSON file (schema check + "
             "per-process summary)")
    trace.add_argument("file", help="trace file written by --trace")
    trace.add_argument("--json", action="store_true",
                       help="emit the summary as JSON instead of text")
    args = parser.parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "experiments": _cmd_experiments,
        "run": _cmd_run,
        "simulate": _cmd_simulate,
        "design-space": _cmd_design_space,
        "scaling": _cmd_scaling,
        "serve": _cmd_serve,
        "capacity": _cmd_capacity,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

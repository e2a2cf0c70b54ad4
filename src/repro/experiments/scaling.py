"""Multi-chip data-parallel DP-SGD scaling study (beyond the paper).

DiVa (MICRO 2022) evaluates one chip, but DP-SGD is data-parallel by
construction: per-example clipping is local to a shard, and only the
clipped-gradient sum plus per-example norm bookkeeping cross chips
(:func:`repro.training.simulate.simulate_sharded_training_step`).  This
experiment sweeps chip count x workload x DP algorithm on a
:class:`~repro.arch.cluster.Cluster` of DiVa chips and reports the
speedup, scaling efficiency, and communication/compute breakdown of a
sharded training step, under either scaling regime:

``strong``
    The global mini-batch is fixed (the largest multiple of
    ``lcm(chip counts)`` that fits a single chip, by default) and split
    ever thinner across chips.
``weak``
    The per-chip shard is fixed and the global batch grows with the
    cluster, so ideal scaling keeps the step time flat.

Under ``--plan auto`` the default batch comes from the placement
planner's HBM budget instead (:func:`auto_global_batch_info`), and a
point no placement can hold becomes a refusal row.

The communication model is overlap-aware: ``bucket_bytes`` splits the
gradient allreduce into pipelined buckets, ``overlap`` hides them
behind the backward pass, and the ``hierarchical`` topology composes
all-to-all islands of ``chips_per_node`` chips under a cross-node ring
(see :mod:`repro.arch.interconnect`).  Rows report both the exposed
(critical-path) and total communication time.

The sweep is fully analytic, so it runs in-process through the batched
closed-form engine (:func:`repro.training.sharded_step_batch` via
:func:`repro.experiments.runner.cached_batch`): cache lookups resolve
in one pass per grid, every miss is priced in a few NumPy broadcast
passes, and results persist with one JSON entry per point — growing
the swept set still only computes the new combinations.
:func:`evaluate_point` prices one point as a length-1 grid.

Run it from the CLI::

    python -m repro scaling --chips 1 2 4 8 --mode strong \
        --topology hierarchical --chips-per-node 4 \
        --bucket-mb 25 --cache-dir .repro_cache
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.experiments import runner
from repro.experiments.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler

#: Chip counts swept by default.
DEFAULT_CHIPS = (1, 2, 4, 8)
#: Models evaluated by default (one CNN, one transformer).
DEFAULT_MODELS = ("VGG-16", "BERT-large")
#: DP algorithms evaluated by default.
DEFAULT_ALGORITHMS = ("DP-SGD", "DP-SGD(R)")


def default_global_batch_info(
        model: str, chip_counts: tuple[int, ...]) -> tuple[int, bool]:
    """``(batch, clamped)`` for the default strong-scaling batch.

    Rounds the single-chip max mini-batch down to a multiple of
    ``lcm(chip_counts)`` so strong scaling shards evenly.  Models whose
    max batch is *below* the LCM — e.g. BERT-large at wide sweeps — are
    clamped up to the LCM itself (the latency model does not enforce
    capacity); ``clamped=True`` flags that case so scaling efficiency
    is not misread as capacity-feasible.
    """
    from repro.training import Algorithm, max_batch_size
    from repro.workloads import build_model

    batch = max_batch_size(build_model(model), Algorithm.DP_SGD)
    lcm = math.lcm(*chip_counts)
    if batch < lcm:
        return lcm, True
    return batch // lcm * lcm, False


def auto_global_batch_info(
        model: str, chip_counts: tuple[int, ...], mode: str = "strong",
        hbm_gb: float | None = None) -> tuple[int, bool]:
    """``(batch, clamped)`` for the default batch of a ``--plan auto``
    sweep, from the placement planner's HBM budget.

    The largest DP-SGD batch that pure data parallelism, the one
    placement every cluster size has, holds on the sweep's smallest
    cluster under the planner's budget (``hbm_gb`` GiB per chip, less
    the reserved fraction): a per-chip shard of at most
    :func:`~repro.training.memory.max_batch_size` examples, counted per
    chip of the smallest cluster under strong scaling and once under
    weak scaling.  It is rounded down to a multiple of
    ``lcm(chip_counts)``; below the LCM it is clamped up to it
    (``clamped=True``), and the planner refuses the points that cannot
    hold it.
    """
    from repro.training import Algorithm, max_batch_size
    from repro.training.memory import DEFAULT_CAPACITY_BYTES
    from repro.workloads import build_model

    capacity = (int(hbm_gb * 2**30) if hbm_gb is not None
                else DEFAULT_CAPACITY_BYTES)
    try:
        shard = max_batch_size(build_model(model), Algorithm.DP_SGD,
                               capacity_bytes=capacity, power_of_two=False)
    except ValueError:  # not even one example fits a chip
        shard = 0
    batch = shard * min(chip_counts) if mode == "strong" else shard
    lcm = math.lcm(*chip_counts)
    if batch < lcm:
        return lcm, True
    return batch // lcm * lcm, False


def default_global_batch(model: str, chip_counts: tuple[int, ...]) -> int:
    """Largest DP-SGD-feasible batch divisible by every chip count.

    See :func:`default_global_batch_info` for the clamping rule applied
    when the max batch is below ``lcm(chip_counts)``.
    """
    return default_global_batch_info(model, chip_counts)[0]


def evaluate_point(model: str, chips: int, algorithm: str, mode: str,
                   topology: str, base_batch: int,
                   overlap: bool = True, bucket_bytes: int | None = None,
                   chips_per_node: int = 1,
                   batch_clamped: bool = False,
                   pp: int = 1, tp: int = 1,
                   fabric: str | None = None) -> dict:
    """One scaling point: a sharded step on a ``chips``-wide cluster.

    ``base_batch`` is the global batch at one chip; weak scaling grows
    it with the cluster.  ``pp`` / ``tp`` carve pipeline and tensor
    parallelism out of the chip count (data parallelism keeps the
    rest) and ``fabric`` names a heterogeneous link preset.  Returns a
    JSON-serializable dict so results can be persisted by
    :mod:`repro.experiments.runner`; it is
    :func:`evaluate_points_batched` on this one work tuple.
    """
    return evaluate_points_batched([(
        model, chips, algorithm, mode, topology, base_batch, overlap,
        bucket_bytes, chips_per_node, batch_clamped, pp, tp, fabric)])[0]


def evaluate_points_batched(points: list[tuple]) -> list[dict]:
    """Rows of :func:`evaluate_point` work tuples, priced as one grid.

    One :func:`repro.training.sharded_step_batch` call prices the whole
    grid (shared shard evaluations, vectorized collectives).  A work
    tuple may stop after ``base_batch``; the omitted trailing fields
    take :func:`evaluate_point`'s defaults.
    """
    from repro.training.batch import sharded_step_batch

    if not points:
        return []
    defaults = evaluate_point.__defaults__ or ()
    points = [tuple(point) + defaults[len(point) - 6:] for point in points]
    (models, chips, algorithms, modes, topologies, bases, overlaps,
     buckets, nodes, clamped, pps, tps, fabrics) = map(list, zip(*points))
    global_batches = [base * n if mode == "weak" else base
                      for base, n, mode in zip(bases, chips, modes)]
    result = sharded_step_batch(
        models, algorithms, global_batches, chips,
        topologies=topologies, bucket_bytes=buckets,
        chips_per_node=[cpn if topo == "hierarchical" else 1
                        for cpn, topo in zip(nodes, topologies)],
        overlaps=overlaps, pps=pps, tps=tps, fabrics=fabrics)
    rows = []
    for i, point in enumerate(points):
        (model, n, algorithm, mode, topology, _, overlap, bucket_bytes,
         chips_per_node, batch_clamped, pp, tp, fabric) = point
        rows.append({
            "model": model,
            "algorithm": algorithm,
            "mode": mode,
            "topology": topology,
            "chips": n,
            "chips_per_node": chips_per_node,
            "overlap": overlap,
            "bucket_mb": (bucket_bytes / 2**20
                          if bucket_bytes is not None else None),
            "global_batch": global_batches[i],
            "batch_clamped": batch_clamped,
            "pp": pp,
            "tp": tp,
            "fabric": fabric,
            "local_batch": int(result.local_batch[i]),
            "step_ms": float(result.total_seconds[i]) * 1e3,
            "compute_ms": float(result.compute_seconds[i]) * 1e3,
            "comm_ms": float(result.comm_seconds[i]) * 1e3,
            "comm_total_ms": float(result.comm_total_seconds[i]) * 1e3,
            "comm_hidden_ms": float(result.comm_hidden_seconds[i]) * 1e3,
            "comm_fraction": float(result.comm_fraction[i]),
            "bubble_ms": (int(result.bubble_cycles[i])
                          / float(result.frequency_hz[i]) * 1e3),
            "link_mb_per_chip": int(result.link_bytes[i]) / 1e6,
        })
    return rows


def run(
    models: tuple[str, ...] = DEFAULT_MODELS,
    chips: tuple[int, ...] = DEFAULT_CHIPS,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    mode: str = "strong",
    topology: str = "ring",
    batch: int | None = None,
    overlap: bool = True,
    bucket_bytes: int | None = None,
    chips_per_node: int = 1,
    pp: int = 1,
    tp: int = 1,
    plan_mode: str = "fixed",
    fabric: str | None = None,
    hbm_gb: float | None = None,
    jobs: int | None = None,
    cache: "runner.ResultCache | None" = None,
    stats: "runner.CacheStats | None" = None,
    profiler: "Profiler | None" = None,
) -> list[dict]:
    """Sweep the scaling space; one row per (model, algorithm, chips).

    ``pp`` / ``tp`` apply one fixed DP x PP x TP grid to every chip
    count; ``plan_mode="auto"`` instead asks the placement planner
    (:func:`repro.training.plan.plan_placement`) for the fastest
    memory-feasible factorization of each point, under a per-chip HBM
    budget of ``hbm_gb`` GiB (the default chip capacity when ``None``).
    ``fabric`` names a heterogeneous link preset for every point.

    Validates every input before fanning out, so a bad sweep fails
    with one clean :class:`ValueError` instead of a worker traceback
    (and never writes partial results into the cache).  ``stats``
    tallies cache hit/miss/stale outcomes (surfaced by the ``scaling``
    CLI); ``profiler`` times the lookup/compute/write stages.
    """
    from repro.arch.interconnect import TOPOLOGIES, fabric_named

    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {TOPOLOGIES}")
    if plan_mode not in ("fixed", "auto"):
        raise ValueError(
            f"plan_mode must be 'fixed' or 'auto', got {plan_mode!r}")
    if pp < 1 or tp < 1:
        raise ValueError(f"pp and tp must be >= 1, got pp={pp} tp={tp}")
    if plan_mode == "auto" and (pp != 1 or tp != 1):
        raise ValueError(
            "--plan auto picks pp/tp itself; drop the explicit "
            "--pp/--tp degrees")
    if fabric is not None:
        fabric_named(fabric)  # validate the preset name early
    if hbm_gb is not None:
        if plan_mode != "auto":
            raise ValueError(
                "hbm_gb only constrains the automatic planner; use "
                "--plan auto with it")
        if hbm_gb <= 0:
            raise ValueError(f"hbm_gb must be positive, got {hbm_gb}")
    chip_counts = tuple(sorted(set(chips)))
    if not chip_counts:
        raise ValueError("chips must name at least one cluster size")
    bad = [n for n in chip_counts if n < 1]
    if bad:
        raise ValueError(f"chip counts must be >= 1, got {bad}")
    if bucket_bytes is not None and bucket_bytes < 1:
        raise ValueError(
            f"bucket_bytes must be >= 1 (or None), got {bucket_bytes}")
    if topology == "hierarchical":
        if chips_per_node < 1:
            raise ValueError(
                f"chips_per_node must be >= 1, got {chips_per_node}")
        # A 1-chip baseline is exempt: it has no collectives at all.
        lopsided = [n for n in chip_counts if n > 1 and n % chips_per_node]
        if lopsided:
            raise ValueError(
                f"chip counts {lopsided} do not group into hierarchical "
                f"nodes of {chips_per_node}")
    elif chips_per_node != 1:
        raise ValueError(
            "chips_per_node is only meaningful with "
            f"--topology hierarchical, not {topology!r}")
    if plan_mode == "fixed" and pp * tp > 1:
        unfactorable = [n for n in chip_counts if n % (pp * tp)]
        if unfactorable:
            raise ValueError(
                f"chip counts {unfactorable} do not factor into "
                f"pp={pp} x tp={tp} stages")
    if batch is not None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if mode == "strong":
            # Weak scaling grows the global batch with the cluster, so
            # every shard is exactly `batch`; strong scaling splits one
            # fixed batch and needs it to shard evenly everywhere.
            indivisible = [n for n in chip_counts if batch % n]
            if indivisible:
                raise ValueError(
                    f"global batch {batch} does not divide evenly "
                    f"across chip counts {indivisible}")
    work = []
    # Refusal rows of auto-planned points, by their place in the sweep.
    refused: dict[int, dict] = {}
    for model in models:
        if batch is not None:
            base, clamped = batch, False
        elif plan_mode == "auto":
            base, clamped = auto_global_batch_info(model, chip_counts,
                                                   mode, hbm_gb)
        else:
            base, clamped = default_global_batch_info(model, chip_counts)
        for algorithm in algorithms:
            for n in chip_counts:
                point = (model, n, algorithm, mode, topology, base,
                         overlap, bucket_bytes, chips_per_node, clamped,
                         pp, tp, fabric)
                if plan_mode == "auto":
                    plan = _auto_plan(
                        model, algorithm, n,
                        base * n if mode == "weak" else base,
                        topology=topology, bucket_bytes=bucket_bytes,
                        chips_per_node=chips_per_node, fabric=fabric,
                        overlap=overlap, hbm_gb=hbm_gb)
                    if isinstance(plan, str):
                        refused[len(work) + len(refused)] = _refusal_row(
                            point, plan)
                        continue
                    point = point[:10] + plan + point[12:]
                work.append(point)
    # The sweep is fully analytic, so it goes through the in-process
    # batched engine (one vectorized evaluation of every cache miss)
    # rather than the process pool; `jobs` is accepted for API
    # stability but the batched path needs no workers.
    del jobs
    rows = runner.cached_batch(
        evaluate_points_batched, work, cache=cache,
        stats=stats, profiler=profiler,
        key_fn=lambda point: {"experiment": "scaling",
                              "model": point[0], "chips": point[1],
                              "algorithm": point[2], "mode": point[3],
                              "topology": point[4], "base_batch": point[5],
                              "overlap": point[6],
                              "bucket_bytes": point[7],
                              "chips_per_node": point[8],
                              "batch_clamped": point[9],
                              "pp": point[10], "tp": point[11],
                              "fabric": point[12]},
    )
    for index in sorted(refused):
        rows.insert(index, refused[index])
    return rows


def _refusal_row(point: tuple, reason: str) -> dict:
    """The row of a point no placement can hold: its identity and why."""
    (model, n, algorithm, mode, topology, base, overlap, bucket_bytes,
     chips_per_node, clamped, _, _, fabric) = point
    return {
        "model": model,
        "algorithm": algorithm,
        "mode": mode,
        "topology": topology,
        "chips": n,
        "chips_per_node": chips_per_node,
        "overlap": overlap,
        "bucket_mb": (bucket_bytes / 2**20
                      if bucket_bytes is not None else None),
        "global_batch": base * n if mode == "weak" else base,
        "batch_clamped": clamped,
        "fabric": fabric,
        "refused": reason,
    }


def _auto_plan(model: str, algorithm: str, n_chips: int, global_batch: int,
               *, topology: str, bucket_bytes: int | None,
               chips_per_node: int, fabric: str | None, overlap: bool,
               hbm_gb: float | None) -> tuple[int, int] | str:
    """Resolve one point's ``(pp, tp)`` via the placement planner, or
    say why no placement holds it."""
    from repro.training import Algorithm
    from repro.training.memory import DEFAULT_CAPACITY_BYTES
    from repro.training.plan import plan_placement
    from repro.workloads import build_model

    capacity = (int(hbm_gb * 2**30) if hbm_gb is not None
                else DEFAULT_CAPACITY_BYTES)
    placement = plan_placement(
        build_model(model), Algorithm(algorithm), n_chips, global_batch,
        capacity_bytes=capacity, topology=topology,
        bucket_bytes=bucket_bytes,
        chips_per_node=chips_per_node if topology == "hierarchical" else 1,
        fabric=fabric, overlap=overlap)
    best = placement.best
    if best is None:
        reasons = sorted({c.reason for c in placement.candidates
                          if not c.feasible})
        return (f"no feasible DP x PP x TP placement at batch "
                f"{global_batch} ({placement.budget_bytes / 2**30:.1f} GiB "
                f"budget): " + "; ".join(reasons))
    return best.pp, best.tp


def annotate(rows: list[dict]) -> list[dict]:
    """Attach speedup / efficiency relative to each series' baseline.

    A series is one (model, algorithm, mode, topology, chips-per-node,
    overlap, bucket) group; its baseline is the smallest swept chip
    count.  Both
    regimes compare throughput (examples per second), which reduces to
    the plain latency ratio under strong scaling and to step-time
    flatness under weak scaling.  Efficiency is speedup over the ideal
    chip ratio.  A refusal row (``--plan auto`` on a point no placement
    holds) is passed through and is no series' baseline.
    """
    def series_key(row: dict) -> tuple:
        return (row["model"], row["algorithm"], row["mode"],
                row["topology"], row.get("chips_per_node", 1),
                row.get("overlap", True), row.get("bucket_mb"),
                row.get("fabric"))

    baselines: dict[tuple, dict] = {}
    for row in rows:
        best = baselines.get(series_key(row))
        if "refused" not in row and (best is None
                                     or row["chips"] < best["chips"]):
            baselines[series_key(row)] = row
    out = []
    for row in rows:
        if "refused" in row:
            out.append(row)
            continue
        base = baselines[series_key(row)]
        throughput = row["global_batch"] / row["step_ms"]
        base_throughput = base["global_batch"] / base["step_ms"]
        speedup = throughput / base_throughput
        out.append({**row,
                    "speedup": speedup,
                    "efficiency": speedup * base["chips"] / row["chips"]})
    return out


def render(rows: list[dict] | None = None) -> str:
    """The scaling sweep as a text table.

    Batches clamped up to ``lcm(chips)`` (see
    :func:`default_global_batch_info`) are marked ``*`` in the
    ``Global B`` column, with a footnote — those points exceed one
    chip's HBM and measure latency scaling only.  A refusal row reads
    ``refused†``, with its reason in a footnote.
    """
    rows = annotate(rows if rows is not None else run())
    mode = rows[0]["mode"] if rows else "strong"
    topology = rows[0]["topology"] if rows else "ring"
    overlap = rows[0].get("overlap", True) if rows else True
    bucket_mb = rows[0].get("bucket_mb") if rows else None
    any_clamped = any(row.get("batch_clamped") for row in rows)
    any_3d = any(row.get("pp", 1) * row.get("tp", 1) > 1 for row in rows)

    def grid_label(row: dict) -> str:
        if "refused" in row:
            return "-"
        pp, tp = row.get("pp", 1), row.get("tp", 1)
        dp = row["chips"] // (pp * tp)
        return f"dp{dp}·pp{pp}·tp{tp}"

    table = [
        [row["model"], row["algorithm"], row["chips"],
         *([grid_label(row)] if any_3d else []),
         (f"{row['global_batch']}*" if row.get("batch_clamped")
          else row["global_batch"]),
         *(["refused†"] + ["-"] * 5 if "refused" in row else [
             row["step_ms"], row["comm_ms"],
             row.get("comm_total_ms", row["comm_ms"]),
             100.0 * row["comm_fraction"],
             row["speedup"], row["efficiency"]])]
        for row in rows
    ]
    comm_label = ("bucketed " if bucket_mb else "") + topology
    overlap_label = "overlapped" if overlap else "serial"
    text = format_table(
        ["Model", "Algorithm", "Chips",
         *(["Plan"] if any_3d else []), "Global B", "Step ms",
         "Comm ms", "Comm tot", "Comm %", "Speedup", "Efficiency"],
        table,
        title=(f"Multi-chip data-parallel scaling ({mode} scaling, "
               f"{comm_label} allreduce, {overlap_label} comm)"),
    )
    if any_clamped:
        text += ("\n* global batch clamped up to lcm(chips) — exceeds "
                 "one chip's max DP-SGD batch (latency model only, not "
                 "capacity-feasible)")
    for row in rows:
        if "refused" in row:
            chips = f"{row['chips']} chip" + "s" * (row["chips"] != 1)
            text += (f"\n† {row['model']}/{row['algorithm']} on {chips}: "
                     f"{row['refused']}")
    return text


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

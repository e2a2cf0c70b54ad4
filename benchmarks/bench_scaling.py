"""Benchmark: multi-chip scaling smoke sweep + overlap model record.

Runs a small chips x topology x overlap sweep through the cached
experiment runner (in-process, serial) and persists both the modeled
step times and the sweep wall-clock to ``BENCH_scaling.json`` at the
repo root, so CI exercises the overlap-aware communication flags on
every commit and tracks the closed-form sweep's throughput.
"""

import json
import time
from pathlib import Path

from repro.experiments import scaling

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"

#: One CNN keeps the sweep fast; the communication model is
#: workload-agnostic beyond the payload size.
MODEL = "SqueezeNet"
CHIPS = (1, 2, 4, 8)
BUCKET_BYTES = 2**20


def _sweep(topology: str, chips_per_node: int, overlap: bool) -> list[dict]:
    return scaling.run(
        models=(MODEL,), chips=CHIPS, algorithms=("DP-SGD",),
        topology=topology, chips_per_node=chips_per_node,
        bucket_bytes=BUCKET_BYTES, overlap=overlap, jobs=1)


def test_scaling_smoke_sweep(capsys):
    """Sweep chips x topology x overlap; persist the record to JSON."""
    configs = [
        ("ring", 1, True),
        ("ring", 1, False),
        ("hierarchical", 2, True),
        ("hierarchical", 2, False),
    ]
    start = time.perf_counter()
    points = []
    by_config: dict[tuple, list[dict]] = {}
    for topology, cpn, overlap in configs:
        rows = _sweep(topology, cpn, overlap)
        assert len(rows) == len(CHIPS)
        by_config[(topology, cpn, overlap)] = rows
        for row in rows:
            points.append({
                "model": row["model"],
                "chips": row["chips"],
                "topology": row["topology"],
                "chips_per_node": row["chips_per_node"],
                "overlap": row["overlap"],
                "bucket_mb": row["bucket_mb"],
                "step_ms": row["step_ms"],
                "comm_ms": row["comm_ms"],
                "comm_total_ms": row["comm_total_ms"],
            })
    wall = time.perf_counter() - start

    # The overlap model's core guarantee, exercised on every CI run:
    # exposed communication never exceeds the serial charge, and the
    # total wire time is schedule-invariant.
    for topology, cpn, _ in configs:
        for on, off in zip(by_config[(topology, cpn, True)],
                           by_config[(topology, cpn, False)]):
            assert on["chips"] == off["chips"]
            assert on["comm_ms"] <= off["comm_ms"] + 1e-9
            assert on["step_ms"] <= off["step_ms"] + 1e-9
            assert on["comm_total_ms"] == off["comm_total_ms"]

    payload = {
        "benchmark": "scaling_smoke_sweep",
        "model": MODEL,
        "chips": list(CHIPS),
        "bucket_bytes": BUCKET_BYTES,
        "points": points,
        "wall_seconds": wall,
        "points_per_sec": len(points) / wall,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print(f"\nscaling smoke sweep — {len(points)} points in "
              f"{wall:.2f}s -> {BENCH_JSON.name}")
    # Loose floor: the closed-form sweep should stay interactive.
    assert wall < 60.0


def _timed(fn, *args, **kwargs):
    """Time ``fn`` cold: no GEMM stats, lowered schedules or networks
    memoized by earlier tests in this process."""
    from repro.arch.engine import clear_gemm_stats_cache
    from repro.training.batch import clear_lowered_step_cache
    from repro.workloads.zoo import clear_model_cache

    clear_gemm_stats_cache()
    clear_lowered_step_cache()
    clear_model_cache()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_batched_sweep_speedup_vs_pool(capsys):
    """Record the batched engine's speedup over the process pool.

    The ``scaling`` and ``design-space`` sweeps are fully analytic and
    route through the batched closed-form engine; this benchmark times
    the same grids through the legacy process-pool path, asserts the
    rows are value-identical, and appends the measured speedups to
    ``BENCH_scaling.json`` (floor-checked in CI).
    """
    from repro.experiments import design_space, runner

    scaling_work = []
    for model in ("SqueezeNet", "MobileNet", "VGG-16"):
        base, clamped = scaling.default_global_batch_info(
            model, (1, 2, 4, 8))
        for algorithm in ("DP-SGD", "DP-SGD(R)", "SGD"):
            for chips in (1, 2, 4, 8):
                for bucket in (None, 2**20, 4 * 2**20):
                    scaling_work.append(
                        (model, chips, algorithm, "strong", "ring", base,
                         True, bucket, 1, clamped, 1, 1, None))
    design_work = [(model, h, h)
                   for model in ("SqueezeNet", "MobileNet")
                   for h in (32, 48, 64, 96, 128, 160, 192, 256)]

    sections = {}
    for name, work, batched_fn, scalar_fn in (
        ("scaling", scaling_work, scaling.evaluate_points_batched,
         scaling.evaluate_point),
        ("design_space", design_work, design_space.evaluate_points_batched,
         design_space.evaluate_point),
    ):
        batched_rows, batched_s = _timed(batched_fn, work)
        pool_rows, pool_s = _timed(
            runner.sweep, scalar_fn, work, star=True)
        assert batched_rows == pool_rows  # value-identical, not close
        sections[name] = {
            "points": len(work),
            "batched_seconds": batched_s,
            "pool_seconds": pool_s,
            "speedup": pool_s / batched_s,
        }

    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload["batched_vs_pool"] = sections
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        for name, section in sections.items():
            print(f"\n{name}: batched {section['batched_seconds']*1e3:.0f}ms"
                  f" vs pool {section['pool_seconds']*1e3:.0f}ms -> "
                  f"{section['speedup']:.1f}x")
    for section in sections.values():
        assert section["speedup"] >= 5.0


#: Design-space models (the perfbench ``sweep`` set) and array sides:
#: every fourth side gives the 16-geometry grid, all of them the 256.
DESIGN_MODELS = ("SqueezeNet", "MobileNet", "ResNet-50", "VGG-16",
                 "BERT-base")
DESIGN_SIDES = tuple(range(32, 288, 16))


def test_design_space_geometry_scaling(capsys):
    """Time the design-space grid at 16 and at 256 array geometries.

    ``training_step_batch`` prices every geometry of an engine class in
    one pass, so a grid's points per second should hold or grow with
    its geometry count.  Records a ``design_space_geometries`` section
    in ``BENCH_scaling.json`` (best of three cold runs each); CI floors
    the 256-geometry rate (``tools/check_bench.py``).
    """
    from repro.experiments import design_space

    sections = {}
    for sides in (DESIGN_SIDES[::4], DESIGN_SIDES):
        work = [(model, height, width) for model in DESIGN_MODELS
                for height in sides for width in sides]
        seconds = min(_timed(design_space.evaluate_points_batched, work)[1]
                      for _ in range(3))
        sections[str(len(sides) ** 2)] = {
            "points": len(work),
            "seconds": seconds,
            "points_per_sec": len(work) / seconds,
        }

    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload["design_space_geometries"] = sections
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        for geometries, section in sections.items():
            print(f"\ndesign space, {geometries} geometries — "
                  f"{section['points']} points in "
                  f"{section['seconds'] * 1e3:.0f}ms "
                  f"({section['points_per_sec']:.0f}/s)")


def test_grid3d_sweep(capsys):
    """Time a batched DP x PP x TP grid and persist its throughput.

    Sweeps every (pp, tp) factorization of an 8-chip cluster across
    two fabrics, checks the batched rows stay value-identical to the
    scalar 3D simulator (the pinned oracle), and records a ``grid3d``
    section in ``BENCH_scaling.json`` (floor-checked in CI) so the
    pipeline-schedule path cannot silently fall back to a slow loop.
    """
    chips = 8
    grids = [(pp, tp) for pp in (1, 2, 4, 8) for tp in (1, 2, 4, 8)
             if pp * tp <= chips and chips % (pp * tp) == 0]
    work = []
    for model in ("SqueezeNet", "VGG-16"):
        base, clamped = scaling.default_global_batch_info(model, (chips,))
        for pp, tp in grids:
            for fabric in (None, "two-tier"):
                work.append((model, chips, "DP-SGD", "strong", "ring",
                             base, True, BUCKET_BYTES, 1, clamped,
                             pp, tp, fabric))

    batched_rows, wall = _timed(scaling.evaluate_points_batched, work)
    scalar_rows = [scaling.evaluate_point(*point) for point in work]
    assert batched_rows == scalar_rows  # value-identical, not close

    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload["grid3d"] = {
        "points": len(work),
        "wall_seconds": wall,
        "points_per_sec": len(work) / wall,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print(f"\n3D-grid sweep — {len(work)} points in {wall*1e3:.0f}ms "
              f"({len(work) / wall:.0f}/s)")

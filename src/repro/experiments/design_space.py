"""Design-space exploration beyond the paper's Table II point.

The paper evaluates one array geometry (128x128 at 940 MHz).  With the
closed-form GEMM cycle engine, sweeping the geometry is cheap enough to
explore systematically: this experiment evaluates DiVa-over-WS DP-SGD(R)
speedup (and DiVa utilization) across PE-array shapes and models.  The
sweep is fully analytic, so every cache-missing point is priced in one
batched in-process evaluation
(:func:`repro.training.training_step_batch` via
:func:`repro.experiments.runner.cached_batch`), with one JSON cache
entry per point so extending the swept set only computes the new
combinations; :func:`evaluate_point` prices one point as a length-1
grid.

Run it from the CLI::

    python -m repro design-space --models VGG-16 BERT-large \
        --heights 64 128 256 --cache-dir .repro_cache
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments import runner
from repro.experiments.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler

#: PE-array heights swept by default (width mirrors height).
DEFAULT_HEIGHTS = (64, 128, 256)
#: Models evaluated by default (one CNN, one transformer).
DEFAULT_MODELS = ("VGG-16", "BERT-large")


def evaluate_point(name: str, height: int, width: int,
                   input_size: int = 32, seq_len: int = 32) -> dict:
    """One design point: DiVa vs WS at one array geometry (picklable).

    Returns a JSON-serializable dict so results can be persisted by
    :func:`repro.experiments.runner.cached_batch`; it is
    :func:`evaluate_points_batched` on this one work tuple.
    """
    return evaluate_points_batched(
        [(name, height, width, input_size, seq_len)])[0]


def _design_config(height: int, width: int) -> "DivaConfig":
    """The shared WS/DiVa architecture config of one design point."""
    from repro.arch.engine import ArrayConfig
    from repro.core.config import DivaConfig
    from repro.core.ppu import PpuConfig

    array = ArrayConfig(height=height, width=width)
    # The PPU trees must span one PE-array row (DivaConfig invariant).
    ppu = PpuConfig(num_trees=array.drain_rows_per_cycle,
                    tree_width=max(width, 2))
    return DivaConfig(array=array, ppu=ppu)


def evaluate_points_batched(points: list[tuple]) -> list[dict]:
    """Rows of :func:`evaluate_point` work tuples, priced as one grid.

    Each distinct network and each distinct geometry's pair of design
    points (the WS baseline and DiVa) is built once, and every point
    becomes two specs of one
    :func:`repro.training.training_step_batch` call, which prices every
    geometry of an engine class in one pass.  A work tuple may stop
    after ``width``; the omitted trailing fields take
    :func:`evaluate_point`'s defaults.
    """
    from repro.core import build_accelerator
    from repro.training import Algorithm, max_batch_size
    from repro.training.batch import training_step_batch
    from repro.workloads import build_model

    defaults = evaluate_point.__defaults__ or ()
    points = [tuple(point) + defaults[len(point) - 3:] for point in points]
    networks = {
        key: build_model(key[0], input_size=key[1], seq_len=key[2])
        for key in dict.fromkeys((name, input_size, seq_len) for
                                 name, _, _, input_size, seq_len in points)}
    batches = {key: max_batch_size(network, Algorithm.DP_SGD)
               for key, network in networks.items()}
    designs = {
        (height, width): [build_accelerator(
            kind, with_ppu=(kind == "diva"),
            config=_design_config(height, width)) for kind in ("ws", "diva")]
        for height, width in dict.fromkeys(
            (height, width) for _, height, width, _, _ in points)}
    specs = [(accel, networks[name, input_size, seq_len],
              Algorithm.DP_SGD_R, batches[name, input_size, seq_len])
             for name, height, width, input_size, seq_len in points
             for accel in designs[height, width]]

    seconds = training_step_batch(specs).total_seconds.tolist()
    return [
        {
            "model": name,
            "height": height,
            "width": width,
            "batch": batches[name, input_size, seq_len],
            "ws_ms": ws_s * 1e3,
            "diva_ms": diva_s * 1e3,
            "speedup": ws_s / diva_s,
        }
        for (name, height, width, input_size, seq_len), ws_s, diva_s in zip(
            points, seconds[::2], seconds[1::2])
    ]


def run(
    models: tuple[str, ...] = DEFAULT_MODELS,
    heights: tuple[int, ...] = DEFAULT_HEIGHTS,
    widths: tuple[int, ...] | None = None,
    input_size: int = 32,
    seq_len: int = 32,
    jobs: int | None = None,
    cache: "runner.ResultCache | None" = None,
    stats: "runner.CacheStats | None" = None,
    profiler: "Profiler | None" = None,
) -> list[dict]:
    """Sweep the design space; one row per (model, height, width).

    ``stats`` tallies cache hit/miss/stale outcomes (surfaced by the
    ``design-space`` CLI); ``profiler`` times the lookup/compute/write
    stages.
    """
    square_only = widths is None
    widths = widths or heights
    work = [(name, h, w, input_size, seq_len)
            for name in models for h in heights for w in widths
            if not square_only or h == w]
    # One cache entry per point: growing the swept set only computes
    # the new combinations.  The sweep is fully analytic, so misses are
    # priced in one batched in-process evaluation (`jobs` is accepted
    # for API stability; no workers are needed).  Key v2:
    # ``input_size`` and ``seq_len`` shape the built model, so they are
    # part of the key (v1 omitted them — a stale-hit bug found by
    # repro-lint R002; the added fields re-hash every entry,
    # invalidating v1 caches).
    del jobs
    return runner.cached_batch(
        evaluate_points_batched, work, cache=cache,
        stats=stats, profiler=profiler,
        key_fn=lambda point: {"experiment": "design_space",
                              "model": point[0], "height": point[1],
                              "width": point[2],
                              "input_size": point[3],
                              "seq_len": point[4]},
    )


def render(rows: list[dict] | None = None) -> str:
    """The design-space sweep as a text table."""
    rows = rows or run()
    table = [
        [row["model"], f'{row["height"]}x{row["width"]}', row["batch"],
         row["ws_ms"], row["diva_ms"], row["speedup"]]
        for row in rows
    ]
    return format_table(
        ["Model", "Array", "Batch", "WS ms", "DiVa ms", "DiVa/WS"],
        table,
        title="Design-space sweep: DP-SGD(R) step latency vs array shape",
    )


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())

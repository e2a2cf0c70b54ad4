"""Repository benchmark: fleet serving, faults + trace export, batched sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload serve-dispatch --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Each measured run executes in its own fresh, single-threaded
interpreter (``worker.py``), one at a time, until the next run would
end past ``--seconds`` (at least three runs, or one untraced/traced
pair).  ``--trace 0`` reports the end-to-end metrics, medians over the
runs: ``setup_s`` (process start until the workload's modules are
imported), ``wall_ref`` (the timed pipeline's ``wall_s`` over the
reference kernel's ``ref_s`` timed around it in the same process, see
``worker.py``) and ``peak_rss_mb`` (the run's own process).  The raw
host times (``wall_s``, the fastest run's ``items_per_s``) are printed
and kept in the result file.  ``--trace 1`` instead reports the
per-layer metrics of traced runs (medians), timed by wrappers around
the program's public entry points (``tracing.py``), plus the tracing
overhead (median of traced over untraced ``wall_ref``, pair by pair).

Every run's outputs are checked (outside the timed section) and every
run prints a digest of its simulated statistics, which must repeat
exactly across runs of one seed.  A result file per
(workload, seed, trace) is written under ``.perfbench/results``;
``--compare`` reports any digest or counter difference between two of
them, so a speed-only change can show that simulated statistics did
not move.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTERS, LAYER_UNITS  # noqa: E402
from workloads import SERVE, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}
HOST_UNITS = {
    "wall_s": "s",
    "best_wall_s": "s",
    "items_per_s": "1/s",
    "ref_s": "s",
}
MIN_RUNS = 3
#: No worker may still run this many seconds after this process started
#: (a hung run is then killed), so every invocation ends within 180 s.
HARD_LIMIT_S = 160.0
OUT_DIR = Path(".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Runner:
    """Runs one workload and seed, one fresh worker process per run."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.scratch = root / OUT_DIR / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.spans = root / OUT_DIR / "spans" / f"{workload}-seed{seed}.json"
        self.spans.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.update({name: "1" for name in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_PARALLEL"] = "0"
        # A developer's persistent cache would turn the serve step table
        # into disk hits; the sweep brings its own temporary cache.
        env.pop("REPRO_CACHE_DIR", None)
        self.env = env
        self.errors: list[str] = []

    def remaining_s(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def run_once(self, traced: bool) -> dict | None:
        """One run in a fresh worker; its record (with ``setup_s``), or
        None after recording why it failed."""
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--scratch", str(self.scratch)]
        if traced:
            command += ["--traced", "--spans", str(self.spans)]
        start = time.monotonic()
        try:
            proc = subprocess.run(command, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(self.remaining_s(), 1.0))
        except subprocess.TimeoutExpired:
            self.errors.append("worker timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"worker exited {proc.returncode}: {tail[0]}")
            return None
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup_s"] = record.pop("ready_monotonic") - start
        return record

    def measure(self, seconds: float, traced: bool
                ) -> tuple[list[dict], list[tuple[dict, dict]], int]:
        """``(untraced runs, (untraced, traced) pairs, attempted)``.

        Untraced runs repeat until the next would end past ``seconds``
        (at least :data:`MIN_RUNS`); with ``traced`` each step is an
        untraced/traced pair instead (at least one pair).
        """
        plain: list[dict] = []
        pairs: list[tuple[dict, dict]] = []
        attempted = 0
        deadline = time.monotonic() + seconds
        longest = 0.0
        while True:
            step_start = time.monotonic()
            attempted += 2 if traced else 1
            base = self.run_once(traced=False)
            other = self.run_once(traced=True) if traced and base else None
            # A run that raised would raise again: stop measuring.
            if base is None or (traced and other is None):
                return plain, pairs, attempted
            plain.append(base)
            if other is not None:
                pairs.append((base, other))
            longest = max(longest, time.monotonic() - step_start)
            steps = attempted // (2 if traced else 1)
            enough = steps >= (1 if traced else MIN_RUNS)
            end = time.monotonic() + longest
            if (enough and end > deadline) or \
                    end > self.started + HARD_LIMIT_S - 10.0:
                return plain, pairs, attempted


def source_sha256(root: Path) -> str:
    """Hash of the program and benchmark sources (the code measured)."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(root: Path, runs: list[dict]) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "machine": platform.node(),
        "arch": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def check_repeats(runs: list[dict], key: str,
                  names: tuple[str, ...] | None = None) -> list[str]:
    """Differences of ``run[key]`` between runs (restricted to ``names``)."""
    def view(run: dict) -> dict:
        values = run[key]
        return values if names is None else \
            {name: values[name] for name in names}

    first = view(runs[0])
    problems = []
    for index, run in enumerate(runs[1:], 1):
        diff = sorted(name for name in set(first) | set(view(run))
                      if first.get(name) != view(run).get(name))
        if diff:
            problems.append(f"{key} of run {index} differs from run 0 "
                            f"in {', '.join(diff)}")
    return problems


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """The end-to-end metrics: medians over the untraced runs."""
    return {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "wall_ref": statistics.median(run["wall_s"] / run["ref_s"]
                                      for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def host_figures(runs: list[dict]) -> dict[str, float]:
    """Host-speed-dependent figures, printed and kept in the result file.

    Other tenants of a shared host slow every run by 40-70 % in regimes
    lasting minutes, so these spread too widely across invocations to
    bound a regression; ``wall_ref`` is their steady form.  The fastest
    run is the least contended one.
    """
    best = min(runs, key=lambda run: run["wall_s"])
    return {
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "best_wall_s": best["wall_s"],
        "items_per_s": best["items"] / best["wall_s"],
        "ref_s": statistics.median(run["ref_s"] for run in runs),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Medians over the traced runs; the overhead is the median of each
    pair's traced over untraced ``wall_ref`` (the two ran back to back;
    the reference cancels a change of host speed between them)."""
    traced = [other for _, other in pairs]
    values = {name: statistics.median(run["layers"][name] for run in traced)
              for name in traced[0]["layers"]}
    values["bench.trace_overhead"] = statistics.median(
        (other["wall_s"] / other["ref_s"]) / (base["wall_s"] / base["ref_s"])
        for base, other in pairs)
    return values


def compare(old_path: str, new_path: str) -> int:
    """Print digest and counter differences; 1 if there are any."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    broken = []
    for field in ("workload", "seed"):
        if old[field] != new[field]:
            print(f"note: {field} differs ({old[field]} vs {new[field]}); "
                  "digests are only comparable on one workload and seed")
    for key in ("digest", "counters"):
        a, b = old.get(key) or {}, new.get(key) or {}
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                broken.append(name)
                print(f"{key} {name}: {a.get(name)!r} -> {b.get(name)!r}")
    print("digest and counters identical" if not broken
          else f"{len(broken)} digest/counter values differ")
    return 1 if broken else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    traced = bool(args.trace)
    plain, pairs, attempted = runner.measure(args.seconds, traced)
    shutil.rmtree(runner.scratch, ignore_errors=True)
    if not plain or (traced and not pairs):
        print(f"perfbench: no run completed: {runner.errors}",
              file=sys.stderr)
        return 1
    traced_runs = [other for _, other in pairs]
    runs = plain + traced_runs
    failed = attempted - len(runs) + sum(1 for run in runs if run["errors"])
    defects = [f"check: {error}" for run in runs for error in run["errors"]]
    defects += [f"run: {error}" for error in runner.errors]
    # Simulated statistics depend only on the seed, never on tracing.
    repeat_errors = check_repeats(runs, "digest")
    counters: dict[str, float] = {}
    if traced_runs:
        repeat_errors += check_repeats(traced_runs, "layers", EXACT_COUNTERS)
        counters = {name: traced_runs[0]["layers"][name]
                    for name in EXACT_COUNTERS}

    e2e = end_to_end(plain)
    host = host_figures(plain)
    layers = per_layer(pairs) if pairs else {}
    result_path = (root / OUT_DIR / "results"
                   / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    code = stamp(root, runs)
    # Counters and digest must also repeat across invocations on the
    # same code; the previous result of this configuration is the witness.
    if result_path.exists():
        previous = json.loads(result_path.read_text())
        if previous["stamp"]["source_sha256"] == code["source_sha256"]:
            for key, now in (("digest", runs[0]["digest"]),
                             ("counters", counters)):
                if previous.get(key) and previous[key] != now:
                    repeat_errors.append(
                        f"{key} differs from the previous invocation")
    failed = min(attempted, failed + bool(repeat_errors))
    defects += [f"repeat: {error}" for error in repeat_errors]

    units = {**END_TO_END_UNITS, **HOST_UNITS, **LAYER_UNITS}
    reported = layers if traced else e2e
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in reported.items()}
    everything = {**e2e, **host, **layers}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": code,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "samples": {"runs": len(plain), "traced_runs": len(traced_runs)},
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in everything.items()},
        "wall_s_samples": [run["wall_s"] for run in plain],
        "ref_s_samples": [run["ref_s"] for run in plain],
        "traced_wall_s_samples": [run["wall_s"] for run in traced_runs],
        "setup_s_samples": [run["setup_s"] for run in plain],
        "peak_rss_mb_samples": [run["peak_rss_mb"] for run in plain],
        "digest": runs[0]["digest"],
        "counters": counters,
        "defects": defects,
    }
    if args.workload not in SERVE:
        record["warm_s_samples"] = [run["warm_s"] for run in plain]
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} runs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.3f}); {len(plain)} untraced "
          f"and {len(traced_runs)} traced runs")
    for name, value in everything.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")
    print(f"  digest: {json.dumps(runs[0]['digest'], sort_keys=True)}")
    for defect in defects:
        print(f"  DEFECT {defect}")
    print(f"  stamp: {json.dumps(code, sort_keys=True)}")
    print(f"  result file: {result_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the ``repro.analysis`` invariant linter.

Each rule gets one passing and one failing fixture (lint runs over a
temp file, so the fixtures cannot pollute the repo's own lint state),
plus a meta-test asserting the repo itself lints clean modulo the
checked-in baseline, and a cache regression test for the stale-hit bug
rule R002 originally surfaced in the design-space sweep.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import (
    Project, all_rules, load_baseline, run_rules, split_baseline,
)
from repro.analysis.units import unit_of_name

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_CLI = REPO_ROOT / "tools" / "repro_lint.py"
BASELINE = REPO_ROOT / "tools" / "lint_baseline.txt"

# Composed at runtime so the drift rule's textual scan of tests/ does
# not count this file as the fixture's "pinned equivalence test".
HIDDEN_BATCH_NAME = "drifted" + "_batch"


def lint_source(tmp_path, source, select=None):
    """Findings for one fixture file, optionally filtered by rule id."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    project = Project.load(REPO_ROOT, [path])
    rules = [rule for rule in all_rules()
             if select is None or rule.rule_id in select]
    return run_rules(project, rules)


def rule_ids(findings):
    return sorted({finding.rule_id for finding in findings})


# ---------------------------------------------------------------------------
# R001: units of measure
# ---------------------------------------------------------------------------

def test_units_suffix_inference():
    assert unit_of_name("total_cycles") == "cycles"
    assert unit_of_name("arrival_s") == "seconds"
    assert unit_of_name("total_seconds") == "seconds"
    assert unit_of_name("payload_bytes") == "bytes"
    assert unit_of_name("frequency_hz") == "hz"
    assert unit_of_name("target_eps") == "eps"
    # batch suffixes strip; compound units have no single unit
    assert unit_of_name("allreduce_seconds_batch") == "seconds"
    assert unit_of_name("bytes_per_cycle") is None
    assert unit_of_name("link_bandwidth_bytes_per_s") is None
    assert unit_of_name("chips") is None


def test_units_pass(tmp_path):
    findings = lint_source(tmp_path, """
        def total_cycles(compute_cycles, drain_cycles, frequency_hz):
            busy_cycles = compute_cycles + drain_cycles
            wall_seconds = busy_cycles / frequency_hz
            del wall_seconds
            return max(busy_cycles, drain_cycles)
    """, select={"R001"})
    assert findings == []


def test_units_fail(tmp_path):
    findings = lint_source(tmp_path, """
        def total_cycles(compute_cycles, wall_seconds):
            total = compute_cycles + wall_seconds
            return total
    """, select={"R001"})
    assert rule_ids(findings) == ["R001"]
    assert "mixes cycles and seconds" in findings[0].message


def test_units_flags_return_and_keyword(tmp_path):
    findings = lint_source(tmp_path, """
        def run(x_seconds):
            record(busy_cycles=x_seconds)

        def total_seconds(x_cycles):
            return x_cycles
    """, select={"R001"})
    messages = " / ".join(finding.message for finding in findings)
    assert "busy_cycles" in messages
    assert "declares seconds but returns cycles" in messages


def test_units_conversions_are_clean(tmp_path):
    findings = lint_source(tmp_path, """
        def seconds(cycles, frequency_hz):
            return cycles / frequency_hz

        def cycles(seconds, frequency_hz):
            return seconds * frequency_hz
    """, select={"R001"})
    assert findings == []


# ---------------------------------------------------------------------------
# R002: cache-key completeness
# ---------------------------------------------------------------------------

CACHE_FIXTURE = """
    from repro.experiments import runner

    def evaluate_points_batched(points):
        return [point[0] * point[1] + point[{index}] for point in points]

    def run(cache=None):
        work = [(1, 2, 3)]
        return runner.cached_batch(
            evaluate_points_batched, work, cache=cache,
            key_fn=lambda point: {{"experiment": "fixture",
                                   "a": point[0], "b": point[1],
                                   "c": point[2]}})
"""


def test_cache_key_pass(tmp_path):
    findings = lint_source(
        tmp_path, CACHE_FIXTURE.format(index=2), select={"R002"})
    assert findings == []


def test_cache_key_fail_index(tmp_path):
    findings = lint_source(
        tmp_path, CACHE_FIXTURE.format(index=3), select={"R002"})
    assert rule_ids(findings) == ["R002"]
    assert "[3]" in findings[0].message


def test_cache_key_fail_attribute(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.experiments import runner

        def predict(fleet, job, cache=None):
            def evaluate(jobs):
                return [simulate(fleet.kind, fleet.chips, job.model)
                        for _ in jobs]

            return runner.cached_batch(
                evaluate, [job], cache=cache,
                key_fn=lambda item: {"kind": fleet.kind,
                                     "model": job.model})
    """, select={"R002"})
    assert rule_ids(findings) == ["R002"]
    assert "fleet.chips" in findings[0].message


def test_cache_key_alias_covers_derived_value(tmp_path):
    findings = lint_source(tmp_path, """
        import math
        from repro.experiments import runner

        def predict(fleet, job, cache=None):
            batch = math.ceil(job.batch / fleet.width) * fleet.width

            def evaluate(jobs):
                return [simulate(fleet.kind, batch) for _ in jobs]

            return runner.cached_batch(
                evaluate, [job], cache=cache,
                key_fn=lambda item: {"kind": fleet.kind, "batch": batch})
    """, select={"R002"})
    assert findings == []


# ---------------------------------------------------------------------------
# R003: scalar <-> batched drift
# ---------------------------------------------------------------------------

def test_drift_pass(tmp_path):
    findings = lint_source(tmp_path, """
        def evaluate(engine, size, overlap=True):
            return size if overlap else -size

        def evaluates_batch(engine, sizes, overlaps=True):
            return [evaluate(engine, s, overlaps) for s in sizes]
    """, select={"R003"})
    # the signature matches; the only finding may be the missing test,
    # which this very file's literals satisfy ("evaluates_batch").
    assert findings == []


def test_drift_fail_signature_and_test(tmp_path):
    findings = lint_source(tmp_path, f"""
        def drifted(engine, size, overlap=True):
            return size if overlap else -size

        def {HIDDEN_BATCH_NAME}(engine, sizes):
            return [drifted(engine, s) for s in sizes]
    """, select={"R003"})
    messages = " / ".join(finding.message for finding in findings)
    assert "parameter 'overlap' has no batched counterpart" in messages
    assert "no pinned equivalence test" in messages


def test_drift_packed_work_tuples_exempt(tmp_path):
    findings = lint_source(tmp_path, """
        def sample(name, height, width):
            return name, height, width

        def samples_batch(points):
            return [sample(*point) for point in points]
    """, select={"R003"})
    # equivalence-test check still applies; signature check is exempt
    assert all("counterpart" not in f.message for f in findings)


# ---------------------------------------------------------------------------
# R004: determinism
# ---------------------------------------------------------------------------

def test_determinism_pass(tmp_path):
    findings = lint_source(tmp_path, """
        import random
        import numpy as np

        def make(seed):
            rng = np.random.default_rng(seed)
            legacy = random.Random(seed)
            return rng, legacy
    """, select={"R004"})
    assert findings == []


def test_determinism_fail(tmp_path):
    findings = lint_source(tmp_path, """
        import random
        import numpy as np
        from numpy.random import default_rng

        def make():
            np.random.shuffle([1, 2, 3])
            a = np.random.default_rng()
            b = default_rng()
            c = random.random()
            d = random.Random()
            return a, b, c, d
    """, select={"R004"})
    assert len(findings) == 5
    assert rule_ids(findings) == ["R004"]


# ---------------------------------------------------------------------------
# R005: oracle-guard
# ---------------------------------------------------------------------------

ENGINE_FIXTURE = """
    class Base:
        grid_axes = None

        def tiles(self, gemm):
            raise NotImplementedError

        def tile_cycle_phases(self, tile):
            raise NotImplementedError

        def tile_sram_traffic(self, tile):
            raise NotImplementedError

        def tile_phases_batch(self, m, k, n):
            raise NotImplementedError

        def tile_traffic_batch(self, m, k, n):
            raise NotImplementedError


    class Closed(Base):
        grid_axes = ("m", "n")
    {body}
"""

FULL_BODY = "\n".join(
    f"""
        def {name}(self, *args):
            return 1"""
    for name in ("tiles", "tile_cycle_phases", "tile_sram_traffic",
                 "tile_phases_batch", "tile_traffic_batch"))


def test_oracle_guard_pass(tmp_path):
    findings = lint_source(
        tmp_path, ENGINE_FIXTURE.format(body=FULL_BODY), select={"R005"})
    assert findings == []


def test_oracle_guard_fail(tmp_path):
    # Base stubs (raise / abstract) are not real implementations, so
    # the bare subclass misses all five.
    findings = lint_source(
        tmp_path, ENGINE_FIXTURE.format(body="    pass"), select={"R005"})
    assert len(findings) == 5
    assert rule_ids(findings) == ["R005"]
    assert all("Closed" in finding.message for finding in findings)


# ---------------------------------------------------------------------------
# R006: wall-clock isolation
# ---------------------------------------------------------------------------

def test_walltime_flags_module_and_bare_clock_reads(tmp_path):
    findings = lint_source(tmp_path, """
        import time
        from time import perf_counter as pc

        def simulate():
            start = time.time()
            mid = time.monotonic()
            end = pc()
            return end - start + mid
    """, select={"R006"})
    assert rule_ids(findings) == ["R006"]
    assert len(findings) == 3
    assert any("time.time" in f.message for f in findings)
    assert any("'pc'" in f.message for f in findings)


def test_walltime_flags_datetime_now(tmp_path):
    findings = lint_source(tmp_path, """
        import datetime

        def stamp():
            return datetime.datetime.now()
    """, select={"R006"})
    assert rule_ids(findings) == ["R006"]


def test_walltime_allows_sleep_and_simulated_time(tmp_path):
    findings = lint_source(tmp_path, """
        import time

        def simulate(now_s, service_s):
            time.sleep(0.0)
            return now_s + service_s
    """, select={"R006"})
    assert findings == []


def test_walltime_allowlists_obs_and_run_all():
    """The sanctioned homes really are exempt (they read host clocks)."""
    from repro.analysis.walltime import WalltimeRule

    project = Project.load(REPO_ROOT, [
        REPO_ROOT / "src" / "repro" / "obs",
        REPO_ROOT / "src" / "repro" / "experiments" / "run_all.py"])
    assert run_rules(project, [WalltimeRule()]) == []
    # Sanity: the profiler actually contains host-clock reads, so the
    # empty result above is the allowlist at work, not a no-op scan.
    source = (REPO_ROOT / "src" / "repro" / "obs" / "profile.py")
    assert "perf_counter" in source.read_text()


# ---------------------------------------------------------------------------
# R007: link-rate homing
# ---------------------------------------------------------------------------

def test_bandwidth_flags_literal_rates(tmp_path):
    findings = lint_source(tmp_path, """
        def price(payload_bytes, bandwidth=100e9, latency=1e-6):
            return payload_bytes / bandwidth + latency

        cross_bandwidth = 25e9
        total = price(10, bandwidth=2 * 2**30)
    """, select={"R007"})
    assert rule_ids(findings) == ["R007"]
    assert len(findings) == 4
    assert any("'cross_bandwidth'" in f.message for f in findings)


def test_bandwidth_allows_named_constants_and_memory_rates(tmp_path):
    findings = lint_source(tmp_path, """
        from repro.arch.interconnect import DEFAULT_LINK_BANDWIDTH_BYTES_PER_S

        dram_bandwidth_bytes_per_s = 900e9
        sram_latency_s = 1e-9

        def price(payload_bytes,
                  bandwidth=DEFAULT_LINK_BANDWIDTH_BYTES_PER_S):
            return payload_bytes / bandwidth
    """, select={"R007"})
    assert findings == []


def test_bandwidth_allowlists_interconnect_home():
    """The sanctioned homes hold literal rates without findings."""
    from repro.analysis.bandwidth import BandwidthHomingRule

    project = Project.load(REPO_ROOT, [
        REPO_ROOT / "src" / "repro" / "arch" / "interconnect.py",
        REPO_ROOT / "src" / "repro" / "arch" / "memory.py",
        REPO_ROOT / "src" / "repro" / "arch" / "gpu.py"])
    assert run_rules(project, [BandwidthHomingRule()]) == []
    # Sanity: the fabric presets really are literal link rates, so the
    # empty result above is the allowlist at work, not a no-op scan.
    source = (REPO_ROOT / "src" / "repro" / "arch" / "interconnect.py")
    assert "300e9" in source.read_text()


# ---------------------------------------------------------------------------
# R009: test-only definitions
# ---------------------------------------------------------------------------

LIBRARY = """
    def helper(n):
        return helper(n - 1) if n else 0  # its own body is no use
"""
TEST_USE = """
    from repro.mod import helper

    def test_helper():
        assert helper(2) == 0
"""


def lint_tree(root, files, allowlist=None):
    """R009 findings over a fixture repository laid out under ``root``."""
    from repro.analysis.testonly import OnlyTestedRule

    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    project = Project.load(root, [root / "src" / "repro"])
    return run_rules(project, [OnlyTestedRule(allowlist or {})])


def test_r009_flags_definition_used_only_from_tests(tmp_path):
    findings = lint_tree(tmp_path, {"src/repro/mod.py": LIBRARY,
                                    "tests/test_mod.py": TEST_USE})
    assert [(f.rule_id, f.path, f.message) for f in findings] == [
        ("R009", "src/repro/mod.py",
         "'repro.mod.helper' is not referenced outside tests/")]


def test_r009_flags_what_only_test_only_code_uses(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/mod.py": LIBRARY + """
    class Result:
        pass

    def oracle():
        return Result(), helper(1)

    def runtime():
        return 0

    print(runtime())
""",
        "tests/test_mod.py": "from repro.mod import oracle\noracle()\n",
    })
    assert sorted(f.message for f in findings) == [
        "'repro.mod.Result' is not referenced outside tests/",
        "'repro.mod.helper' is not referenced outside tests/",
        "'repro.mod.oracle' is not referenced outside tests/"]


def test_r009_passes_definition_used_from_examples(tmp_path):
    assert lint_tree(tmp_path, {
        "src/repro/mod.py": LIBRARY,
        "tests/test_mod.py": TEST_USE,
        "examples/demo.py": "from repro import mod\nprint(mod.helper(3))\n",
    }) == []


def test_r009_registered_class_passes(tmp_path):
    assert lint_tree(tmp_path, {"src/repro/mod.py": """
        from repro.registry import register

        @register
        class PluginRule:
            rule_id = "X001"
    """, "src/repro/registry.py": """
        def register(cls):
            return cls
    """}) == []


def test_r009_reexport_and_all_entry_do_not_count(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/mod.py": LIBRARY,
        "src/repro/__init__.py": """
            from repro.mod import helper

            __all__ = ["helper"]
        """,
    })
    assert [f.message for f in findings] == [
        "'repro.mod.helper' is not referenced outside tests/"]


def test_r009_allowlisted_name_and_what_it_uses_pass(tmp_path):
    assert lint_tree(tmp_path, {"src/repro/mod.py": LIBRARY + """
    def kept():
        return helper(1)
""", "tests/test_mod.py": TEST_USE},
                     allowlist={"repro.mod.kept": "kept on purpose"}) == []


def test_r009_stale_allowlist_entries_fail(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/mod.py": LIBRARY,
        "examples/demo.py": "from repro.mod import helper\nhelper(1)\n",
    }, allowlist={"repro.mod.helper": "now used by an example",
                  "repro.mod.gone": "deleted since"})
    assert sorted(f.message for f in findings) == [
        "stale allowlist entry 'repro.mod.gone': it is deleted",
        "stale allowlist entry 'repro.mod.helper': it is used outside "
        "tests/"]


def test_r009_allowlist_is_small_and_explained():
    from repro.analysis.testonly import ALLOWLIST

    assert len(ALLOWLIST) <= 12
    assert all(reason.strip() for reason in ALLOWLIST.values())


# ---------------------------------------------------------------------------
# framework: pragmas, baseline, CLI, registry
# ---------------------------------------------------------------------------

def test_inline_pragma_suppresses(tmp_path):
    findings = lint_source(tmp_path, """
        def total_cycles(a_cycles, b_seconds):
            return a_cycles + b_seconds  # repro-lint: ignore[R001] fixture
    """, select={"R001"})
    assert findings == []


def test_pragma_is_rule_specific(tmp_path):
    findings = lint_source(tmp_path, """
        def total_cycles(a_cycles, b_seconds):
            return a_cycles + b_seconds  # repro-lint: ignore[R004] wrong id
    """, select={"R001"})
    assert rule_ids(findings) == ["R001"]


def test_baseline_split(tmp_path):
    source = """
        def total_cycles(a_cycles, b_seconds):
            return a_cycles + b_seconds
    """
    findings = lint_source(tmp_path, source, select={"R001"})
    assert findings
    new, baselined, stale = split_baseline(
        findings, [finding.key for finding in findings] + ["bogus::R9::x"])
    assert new == [] and len(baselined) == len(findings)
    assert stale == ["bogus::R9::x"]


def test_registry_has_nine_rules():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == ["R001", "R002", "R003", "R004", "R005", "R006",
                   "R007", "R008", "R009"]
    assert all(rule.title for rule in all_rules())


def test_repo_lints_clean_modulo_baseline():
    project = Project.load(REPO_ROOT, [REPO_ROOT / "src" / "repro"])
    findings = run_rules(project)
    new, _, stale = split_baseline(findings, load_baseline(BASELINE))
    assert not new, "new lint findings:\n" + "\n".join(
        finding.render() for finding in new)
    assert not stale, f"stale baseline entries: {stale}"


def test_cli_strict_passes_on_repo():
    result = subprocess.run(
        [sys.executable, str(LINT_CLI), "--strict"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_reports_seeded_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand(4)\n")
    result = subprocess.run(
        [sys.executable, str(LINT_CLI), "--strict", str(bad)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "R004" in result.stdout


# ---------------------------------------------------------------------------
# regression: the stale-hit bug R002 surfaced in the design-space sweep
# ---------------------------------------------------------------------------

def test_design_space_key_includes_model_shape(tmp_path, cache_table):
    """Key v2: sweeps differing only in seq_len must not share entries.

    Key v1 hashed only (model, height, width), so a second sweep with a
    different sequence length silently returned the first sweep's rows.
    """
    from repro.experiments import design_space
    from repro.experiments.runner import ResultCache

    cache = ResultCache(tmp_path / "cache")
    short = design_space.run(models=("BERT-large",), heights=(64,),
                             seq_len=32, cache=cache)
    long = design_space.run(models=("BERT-large",), heights=(64,),
                            seq_len=64, cache=cache)
    assert len(cache_table(tmp_path / "cache").keys()) == 2
    assert short[0]["ws_ms"] != long[0]["ws_ms"]

    # and the cached row is the one the scalar oracle would compute
    oracle = design_space.evaluate_point("BERT-large", 64, 64, seq_len=64)
    assert long[0] == oracle

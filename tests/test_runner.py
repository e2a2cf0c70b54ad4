"""Tests for the parallel experiment runner (repro.experiments.runner)."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.experiments import runner
from repro.experiments.design_space import evaluate_point
from repro.training import Algorithm


@dataclass(frozen=True)
class Knob:
    height: int
    scale: float = 0.5


def square(x):
    return x * x


def add(a, b):
    return a + b


class TestSweep:
    def test_serial_preserves_order(self):
        assert runner.sweep(square, [3, 1, 2], parallel=False) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        assert runner.sweep(square, items, jobs=4, parallel=True) \
            == [x * x for x in items]

    def test_star_unpacks_tuples(self):
        assert runner.sweep(add, [(1, 2), (3, 4)], star=True,
                            parallel=False) == [3, 7]

    def test_star_parallel(self):
        assert runner.sweep(add, [(1, 2), (3, 4)], star=True, jobs=2,
                            parallel=True) == [3, 7]

    def test_empty(self):
        assert runner.sweep(square, [], parallel=True) == []

    def test_env_disables_parallelism(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert not runner.parallel_enabled()
        assert runner.sweep(square, [1, 2]) == [1, 4]

    def test_env_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert runner.default_jobs() == 3

    def test_env_jobs_malformed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4x")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            runner.default_jobs()


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert (runner.config_hash({"a": 1, "b": (2, 3)})
                == runner.config_hash({"b": (2, 3), "a": 1}))

    def test_distinguishes_values(self):
        assert (runner.config_hash({"a": 1})
                != runner.config_hash({"a": 2}))

    def test_handles_dataclasses_and_enums(self):
        from repro.arch.engine import ArrayConfig
        from repro.training import Algorithm

        first = runner.config_hash(
            {"array": ArrayConfig(), "algo": Algorithm.DP_SGD_R})
        second = runner.config_hash(
            {"array": ArrayConfig(), "algo": Algorithm.DP_SGD_R})
        other = runner.config_hash(
            {"array": ArrayConfig(height=64), "algo": Algorithm.DP_SGD_R})
        assert first == second != other

    def test_enum_leaves_keep_their_tag(self):
        """Enums deriving from ``str``/``int`` are not plain leaves."""
        import enum

        class Level(enum.IntEnum):
            LOW = 1

        class Mode(str, enum.Enum):
            FAST = "fast"

        assert runner._jsonable(
            {"level": Level.LOW, "mode": Mode.FAST, "n": 1, "x": 0.5,
             "on": True, "none": None, "tag": "fast"}) == {
            "level": f"{Level.__qualname__}.LOW",
            "mode": f"{Mode.__qualname__}.FAST", "n": 1, "x": 0.5,
            "on": True, "none": None, "tag": "fast"}


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        cache.put("abc123", {"k": 1}, [{"speedup": 2.5}])
        assert cache.get("abc123") == [{"speedup": 2.5}]

    def test_missing_returns_none(self, tmp_path):
        assert runner.ResultCache(tmp_path).get("nope") is None

    def test_corrupt_returns_none(self, tmp_path, cache_table):
        cache = runner.ResultCache(tmp_path)
        cache.put("bad", {"k": 1}, 1)
        cache_table(tmp_path).set_value("bad", "{not json")
        assert cache.get("bad") is None

    def test_lookups_never_create_the_store(self, tmp_path):
        cache = runner.ResultCache(tmp_path / "never-created")
        assert cache.lookup("nope") == (None, "miss")
        assert cache.get_many(["a", "b"]) == [None, None]
        assert not (tmp_path / "never-created").exists()

    def test_entry_keeps_key_for_debugging(self, tmp_path, cache_table):
        cache = runner.ResultCache(tmp_path)
        cache.put("abc", {"model": "VGG-16"}, 42)
        assert cache_table(tmp_path).keys()["abc"] == {"model": "VGG-16"}

    def test_cached_batch_stored_row_is_pinned(self, tmp_path,
                                               cache_table):
        """One key's hash, stored key text and stored value text, byte
        for byte: normalizing a key once per grid changes none of them."""
        key = {"experiment": "scaling", "model": "ResNet-50",
               "chips": (1, 16), "algorithm": Algorithm.DP_SGD_R,
               "knob": Knob(64), "tags": {"b", "a"}, "bucket_bytes": None,
               "overlap": True}
        cache = runner.ResultCache(tmp_path)
        runner.cached_batch(
            lambda items: [{"speedup": 2.5, "rows": [1, 2]} for _ in items],
            ["point"], key_fn=lambda item: key, cache=cache)
        assert runner.config_hash(key) == "405b8a58de5a9150"
        assert cache_table(tmp_path).rows() == [(
            "405b8a58de5a9150",
            '{"algorithm": "Algorithm.DP_SGD_R", "bucket_bytes": null, '
            '"chips": [1, 16], "experiment": "scaling", "knob": '
            '{"__dataclass__": "Knob", "height": 64, "scale": 0.5}, '
            '"model": "ResNet-50", "overlap": true, "tags": ["a", "b"]}',
            '{"rows": [1, 2], "speedup": 2.5}')]

    def test_put_many_roundtrip_and_single_batch(self, tmp_path,
                                                 cache_table):
        cache = runner.ResultCache(tmp_path)
        entries = [(f"h{i}", {"k": i}, i * 10) for i in range(5)]
        cache.put_many(entries)
        assert cache.get_many([h for h, _, _ in entries]) == \
            [0, 10, 20, 30, 40]
        # Entries stay debuggable (key persisted alongside the value).
        assert cache_table(tmp_path).keys()["h3"] == {"k": 3}
        assert not list(tmp_path.glob("*.tmp"))

    def test_put_many_empty_is_noop(self, tmp_path):
        cache = runner.ResultCache(tmp_path / "never-created")
        cache.put_many([])
        assert not (tmp_path / "never-created").exists()

    def test_put_many_failure_leaves_no_temp_files(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put_many([("ok", {"k": 1}, 1),
                            ("bad", {"k": 2}, object())])
        assert not list(tmp_path.glob("*.tmp"))
        # All or nothing: the serializable entry was not stored either.
        assert cache.get("ok") is None

    def test_cached_batch_computes_only_misses(self, tmp_path,
                                               cache_table):
        cache = runner.ResultCache(tmp_path)
        calls = []

        def batch_fn(items):
            calls.append(list(items))
            return [x * 10 for x in items]

        key_fn = lambda x: {"item": x}  # noqa: E731
        first = runner.cached_batch(batch_fn, [1, 2], key_fn=key_fn,
                                    cache=cache)
        assert first == [10, 20]
        second = runner.cached_batch(batch_fn, [1, 2, 3], key_fn=key_fn,
                                     cache=cache)
        assert second == [10, 20, 30]
        # One batched call per grid, covering only the misses.
        assert calls == [[1, 2], [3]]
        assert len(cache_table(tmp_path).keys()) == 3

    def test_cached_batch_without_cache_calls_through(self):
        assert runner.cached_batch(
            lambda items: [x + 1 for x in items], [1, 2],
            key_fn=lambda x: x, cache=None) == [2, 3]

    def test_cached_batch_rejects_wrong_length(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        with pytest.raises(ValueError, match="batch_fn returned"):
            runner.cached_batch(lambda items: [], [1],
                                key_fn=lambda x: x, cache=cache)

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Hammer one entry from many threads while reading it back:
        every read must observe a complete value (old or new), never a
        stale one, no thread may raise, and no temp files may leak."""
        import threading

        cache = runner.ResultCache(tmp_path)
        payloads = [[{"writer": w, "blob": "x" * 4096}] * 8
                    for w in range(4)]
        errors = []

        def writer(payload):
            for _ in range(25):
                cache.put("contended", {"k": 1}, payload)

        def reader():
            for _ in range(200):
                value, status = cache.lookup("contended")
                if status == "miss":
                    continue  # no write committed yet
                if status != "hit" or value not in payloads:
                    errors.append((status, value))

        def guarded(target, *args):
            try:
                target(*args)
            except BaseException as err:  # surfaced by the assert below
                errors.append(repr(err))

        threads = [threading.Thread(target=guarded, args=(writer, p))
                   for p in payloads]
        threads += [threading.Thread(target=guarded, args=(reader,))
                    for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.get("contended") in payloads
        assert not list(tmp_path.glob("*.tmp"))

    def test_put_failure_leaves_no_temp_files(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("bad", {"k": 1}, object())  # not JSON-serializable
        assert not list(tmp_path.glob("*.tmp"))
        assert cache.get("bad") is None

    def test_import_does_not_load_sqlite3(self):
        """``repro.serve`` imports the runner but never opens a cache,
        so ``sqlite3`` loads only on the first cache access."""
        src = Path(repro.__file__).resolve().parents[1]
        code = ("import sys, repro.serve, repro.experiments.runner; "
                "print('sqlite3' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.stdout.strip() == "False"

    def test_default_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = runner.default_cache()
        assert cache is not None and cache.root == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert runner.default_cache() is None


class TestDesignSpace:
    def test_evaluate_point_is_json_serializable(self):
        row = evaluate_point("SqueezeNet", 128, 128)
        json.dumps(row)
        assert row["speedup"] > 1.0
        assert row["ws_ms"] > row["diva_ms"]

    def test_run_uses_cache(self, tmp_path, cache_table):
        from repro.experiments import design_space

        cache = runner.ResultCache(tmp_path)
        rows = design_space.run(models=("SqueezeNet",), heights=(128,),
                                cache=cache, jobs=1)
        again = design_space.run(models=("SqueezeNet",), heights=(128,),
                                 cache=cache, jobs=1)
        assert rows == again
        assert len(cache_table(tmp_path).keys()) == 1

    def test_render_includes_rows(self):
        from repro.experiments import design_space

        rows = [{"model": "SqueezeNet", "height": 128, "width": 128,
                 "batch": 4096, "ws_ms": 2.0, "diva_ms": 1.0,
                 "speedup": 2.0}]
        text = design_space.render(rows)
        assert "SqueezeNet" in text and "128x128" in text

"""Parallel experiment runner: process-pool sweeps + a persisted result cache.

The experiment harness spends its time in many independent simulations
(one per model / design point / scale setting), so the natural speedup
is a process pool: :func:`sweep` maps a module-level function over a
list of picklable work items with a ``ProcessPoolExecutor``, preserving
input order.  ``run_all``, the GEMM robustness sweep, the Section VI-C
sensitivity study and the scaling bench route their fan-out through
it.  The analytic ``scaling`` and ``design-space`` grids instead
evaluate in-process through :func:`cached_batch`.

API
---
``sweep(fn, items, *, jobs=None, parallel=None, star=False)``
    Order-preserving map.  ``fn`` must be importable (module-level) and
    ``items`` picklable.  With ``star=True`` each item is a tuple of
    positional arguments.  Falls back to a plain serial loop when
    parallelism is disabled, a single job is requested, or there is at
    most one item.
``cached_batch(batch_fn, items, *, key_fn, cache=None)``
    Persisted memoization with one entry *per item* (keyed by
    ``config_hash(key_fn(item))``): one ``get_many`` lookup pass per
    grid, one batched evaluation of the missing items (``batch_fn``
    gets the list, returns the JSON-serializable values in order —
    this is where the NumPy batched engines plug in), one
    ``put_many`` transaction for the new values.  Growing a grid
    recomputes only the new points.  A ``None`` cache (the default
    when no cache directory is configured) disables persistence.  The
    ``scaling`` and ``design-space`` experiments route through this.
``config_hash(obj)``
    Stable short SHA-256 of a canonical JSON rendering of ``obj``
    (dataclasses, enums, tuples and mappings are normalized first).
``ResultCache(root)``
    The store: one SQLite table in ``<root>/cache.sqlite`` with one
    ``(hash, key, value)`` row per entry (key and value JSON-encoded,
    so entries stay debuggable).  ``get_many`` is one ``SELECT`` per
    grid; ``put_many`` is one transaction, committed at SQLite's
    default ``synchronous=FULL`` before it returns.  Lookups never
    create the directory or the database.  ``sqlite3`` is imported on
    first use, so importing this module (as ``repro.serve`` does) does
    not load it.

Caching and parallelism knobs
-----------------------------
``REPRO_JOBS``
    Default worker count (otherwise ``os.cpu_count()``).  ``1`` gives
    serial execution.
``REPRO_PARALLEL=0``
    Force every sweep serial regardless of ``jobs`` (useful under
    debuggers, coverage, or in sandboxes without working ``fork``).
``REPRO_CACHE_DIR``
    Enables persisted result caching under this directory for callers
    that do not pass an explicit :class:`ResultCache`.

Stale-entry policy: a cache entry's hash covers every input the caller
puts into ``key_obj`` — sweep parameters plus the relevant architecture
config — so changing any knob produces a fresh entry.  Code changes are
*not* hashed; delete the cache directory (or pass a versioned key) when
the models themselves change.  A stored value that is not JSON, or is
``null``, reads as stale and is recomputed and overwritten.  Entries
of the older one-``<hash>.json``-per-entry layout are not read: such a
directory recomputes once into ``cache.sqlite``.

Examples
--------
Parallel map over picklable work items (``fn`` must live at module
scope so worker processes can import it)::

    from repro.experiments import runner

    def cube(x):                                  # module-level
        return x ** 3

    runner.sweep(cube, [1, 2, 3], jobs=2)         # -> [1, 8, 27]
    runner.sweep(pow, [(2, 3), (3, 2)], star=True)  # -> [8, 9]

Persist one entry per design point, so growing a grid recomputes
only the new combinations (this is how ``design-space`` and ``scaling``
drive their CLI ``--cache-dir``)::

    cache = runner.ResultCache(".repro_cache")
    rows = runner.cached_batch(
        evaluate_points, work, cache=cache,
        key_fn=lambda item: {"experiment": "design_space",
                             "model": item[0], "height": item[1],
                             "width": item[2]})
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler


@dataclass
class CacheStats:
    """Outcome tally of one (or several) cached lookup passes.

    ``hits`` loaded a stored value, ``misses`` found no entry, and
    ``stale`` found an entry that could not be used (a stored value
    that is not JSON, or is ``null``) — stale entries are
    recomputed exactly like misses, the distinction only matters for
    reporting.  Pass one instance through several
    :func:`cached_batch` calls to accumulate.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0

    def record(self, status: str) -> None:
        """Count one lookup outcome (``"hit"``/``"miss"``/``"stale"``)."""
        if status == "hit":
            self.hits += 1
        elif status == "miss":
            self.misses += 1
        elif status == "stale":
            self.stale += 1
        else:
            raise ValueError(f"unknown cache lookup status {status!r}")

    def render(self) -> str:
        """One CLI-ready summary line."""
        return (f"cache: {self.hits} hits, {self.misses} misses, "
                f"{self.stale} stale")


def _stage(profiler: "Profiler | None", name: str) -> ContextManager:
    """``profiler.stage(name)``, or a no-op when profiling is off."""
    if profiler is None:
        return nullcontext()
    return profiler.stage(name)


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def parallel_enabled() -> bool:
    """Whether process pools are allowed (``REPRO_PARALLEL`` != 0)."""
    return os.environ.get("REPRO_PARALLEL", "1").strip() != "0"


def _worker_init() -> None:
    """Mark sweep workers: nested sweeps inside them stay serial."""
    os.environ["REPRO_PARALLEL"] = "0"


def sweep(
    fn: Callable,
    items: Iterable,
    *,
    jobs: int | None = None,
    parallel: bool | None = None,
    star: bool = False,
) -> list:
    """Map ``fn`` over ``items`` with a process pool, preserving order."""
    work = list(items)
    if parallel is None:
        parallel = parallel_enabled()
    workers = min(jobs or default_jobs(), max(1, len(work)))
    if not parallel or workers <= 1 or len(work) <= 1:
        if star:
            return [fn(*item) for item in work]
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_worker_init) as pool:
        if star:
            futures = [pool.submit(fn, *item) for item in work]
        else:
            futures = [pool.submit(fn, item) for item in work]
        return [future.result() for future in futures]


#: Types :func:`_jsonable` returns unchanged; checked first, since sweep
#: keys are mostly such leaves (subclasses, e.g. enums, take the slow path).
_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def _jsonable(obj: Any) -> Any:
    """Normalize ``obj`` into a canonical JSON-serializable structure."""
    if type(obj) in _JSON_LEAVES:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__qualname__,
                **{key: _jsonable(value)
                   for key, value in asdict(obj).items()}}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        return [_jsonable(value) for value in items]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_hash(obj: Any) -> str:
    """Stable 16-hex-digit hash of a configuration object."""
    return _normalized_hash(_jsonable(obj))


def _normalized_hash(key: Any) -> str:
    """:func:`config_hash` of a key already through :func:`_jsonable`."""
    payload = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Hashes per ``SELECT`` (SQLite's historical bound on parameters).
_MAX_PARAMS = 999


class ResultCache:
    """Result store keyed by config hash: one SQLite table per root.

    Entries live in ``<root>/cache.sqlite`` as rows of
    ``(hash, key, value)``; the JSON-encoded key is stored beside the
    JSON-encoded value, so entries stay debuggable.  Every write is one
    SQLite transaction at the default ``synchronous=FULL``: a reader
    sees the old rows or the new ones, never a torn value, and a write
    returns only once it is durable.  Each call opens its own
    connection, so threads and worker processes can share one root.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._db = self.root / "cache.sqlite"

    def get_many(self, key_hashes: Iterable[str], *,
                 stats: CacheStats | None = None) -> list[Any | None]:
        """Stored value for every hash (None when missing or unusable),
        in one ``SELECT`` per grid.

        The batched sweep paths resolve a whole grid's cache state up
        front through this, so misses can be computed together in one
        vectorized evaluation.  ``stats`` tallies hit/miss/stale
        outcomes when given: a stale entry exists but holds a value
        that is not JSON, or is JSON ``null``; it reads as a miss and
        is recomputed and overwritten.
        """
        values = []
        for value, status in self._lookup_many(list(key_hashes)):
            if stats is not None:
                stats.record(status)
            values.append(value)
        return values

    def _lookup_many(self, key_hashes: list[str]) -> list[tuple[Any, str]]:
        """``(value, status)`` per hash, status ``"hit"``, ``"miss"`` or
        ``"stale"``; never creates the database."""
        stored: dict[str, str | None] = {}
        if key_hashes and self._db.exists():
            import sqlite3

            with closing(sqlite3.connect(self._db)) as db:
                try:
                    for start in range(0, len(key_hashes), _MAX_PARAMS):
                        chunk = key_hashes[start:start + _MAX_PARAMS]
                        stored.update(db.execute(
                            "SELECT hash, value FROM entries WHERE hash IN "
                            f"({','.join('?' * len(chunk))})", chunk))
                except sqlite3.OperationalError as err:
                    # A first writer creates the file before its table.
                    if "no such table" not in str(err):
                        raise
        out: list[tuple[Any, str]] = []
        for key_hash in key_hashes:
            if key_hash not in stored:
                out.append((None, "miss"))
                continue
            try:
                value = json.loads(stored[key_hash] or "null")
            except ValueError:
                value = None
            out.append((None, "stale") if value is None
                       else (value, "hit"))
        return out

    def put_many(self, entries: Iterable[tuple[str, Any, Any]]) -> None:
        """Persist ``(key_hash, key, value)`` entries in one transaction.

        Every row is JSON-encoded before the database is opened, so a
        batch holding an unserializable value raises without storing
        anything; the rest commits all-or-nothing.  The batched sweep
        paths write a whole grid through this.
        """
        self._put_normalized((key_hash, _jsonable(key), value)
                             for key_hash, key, value in entries)

    def _put_normalized(self, entries: Iterable[tuple[str, Any, Any]]
                        ) -> None:
        """:meth:`put_many` for keys already through :func:`_jsonable`."""
        rows = [(key_hash,
                 json.dumps(key, sort_keys=True),
                 json.dumps(value, sort_keys=True))
                for key_hash, key, value in entries]
        if not rows:
            return
        import sqlite3

        self.root.mkdir(parents=True, exist_ok=True)
        with closing(sqlite3.connect(self._db)) as db:
            db.execute("CREATE TABLE IF NOT EXISTS entries "
                       "(hash TEXT PRIMARY KEY, key TEXT, value TEXT)")
            with db:
                db.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?)", rows)


def default_cache() -> ResultCache | None:
    """The ``REPRO_CACHE_DIR`` cache, or None when caching is disabled."""
    root = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ResultCache(root) if root else None


def cached_batch(
    batch_fn: Callable[[list], list],
    items: Iterable,
    *,
    key_fn: Callable[[Any], Any],
    cache: ResultCache | None = None,
    stats: CacheStats | None = None,
    profiler: "Profiler | None" = None,
) -> list:
    """Per-item persistent memoization around one *batched* evaluator.

    ``batch_fn`` receives the list of cache-missing items in input
    order and must return their (JSON-serializable) values in the same
    order — the batched NumPy engines evaluate the whole list in a few
    broadcast passes.  Without a cache it is called on every item.
    Cache lookups happen in one :meth:`ResultCache.get_many` pass per
    grid and new results land through one
    :meth:`ResultCache.put_many` transaction.  ``stats`` tallies
    hit/miss/stale lookup outcomes; ``profiler`` times the
    lookup/compute/write stages and counts batch sizes.
    """
    work = list(items)
    if profiler is not None:
        profiler.count("batch_items", len(work))
    if cache is None:
        cache = default_cache()
    if cache is None:
        with _stage(profiler, "cache/compute"):
            return batch_fn(work)
    with _stage(profiler, "cache/lookup"):
        # Each key is normalized once, for its hash and its stored text.
        keys = [_jsonable(key_fn(item)) for item in work]
        hashes = [_normalized_hash(key) for key in keys]
        results = cache.get_many(hashes, stats=stats)
    missing = [i for i, value in enumerate(results) if value is None]
    if profiler is not None:
        profiler.count("cache_hits", len(work) - len(missing))
        profiler.count("cache_misses", len(missing))
    with _stage(profiler, "cache/compute"):
        computed = batch_fn([work[i] for i in missing])
    if len(computed) != len(missing):
        raise ValueError(
            f"batch_fn returned {len(computed)} values for "
            f"{len(missing)} items")
    with _stage(profiler, "cache/write"):
        cache._put_normalized((hashes[i], keys[i], value)
                              for i, value in zip(missing, computed))
    for index, value in zip(missing, computed):
        results[index] = value
    return results

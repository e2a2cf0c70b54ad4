"""Shared test fixtures."""

import json
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest


class CacheTable:
    """Direct SQLite access to a ``ResultCache`` root's stored rows.

    Layout checks and deliberate corruption go through here, so
    ``ResultCache`` itself carries no test-only API.
    """

    def __init__(self, root):
        self.db = Path(root) / "cache.sqlite"

    def keys(self):
        """Decoded stored key of every row, by hash."""
        with closing(sqlite3.connect(self.db)) as db:
            return {key_hash: json.loads(key) for key_hash, key
                    in db.execute("SELECT hash, key FROM entries")}

    def rows(self):
        """Every row's raw ``(hash, key text, value text)``."""
        with closing(sqlite3.connect(self.db)) as db:
            return list(db.execute("SELECT hash, key, value FROM entries"))

    def set_value(self, key_hash, text):
        """Overwrite one existing row's raw value text."""
        with closing(sqlite3.connect(self.db)) as db, db:
            updated = db.execute(
                "UPDATE entries SET value = ? WHERE hash = ?",
                (text, key_hash)).rowcount
        assert updated == 1, f"no cache row {key_hash!r}"


@pytest.fixture
def cache_table():
    """``cache_table(root)`` -> :class:`CacheTable` over that cache."""
    return CacheTable

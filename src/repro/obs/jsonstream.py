"""Streamed ``json.dumps(doc, indent=1) + "\\n"`` bytes, in bounded memory.

The trace and metrics documents hold up to millions of small objects.
``json.dumps(..., indent=1)`` runs the pure-Python encoder over every
one of them and returns the whole document as one string.  The writers
in :mod:`repro.obs.trace` and :mod:`repro.obs.metrics` emit the same
bytes piece by piece instead:

* a column block renders each row through a per-event-kind
  %-template (:func:`template`) whose slots take pre-formatted JSON
  numbers (:func:`numbers`, or ``str`` of a Python int) and string
  literals;
* any other object goes through ``json.dumps(obj, indent=1)`` and is
  re-indented to its nesting depth (:func:`dumps_at`);
* :class:`ChunkedWriter` hands the file fixed-size chunks, so the
  document never exists as one string.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable

import numpy as np
from numpy.typing import NDArray

#: Flush threshold of :class:`ChunkedWriter`, in characters.
CHUNK_CHARS = 1 << 16

#: Rows a column block renders per batch.
BATCH_ROWS = 512

#: ``float.__repr__`` spellings that JSON spells differently.
_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps_at(obj: Any, depth: int) -> str:
    """``json.dumps(obj, indent=1)`` for a value nested ``depth`` deep.

    The first line is not indented (the caller writes the separator
    before it); every later line gains ``depth`` spaces.  JSON strings
    never hold a raw newline, so the replace only touches layout.
    """
    text = json.dumps(obj, indent=1)
    return text.replace("\n", "\n" + " " * depth) if depth else text


def template(shape: dict[str, Any], depth: int) -> str:
    """A %-template of ``dumps_at(shape, depth)``.

    Every ``"%s"``-valued field becomes a raw ``%s`` slot, to be filled
    with JSON text (a number from :func:`numbers`, or a string literal
    from ``json.dumps``).  Other string values stay as written, so a
    name like ``"job-%d wait"`` keeps its own ``%d`` slot.
    """
    return dumps_at(shape, depth).replace('"%s"', "%s")


def numbers(column: NDArray[Any]) -> list[str]:
    """Each value's JSON text, spelled as ``json.dumps`` spells it.

    A float64 or int64 column takes one ``repr`` pass (NaN and the
    infinities as JSON's ``NaN`` / ``Infinity`` / ``-Infinity``); any
    other column goes through ``json.dumps`` one value at a time.
    """
    if column.dtype == np.float64:
        texts = list(map(float.__repr__, column.tolist()))
        if not np.isfinite(column).all():
            texts = [_SPELLING.get(text, text) for text in texts]
        return texts
    if column.dtype == np.int64:
        return list(map(int.__repr__, column.tolist()))
    return [json.dumps(value) for value in column.tolist()]


class ChunkedWriter:
    """Buffers text and writes it to ``handle`` in chunks of at least
    :data:`CHUNK_CHARS` characters (call :meth:`flush` at the end)."""

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= CHUNK_CHARS:
            self.flush()

    def flush(self) -> None:
        self._handle.write("".join(self._parts))
        self._parts.clear()
        self._size = 0


def write_list(out: ChunkedWriter, batches: Iterable[list[str]],
               depth: int) -> None:
    """A JSON list at ``depth`` whose items arrive as batches of texts.

    Each item text is already rendered at ``depth + 1``
    (:func:`dumps_at` / :func:`template`); an empty list is ``[]``.
    """
    inner = "\n" + " " * (depth + 1)
    separator = "," + inner
    opened = False
    for batch in batches:
        if batch:
            out.write((separator if opened else "[" + inner)
                      + separator.join(batch))
            opened = True
    out.write("\n" + " " * depth + "]" if opened else "[]")

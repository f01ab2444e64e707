"""Simulation traces: a deterministic record of what happened.

Experiments use traces two ways: to assert causality in tests (message
m was delivered after it was sent, renumbering happened between sends)
and to print run digests in benchmark output.

A record's *detail* is its text, or — at the kernel's per-message
sites, two records a message — a ``(template, *args)`` tuple of
atomic values that reading formats as ``template % args``, so the hot
path never formats a string nobody reads.  Every record is
stored as one flat tuple, ``(time, kind, data, text)`` or ``(time,
kind, data, template, *args)``: CPython's cyclic collector untracks a
tuple of atomic values on its first young pass, so the log costs no
garbage-collection time however long it grows, and it holds no
reference to the messages, processes or machines it describes.
:class:`TraceEntry` is the read view that iteration,
:meth:`TraceLog.of_kind`, :meth:`TraceLog.tail` and the exports
build.

The log keeps a per-kind index built **lazily** on the first
:meth:`TraceLog.of_kind` / :meth:`TraceLog.kinds` call after new
records, so the hot record path pays one deque append, nothing more.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import islice
from typing import Any, Iterator, Union

__all__ = ["TraceEntry", "TraceLog"]


class TraceEntry(namedtuple("TraceEntry", ("time", "kind", "detail", "data"),
                            defaults=(None,))):
    """One trace record, read back from a :class:`TraceLog`: its virtual
    ``time``, ``kind``, ``detail`` text and optional ``data`` payload."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"[t={self.time:g}] {self.kind}: {self.detail}"

    def to_dict(self) -> dict:
        """A JSON-serialisable view of the entry.

        The ``data`` payload may hold arbitrary simulation objects
        (entities, processes); anything that is not a JSON scalar is
        summarized as its ``repr`` so exporters never crash on it.
        """
        data = self.data
        if not (data is None or isinstance(data, (bool, int, float, str))):
            data = repr(data)
        return {"time": self.time, "kind": self.kind,
                "detail": self.detail, "data": data}


def _view(record: tuple) -> TraceEntry:
    """The entry a stored record reads as (its detail formatted)."""
    time, kind, data, detail = record[:4]
    if len(record) > 4:
        detail %= record[4:]
    return TraceEntry(time, kind, detail, data)


class TraceLog:
    """An append-only log of trace records."""

    __slots__ = ("_entries", "_by_kind", "_indexed")

    def __init__(self) -> None:
        self._entries: deque[tuple] = deque()
        # Per-kind index, built lazily by _index(): `_indexed` counts
        # entries already indexed.
        self._by_kind: dict[str, deque[tuple]] = {}
        self._indexed = 0

    @property
    def entries(self) -> list[TraceEntry]:
        """Every entry, oldest first."""
        return list(self)

    def record(self, time: float, kind: str, detail: Union[str, tuple],
               data: Any = None) -> None:
        """Append one record.  *detail* is its text, or a
        ``(template, *args)`` tuple of atomic values that reading
        formats as ``template % args``."""
        # Stored flat: a full collection examines a nested tuple after
        # its holder, which would then stay tracked one pass longer.
        if type(detail) is tuple:
            self._entries.append((time, kind, data) + detail)
        else:
            self._entries.append((time, kind, data, detail))

    def _index(self) -> dict[str, deque[tuple]]:
        """The per-kind index, extended on demand (amortized O(new
        entries since the last call))."""
        by_kind = self._by_kind
        entries = self._entries
        count = len(entries)
        if self._indexed < count:
            for entry in islice(entries, self._indexed, count):
                queue = by_kind.get(entry[1])
                if queue is None:
                    queue = by_kind[entry[1]] = deque()
                queue.append(entry)
            self._indexed = count
        return by_kind

    def of_kind(self, kind: str) -> list[TraceEntry]:
        """All entries with the given kind, in order (amortized
        O(new entries) + O(matches))."""
        return list(map(_view, self._index().get(kind, ())))

    def kinds(self) -> list[str]:
        """The distinct kinds recorded, in first-seen order."""
        return list(self._index())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(_view, self._entries)

    def tail(self, count: int = 10) -> list[TraceEntry]:
        """The most recent *count* entries."""
        if count <= 0:
            return []
        start = max(0, len(self._entries) - count)
        return list(map(_view, islice(self._entries, start, None)))

    def window(self, start: float, end: float) -> list[dict]:
        """Entries with ``start <= time <= end`` as JSON-safe dicts —
        the flight-recorder capture primitive; later records cannot
        change them."""
        return [entry.to_dict() for entry in self
                if start <= entry.time <= end]

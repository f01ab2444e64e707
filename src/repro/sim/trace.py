"""Simulation traces: a deterministic record of what happened.

Experiments use traces two ways: to assert causality in tests (message
m was delivered after it was sent, renumbering happened between sends)
and to print run digests in benchmark output.

The log keeps a per-kind index built **lazily** on the first
:meth:`TraceLog.of_kind` / :meth:`TraceLog.kinds` call after new
records (so the hot record path pays one deque append, nothing more),
and supports an optional ``max_entries`` ring-buffer mode for long
benchmark runs: once full, the oldest entries are evicted (and counted
in :attr:`TraceLog.evicted`) instead of growing without bound.

Detail strings are **lazy**: hot call sites (the kernel's send/deliver
path records twice per message) pass a zero-argument callable — or the
even cheaper ``(formatter, arg)`` tuple, one small tuple instead of a
closure — and :attr:`TraceEntry.detail` formats it on first read.
Entries that nothing ever inspects (the overwhelming majority, and
*every* entry a ring buffer evicts unread) never pay for string
formatting.  A ``kinds`` filter drops uninteresting kinds at record
time for benchmark runs that only care about, say, drops.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import islice
from typing import Any, Callable, Iterator, Optional, Union

__all__ = ["TraceEntry", "TraceLog"]

#: A detail: the formatted string, a zero-argument callable producing
#: it on demand, or a ``(formatter, arg)`` tuple resolved as
#: ``formatter(arg)`` — the cheapest lazy form (no closure allocation).
Detail = Union[str, Callable[[], str], tuple]


class TraceEntry:
    """One trace record: (time, kind, detail)."""

    __slots__ = ("time", "kind", "_detail", "data")

    def __init__(self, time: float, kind: str, detail: Detail,
                 data: Any = None) -> None:
        self.time = time
        self.kind = kind
        self._detail = detail
        self.data = data

    @property
    def detail(self) -> str:
        """The formatted detail (resolved exactly once, on first read).

        The resolved value is coerced to ``str`` before it is cached:
        a formatter returning a non-string would otherwise never match
        the "already resolved" check and be re-invoked on every read —
        observable (and wrong) for formatters that close over mutable
        simulation state.
        """
        detail = self._detail
        if type(detail) is not str:
            if type(detail) is tuple:
                detail = detail[0](detail[1])
            else:
                detail = detail()
            if type(detail) is not str:
                detail = str(detail)
            self._detail = detail
        return detail

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEntry):
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.detail == other.detail
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.time, self.kind, self.detail))

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


class TraceLog:
    """An append-only (optionally ring-buffered) log of
    :class:`TraceEntry` records.

    Args:
        max_entries: When set, the log keeps only the newest
            *max_entries* records, evicting the oldest on overflow.
        kinds: When set, only entries of these kinds are recorded at
            all; everything else is dropped at :meth:`record` time
            (the cheap filter for huge benchmark runs).
    """

    __slots__ = ("max_entries", "_entries", "_by_kind", "evicted",
                 "_kinds", "_indexed", "_index_stale")

    def __init__(self, max_entries: Optional[int] = None,
                 kinds: Optional[Iterable[str]] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: deque[TraceEntry] = deque()
        # Per-kind index, built lazily by _index(): `_indexed` counts
        # entries already indexed; an eviction shifts positions, so it
        # marks the whole index stale for a full rebuild instead.
        self._by_kind: dict[str, deque[TraceEntry]] = {}
        self._indexed = 0
        self._index_stale = False
        self._kinds = frozenset(kinds) if kinds is not None else None
        #: Entries dropped by the ring buffer since creation.
        self.evicted = 0

    @property
    def entries(self) -> deque[TraceEntry]:
        """The live entry store, oldest first (treat as read-only)."""
        return self._entries

    def record(self, time: float, kind: str, detail: Detail,
               data: Any = None) -> Optional[TraceEntry]:
        """Append an entry; *detail* may be a string, a zero-arg
        callable, or a ``(formatter, arg)`` tuple, formatted lazily on
        first read.  Returns None when a kind filter drops the record."""
        if self._kinds is not None and kind not in self._kinds:
            return None
        # Bypass TraceEntry.__init__'s python frame: the kernel calls
        # record twice per message, so entry creation is slot stores.
        entry = TraceEntry.__new__(TraceEntry)
        entry.time = time
        entry.kind = kind
        entry._detail = detail
        entry.data = data
        entries = self._entries
        max_entries = self.max_entries
        if max_entries is not None and len(entries) >= max_entries:
            entries.popleft()
            self.evicted += 1
            self._index_stale = True
        entries.append(entry)
        return entry

    def _index(self) -> dict[str, deque[TraceEntry]]:
        """The per-kind index, (re)built on demand.

        Amortized O(new entries since last call); a ring-buffer
        eviction forces a full O(len) rebuild on the next read.
        """
        by_kind = self._by_kind
        if self._index_stale:
            by_kind.clear()
            self._indexed = 0
            self._index_stale = False
        entries = self._entries
        count = len(entries)
        if self._indexed < count:
            for entry in islice(entries, self._indexed, count):
                queue = by_kind.get(entry.kind)
                if queue is None:
                    queue = by_kind[entry.kind] = deque()
                queue.append(entry)
            self._indexed = count
        return by_kind

    def of_kind(self, kind: str) -> list[TraceEntry]:
        """All entries with the given kind, in order (amortized
        O(new entries) + O(matches))."""
        return list(self._index().get(kind, ()))

    def kinds(self) -> list[str]:
        """The distinct kinds recorded, in first-seen order (among
        retained entries when a ring buffer has evicted)."""
        return list(self._index())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def tail(self, count: int = 10) -> list[TraceEntry]:
        """The most recent *count* entries."""
        if count <= 0:
            return []
        start = max(0, len(self._entries) - count)
        return list(islice(self._entries, start, None))

    def to_dicts(self) -> list[dict]:
        """Every entry as a JSON-safe dict (see
        :meth:`TraceEntry.to_dict`).

        The entry store is snapshotted *before* any detail is
        resolved: a lazy formatter that records into this very log (or
        triggers a ring-buffer eviction) would otherwise mutate the
        deque mid-iteration and raise — or silently skip entries.
        """
        return [entry.to_dict() for entry in tuple(self._entries)]

    def window(self, start: float, end: float) -> list[dict]:
        """Retained entries with ``start <= time <= end``, resolved to
        JSON-safe dicts at call time.

        This is the flight-recorder capture primitive: the returned
        dicts are stable snapshots — later ring-buffer evictions
        cannot invalidate them, and each lazy detail is resolved
        exactly once (here, or earlier, never again).
        """
        return [entry.to_dict() for entry in tuple(self._entries)
                if start <= entry.time <= end]

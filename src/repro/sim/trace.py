"""Simulation traces: a deterministic record of what happened.

Experiments use traces two ways: to assert causality in tests (message
m was delivered after it was sent, renumbering happened between sends)
and to print run digests in benchmark output.

A record's *detail* is its text, or a ``(template, *args)`` tuple of
atomic values that reading formats as ``template % args``, so the hot
path never formats a string nobody reads.  Each record is one packed
row — time, message id, two label indices, kind tag — in a bytearray.
The kernel's send, deliver and drop records lead their detail with
:data:`SEND`, :data:`DELIVER` or :data:`DROP`, and their row is the
whole record: no object per record, so the log drives no collection and
refers to no message, process or machine.  Any other record keeps its
tuple, ``(time, kind, data, text)`` or ``(time, kind, data, template,
*args)``, in a side list its row indexes.  :class:`TraceEntry` is the
read view that iteration, :meth:`TraceLog.of_kind`, :meth:`TraceLog.tail`
and the exports build; :meth:`TraceLog.of_kind` and
:meth:`TraceLog.kinds` read the rows' kind tags and build entries only
for the rows that match.
"""

from __future__ import annotations

from collections import namedtuple
from struct import Struct
from typing import Any, Iterator, Union

__all__ = ["DELIVER", "DROP", "SEND", "TraceEntry", "TraceLog"]

#: Message templates: a detail ``(SEND, sender, receiver, msg_id)``,
#: ``(DELIVER, msg_id, receiver)`` or ``(DROP, msg_id, reason)`` makes a
#: message row, read back with its kind, no data and a float time.
SEND = "%s → %s msg#%d"
DELIVER = "msg#%d at %s"
DROP = "msg#%d: %s"
#: A row's kind by its tag; tag 0: see the row's tuple.
_KINDS = (None, "send", "deliver", "drop")
#: One row: time, message id (tag 0: side index), label indices, kind tag.
_ROW = Struct("dqIIb")
_pack = _ROW.pack


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


class _Labels(dict):
    """Label → index, numbering each label on first sight."""

    def __missing__(self, label: str) -> int:
        self[label] = index = len(self)
        return index


def _kind(row: tuple, side: list) -> str:
    """The kind a stored row reads as."""
    return _KINDS[row[4]] or side[row[1]][1]


def _entry(row: tuple, labels: list, side: list) -> TraceEntry:
    """The entry a stored row reads as (its detail formatted)."""
    time, msg_id, first, second, tag = row
    if tag == 1:
        return TraceEntry(time, "send",
                          SEND % (labels[first], labels[second], msg_id))
    if tag:
        return TraceEntry(time, _KINDS[tag], (DELIVER if tag == 2 else DROP)
                          % (msg_id, labels[first]))
    record = side[msg_id]
    time, kind, data, detail = record[:4]
    if len(record) > 4:
        detail %= record[4:]
    return TraceEntry(time, kind, detail, data)


class TraceLog:
    """An append-only log of trace records."""

    __slots__ = ("_rows", "_labels", "_side")

    def __init__(self) -> None:
        self._rows = bytearray()
        self._labels = _Labels()
        self._side: list[tuple] = []

    @property
    def entries(self) -> list[TraceEntry]:
        """Every entry, oldest first."""
        return list(self)

    def record(self, time: float, kind: str, detail: Union[str, tuple],
               data: Any = None) -> None:
        """Append one record: *detail* is text or ``(template, *args)``;
        one led by :data:`SEND`, :data:`DELIVER` or :data:`DROP` is a
        message row, whatever *kind* and *data* say."""
        if type(detail) is tuple:
            template = detail[0]
            if template is SEND:
                self._rows += _pack(time, detail[3], self._labels[detail[1]],
                                    self._labels[detail[2]], 1)
                return
            if template is DELIVER:
                self._rows += _pack(time, detail[1], self._labels[detail[2]],
                                    0, 2)
                return
            if template is DROP:
                self._rows += _pack(time, detail[1], self._labels[detail[2]],
                                    0, 3)
                return
            record = (time, kind, data) + detail
        else:
            record = (time, kind, data, detail)
        self._rows += _pack(time, len(self._side), 0, 0, 0)
        self._side.append(record)

    def _unpacked(self, start: int = 0) -> Iterator[tuple]:
        """Rows *start*… unpacked from a copy (an export blocks appends)."""
        return _ROW.iter_unpack(self._rows[start * _ROW.size:])

    def _read(self, start: int = 0) -> Iterator[TraceEntry]:
        labels, side = list(self._labels), self._side
        return (_entry(row, labels, side) for row in self._unpacked(start))

    def of_kind(self, kind: str) -> list[TraceEntry]:
        """All entries with the given kind, in order; only the matching
        rows are turned into entries."""
        labels, side = list(self._labels), self._side
        return [_entry(row, labels, side) for row in self._unpacked()
                if _kind(row, side) == kind]

    def kinds(self) -> list[str]:
        """The distinct kinds recorded, in first-seen order."""
        side = self._side
        return list(dict.fromkeys(_kind(row, side) for row in self._unpacked()))

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def __iter__(self) -> Iterator[TraceEntry]:
        return self._read()

    def tail(self, count: int = 10) -> list[TraceEntry]:
        """The most recent *count* entries."""
        return list(self._read(max(0, len(self) - count))) if count > 0 else []

    def window(self, start: float, end: float) -> list[dict]:
        """Entries with ``start <= time <= end`` as JSON-safe dicts —
        the flight-recorder capture primitive; later records cannot
        change them.  Only the rows inside the window are turned into
        entries."""
        labels, side = list(self._labels), self._side
        return [_entry(row, labels, side).to_dict()
                for row in self._unpacked() if start <= row[0] <= end]

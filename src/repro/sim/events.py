"""The discrete-event queue.

Events are ``(time, seq, item)`` tuples in one binary heap, popped in
sorted ``(time, seq)`` order.  The sequence number breaks ties between
events scheduled for the same instant in *scheduling order*, which —
together with the seeded RNG in the kernel — makes every simulation
run bit-for-bit reproducible.  Because ``seq`` is unique, tuple
comparison never reaches ``item``, so heap maintenance runs entirely
in C.

Two kinds of entry share the heap: :meth:`EventQueue.push` allocates
a :class:`ScheduledEvent` handle the caller can
:meth:`~ScheduledEvent.cancel` (timers, timeouts); the kernel's
``send`` pushes each delivery as a bare
:class:`~repro.sim.messages.Message` with no handle at all (deliveries
are never cancelled).  The kernel's one event loop pops the heap
inline and dispatches each item by type; :meth:`EventQueue.pop` is the
same pop as a method, the reference the kernel's order tests replay.

Cancelled events are *not* removed eagerly (heap deletion is O(n));
they are skipped on pop, counted, and the heap is compacted once
cancelled entries outnumber live ones — so ``len(queue)`` is O(1) via
a live-event counter, and long-lived simulations with many cancelled
timers do not leak heap slots.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

__all__ = ["ScheduledEvent", "EventQueue"]

#: An event action: a zero-argument callable run at the event's time.
Action = Callable[[], None]


class ScheduledEvent:
    """One pending event; its queue entry orders it by ``(time, seq)``."""

    __slots__ = ("time", "seq", "action", "note", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, action: Action,
                 note: str = "",
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.note = note
        self.cancelled = False
        # Owning queue while the event sits in its heap; cleared on
        # pop so late cancels only mark the flag and never corrupt the
        # queue's live/cancelled bookkeeping.
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when dequeued."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._on_cancel()

    def __repr__(self) -> str:
        flag = " cancelled" if self.cancelled else ""
        return f"<event t={self.time} #{self.seq} {self.note!r}{flag}>"


class EventQueue:
    """A deterministic priority queue of scheduled events."""

    __slots__ = ("_heap", "_seq", "_live", "_cancelled")

    def __init__(self) -> None:
        #: ``(time, seq, ScheduledEvent | Message)`` entries, a heap.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        #: Non-cancelled entries currently queued.
        self._live = 0
        #: Cancelled entries still occupying queue slots.
        self._cancelled = 0

    def push(self, time: float, action: Action,
             note: str = "") -> ScheduledEvent:
        """Schedule *action* at absolute virtual time *time*,
        returning a cancellable handle."""
        event = ScheduledEvent(time, next(self._seq), action, note, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    # -- dequeue -----------------------------------------------------------

    def pop(self) -> Optional[tuple]:
        """Remove and return the earliest live ``(time, seq, item)``
        entry, discarding cancelled ones, or None when the queue is
        exhausted.  *item* is a :class:`ScheduledEvent` or a bare
        :class:`~repro.sim.messages.Message` delivery.

        The kernel's loop inlines this pop; the method is the test
        reference its run and settle order contracts replay."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            item = entry[2]
            if type(item) is ScheduledEvent:
                if item.cancelled:
                    self._cancelled -= 1
                    continue
                item._queue = None
            self._live -= 1
            return entry
        return None

    def _unpop(self, entry: tuple) -> None:
        """Return a just-popped entry to the queue (run(until=...)
        pushback)."""
        item = entry[2]
        if type(item) is ScheduledEvent:
            item._queue = self
        heapq.heappush(self._heap, entry)
        self._live += 1

    # -- cancellation bookkeeping ------------------------------------------

    def _on_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > len(self._heap) // 2:
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries from the heap.

        Called automatically once cancelled entries exceed half the
        queue; unique ``(time, seq)`` keys make the rebuilt heap pop
        in exactly the same order, so compaction is invisible to the
        simulation.  Rebuilds **in place**: the kernel's event loop
        holds an alias to the heap.
        """
        self._heap[:] = [entry for entry in self._heap
                         if not (type(entry[2]) is ScheduledEvent
                                 and entry[2].cancelled)]
        heapq.heapify(self._heap)
        self._cancelled = 0

    # -- observation -------------------------------------------------------

    def __len__(self) -> int:
        """Live (non-cancelled) events — O(1) via the counter."""
        return self._live

    def approx_len(self) -> int:
        """Queued entries including cancelled ones — the O(1) depth
        reading instrumentation samples."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return self._live > 0

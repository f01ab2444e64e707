"""Tests for the virtual clock and the event queue."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_is_fine(self):
        clock = VirtualClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_cannot_go_backwards(self):
        clock = VirtualClock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_repr(self):
        assert "t=0.0" in repr(VirtualClock())


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while (entry := queue.pop()) is not None:
            entry[2].action()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        queue = EventQueue()
        order = []
        for tag in ("first", "second", "third"):
            queue.push(1.0, lambda t=tag: order.append(t))
        while (entry := queue.pop()) is not None:
            entry[2].action()
        assert order == ["first", "second", "third"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        ran = []
        keep = queue.push(1.0, lambda: ran.append("keep"))
        drop = queue.push(0.5, lambda: ran.append("drop"))
        drop.cancel()
        while (entry := queue.pop()) is not None:
            entry[2].action()
        assert ran == ["keep"]

    def test_len_counts_live_events(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert len(queue) == 1

    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.pop() is None
        assert len(queue) == 0
        assert not queue

    def test_repr_mentions_note(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, note="deliver")
        assert "deliver" in repr(event)

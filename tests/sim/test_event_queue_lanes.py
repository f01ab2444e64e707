"""Tests for the event queue and the kernel pumps over it: pop order
by ``(time, seq)``, messages as their own queue payload, and
cancellation bookkeeping with in-place compaction."""

from __future__ import annotations

import random

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator


def _noop() -> None:
    pass


class TestLaneMerging:
    def test_pop_merges_lanes_in_time_seq_order(self):
        queue = EventQueue()
        times = [3.0, 1.0, 2.0, 1.0, 5.0, 4.0, 2.0]
        for time in times:
            queue.push(time, _noop)
        popped = []
        while queue:
            popped.append(queue.pop())
        assert [entry[0] for entry in popped] == sorted(times)
        # Equal times dequeue in scheduling (seq) order.
        seqs_at_1 = [entry[1] for entry in popped if entry[0] == 1.0]
        assert seqs_at_1 == sorted(seqs_at_1)

    def test_random_interleaving_matches_sorted_order(self):
        rng = random.Random(11)
        queue = EventQueue()
        keys = []
        for _ in range(500):
            time = rng.choice([0.5, 1.0, 1.5, 2.0, 4.0, 8.0])
            event = queue.push(time, _noop)
            keys.append((time, event.seq))
        popped = []
        while queue:
            time, seq, _event = queue.pop()
            popped.append((time, seq))
        assert popped == sorted(keys)

    def test_interleaved_push_and_pop(self):
        queue = EventQueue()
        queue.push(2.0, _noop)
        queue.push(1.0, _noop)
        assert queue.pop()[0] == 1.0
        queue.push(0.5, _noop)  # earlier than everything queued
        assert queue.pop()[0] == 0.5
        assert queue.pop()[0] == 2.0
        assert queue.pop() is None


class TestDeferredMessages:
    def test_kernel_send_enqueues_message_payload(self):
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        a = simulator.spawn(simulator.machine(network), "a")
        b = simulator.spawn(simulator.machine(network), "b")
        message = a.send(b, payload="hi")
        entry = simulator.queue._heap[0]
        assert entry[2] is message
        # pop hands back that raw entry; nothing is delivered yet.
        assert simulator.queue.pop() is entry
        assert entry[0] == message.deliver_time
        assert not message.settled


class TestCancellationBookkeeping:
    def test_len_is_live_count(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(10)]
        assert len(queue) == 10
        events[3].cancel()
        events[7].cancel()
        assert len(queue) == 8
        # Cancelled entries still in the heap; compaction may have run.
        assert queue.approx_len() - len(queue) <= 2

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        keep = queue.push(1.0, _noop)
        drop = queue.push(2.0, _noop)
        last = queue.push(3.0, _noop)
        drop.cancel()
        assert queue.pop()[2] is keep
        assert queue.pop()[2] is last
        assert queue.pop() is None

    def test_compaction_triggers_past_half_cancelled(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(20)]
        for event in events[:11]:
            event.cancel()
        # More than half cancelled -> automatic compact() dropped them.
        assert queue.approx_len() - len(queue) == 0
        assert queue.approx_len() == len(queue) == 9

    def test_compaction_covers_both_lanes(self):
        queue = EventQueue()
        fifo_events = [queue.push(float(i + 10), _noop) for i in range(6)]
        heap_events = [queue.push(float(i), _noop) for i in range(6)]
        for event in fifo_events[:4] + heap_events[:4]:
            event.cancel()
        queue.compact()
        assert queue.approx_len() - len(queue) == 0
        popped = []
        while queue:
            popped.append(queue.pop()[0])
        assert popped == sorted(
            e.time for e in fifo_events[4:] + heap_events[4:])

    def test_cancel_after_pop_is_harmless(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        assert queue.pop()[2] is event
        live_before = len(queue)
        event.cancel()  # already popped: only the flag flips
        assert event.cancelled
        assert len(queue) == live_before
        assert queue.approx_len() - len(queue) == 0


class TestRunPumpIntegration:
    def test_run_until_bound_pushes_head_back(self):
        simulator = Simulator(seed=0)
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(5.0, lambda: fired.append(5))
        assert simulator.run(until=2.0) == 1
        assert fired == [1]
        assert len(simulator.queue) == 1
        assert simulator.run() == 1
        assert fired == [1, 5]

    def test_same_instant_batch_preserves_seq_order(self):
        simulator = Simulator(seed=0)
        order = []
        for index in range(50):
            simulator.schedule(1.0, lambda i=index: order.append(i))
        simulator.run()
        assert order == list(range(50))

    def test_mid_batch_cancellation_and_compaction(self):
        # An action cancels most of the still-queued same-instant
        # events, pushing the queue past the compaction threshold mid
        # batch; the in-place rebuild must stay visible to the pump.
        simulator = Simulator(seed=0)
        fired = []
        events = []

        def cancel_rest() -> None:
            fired.append("cancel")
            for event in events:
                event.cancel()

        simulator.schedule(1.0, cancel_rest)
        events.extend(
            simulator.schedule(1.0, lambda i=i: fired.append(i))
            for i in range(40))
        survivor = simulator.schedule(2.0, lambda: fired.append("end"))
        assert survivor.cancelled is False
        simulator.run()
        assert fired == ["cancel", "end"]
        assert len(simulator.queue) == 0

    def test_mid_pump_compaction_in_run_until_settled(self):
        # A timer fired inside run_until_settled cancels most of the
        # queue, so compact() rebuilds the heap under the pump's inline
        # pop; the rebuild must be in place or the pump keeps popping a
        # stale copy (the message would be delivered twice).
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        a = simulator.spawn(simulator.machine(network), "a")
        b = simulator.spawn(simulator.machine(network), "b")
        fired = []
        doomed = []

        def cancel_most() -> None:
            fired.append("cancel")
            for event in doomed:
                event.cancel()

        simulator.schedule(0.5, cancel_most)
        doomed.extend(
            simulator.schedule(1.0, lambda i=i: fired.append(i))
            for i in range(40))
        for tag, delay in (("late0", 4.0), ("late1", 3.0), ("late2", 3.0)):
            simulator.schedule(delay, lambda t=tag: fired.append(t))
        message = a.send(b, payload="hi", latency=2.0)
        assert simulator.run_until_settled(message) == 2
        assert message.delivered
        assert fired == ["cancel"]
        assert simulator.queue.approx_len() - len(simulator.queue) == 0
        assert simulator.run() == 3
        assert fired == ["cancel", "late1", "late2", "late0"]
        assert simulator.messages_delivered == 1
        assert len(simulator.queue) == 0

"""Tests for the simulator kernel: determinism, delivery, scheduling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import ScheduledEvent
from repro.sim.kernel import Simulator
from repro.sim.messages import Message


def two_processes(simulator: Simulator):
    network = simulator.network("lan")
    sender = simulator.spawn(simulator.machine(network, "m1"), "sender")
    receiver = simulator.spawn(simulator.machine(network, "m2"),
                               "receiver")
    return sender, receiver


class TestMessaging:
    def test_send_sets_every_message_slot(self):
        """``Simulator.send`` is the one place a message is built: a
        slot added to ``Message`` without a line there fails here, not
        later as an ``AttributeError`` on first read."""
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        message = sender.send(receiver, payload="ping")
        unset = [slot for slot in Message.__slots__
                 if not hasattr(message, slot)]
        assert unset == []

    def test_roundtrip(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        sender.send(receiver, payload="ping")
        simulator.run()
        message = receiver.receive()
        assert message.payload == "ping"
        assert simulator.messages_delivered == 1

    def test_latency_orders_delivery(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        sender.send(receiver, payload="slow", latency=5.0)
        sender.send(receiver, payload="fast", latency=1.0)
        simulator.run()
        assert receiver.receive().payload == "fast"
        assert receiver.receive().payload == "slow"

    def test_clock_advances_to_delivery_time(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        sender.send(receiver, latency=4.5)
        simulator.run()
        assert simulator.clock.now == 4.5

    def test_handler_invoked_on_delivery(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        seen = []
        receiver.on_message(lambda proc, msg: seen.append(msg.payload))
        sender.send(receiver, payload=1)
        simulator.run()
        assert seen == [1]

    def test_negative_latency_rejected(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        with pytest.raises(SimulationError):
            sender.send(receiver, latency=-1.0)

    def test_dead_sender_rejected(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        sender.exit()
        with pytest.raises(SimulationError):
            sender.send(receiver)

    def test_message_to_dead_receiver_is_dropped(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        sender.send(receiver)
        receiver.machine.alive = False
        simulator.run()
        assert simulator.messages_dropped == 1
        assert receiver.receive() is None


class TestPartitions:
    def test_partition_drops_cross_network_messages(self):
        simulator = Simulator()
        net1, net2 = simulator.network("n1"), simulator.network("n2")
        a = simulator.spawn(simulator.machine(net1))
        b = simulator.spawn(simulator.machine(net2))
        simulator.partition(net1, net2)
        a.send(b)
        simulator.run()
        assert simulator.messages_dropped == 1

    def test_heal_restores_delivery(self):
        simulator = Simulator()
        net1, net2 = simulator.network(), simulator.network()
        a = simulator.spawn(simulator.machine(net1))
        b = simulator.spawn(simulator.machine(net2))
        simulator.partition(net1, net2)
        simulator.heal(net1, net2)
        a.send(b)
        simulator.run()
        assert simulator.messages_delivered == 1

    def test_partition_is_symmetric(self):
        simulator = Simulator()
        net1, net2 = simulator.network(), simulator.network()
        simulator.partition(net1, net2)
        assert simulator.partitioned(net2, net1)


class TestScheduling:
    def test_scheduled_action_runs_at_time(self):
        simulator = Simulator()
        ran_at = []
        simulator.schedule(3.0, lambda: ran_at.append(simulator.clock.now))
        simulator.run()
        assert ran_at == [3.0]

    def test_run_until_leaves_future_events(self):
        simulator = Simulator()
        ran = []
        simulator.schedule(1.0, lambda: ran.append(1))
        simulator.schedule(10.0, lambda: ran.append(10))
        simulator.run(until=5.0)
        assert ran == [1]
        assert simulator.clock.now == 5.0
        simulator.run()
        assert ran == [1, 10]

    def test_cannot_schedule_in_past(self):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_max_events_guard(self):
        simulator = Simulator()

        def reschedule():
            simulator.schedule(1.0, reschedule)

        simulator.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            simulator.run(max_events=10)

    def test_run_returns_processed_count(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.run() == 2


class TestBoundedPump:
    """run_until_settled: the kernel fast path."""

    def test_settles_message_without_draining_future_events(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        fired = []
        simulator.schedule(100.0, lambda: fired.append(True))
        message = sender.send(receiver, payload="ping", latency=2.0)
        processed = simulator.run_until_settled(message)
        assert message.delivered and message.settled
        assert processed == 1
        assert not fired
        assert len(simulator.queue) == 1
        assert simulator.clock.now == 2.0
        simulator.run()
        assert fired == [True]

    def test_runs_intervening_events_in_order(self):
        """Events scheduled *before* the awaited delivery still run —
        the pump stops early, it never reorders."""
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        ran = []
        simulator.schedule(1.0, lambda: ran.append("early"))
        message = sender.send(receiver, latency=3.0)
        simulator.run_until_settled(message)
        assert ran == ["early"]

    def test_accepts_an_iterable_of_messages(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        batch = [sender.send(receiver, payload=i, latency=float(i + 1))
                 for i in range(3)]
        simulator.run_until_settled(batch)
        assert all(message.settled for message in batch)
        assert simulator.messages_delivered == 3

    def test_dropped_message_counts_as_settled(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        message = sender.send(receiver)
        receiver.machine.alive = False
        simulator.run_until_settled(message)
        assert message.dropped and message.settled
        assert not message.delivered

    def test_exhausted_queue_ends_the_pump(self):
        """An unsettleable message (nothing queued can deliver it)
        returns instead of spinning."""
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        ghost = sender.send(receiver)
        simulator.queue.pop()  # lose the delivery event
        assert simulator.run_until_settled(ghost) == 0
        assert not ghost.settled

    def test_max_events_guard(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)

        def reschedule():
            simulator.schedule(0.5, reschedule)

        simulator.schedule(0.0, reschedule)
        message = sender.send(receiver, latency=1e9)
        with pytest.raises(SimulationError):
            simulator.run_until_settled(message, max_events=10)

    def test_empty_batch_settles_at_once(self):
        """An empty batch has nothing to wait for: the pump returns 0
        and every queued event stays queued (it is not a full run)."""
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        fired = []
        simulator.schedule(1.0, lambda: fired.append(True))
        sender.send(receiver, latency=2.0)
        assert simulator.run_until_settled([]) == 0
        assert len(simulator.queue) == 2
        assert not fired and simulator.messages_delivered == 0
        assert simulator.clock.now == 0.0

    def test_settled_batch_dispatches_nothing(self):
        simulator = Simulator()
        sender, receiver = two_processes(simulator)
        batch = [sender.send(receiver, payload=i) for i in range(2)]
        simulator.run_until_settled(batch)
        later = sender.send(receiver, latency=1.0)
        assert simulator.run_until_settled(batch) == 0
        assert simulator.run_until_settled(batch[0]) == 0
        assert not later.settled and len(simulator.queue) == 1

    def test_equivalent_order_to_full_run(self):
        """Pumping bounded then draining gives the same trace as one
        full run()."""

        def build():
            simulator = Simulator(seed=3)
            sender, receiver = two_processes(simulator)
            messages = [sender.send(receiver, payload=i,
                                    latency=1.0 + simulator.rng.random() / 2)
                        for i in range(10)]
            return simulator, messages

        bounded, messages = build()
        for message in messages:
            bounded.run_until_settled(message)
        full, _ = build()
        full.run()
        assert ([e.detail for e in bounded.trace]
                == [e.detail for e in full.trace])


class TestDeterminism:
    def _digest(self, seed: int) -> list[str]:
        simulator = Simulator(seed=seed)
        network = simulator.network("lan")
        processes = [simulator.spawn(simulator.machine(network), f"p{i}")
                     for i in range(3)]
        for index in range(20):
            sender = processes[index % 3]
            receiver = processes[(index + 1) % 3]
            sender.send(receiver,
                        latency=1.0 + simulator.rng.random() / 2)
        simulator.run()
        return [entry.detail for entry in simulator.trace]

    def test_same_seed_same_trace(self):
        assert self._digest(5) == self._digest(5)

    def test_different_seed_different_latencies(self):
        first = Simulator(seed=1).rng.random()
        second = Simulator(seed=2).rng.random()
        assert first != second

    def test_spawn_registers_in_sigma(self):
        simulator = Simulator()
        process = simulator.spawn(
            simulator.machine(simulator.network()))
        assert process in simulator.sigma

    def test_spawn_on_dead_machine_rejected(self):
        simulator = Simulator()
        machine = simulator.machine(simulator.network())
        machine.alive = False
        with pytest.raises(SimulationError):
            simulator.spawn(machine)

    def test_repr(self):
        assert "sent=0" in repr(Simulator())


class TestOrderingProperties:
    def test_fifo_per_pair_with_equal_latency(self):
        """Messages between one sender/receiver pair with equal
        latencies are delivered in send order."""
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        sender = simulator.spawn(machine, "s")
        receiver = simulator.spawn(machine, "r")
        for index in range(50):
            sender.send(receiver, payload=index, latency=2.0)
        simulator.run()
        received = []
        while (message := receiver.receive()) is not None:
            received.append(message.payload)
        assert received == list(range(50))

    def test_handler_sends_are_processed_same_run(self):
        """A handler that replies keeps the kernel draining until
        quiescence in a single run() call."""
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        ping = simulator.spawn(machine, "ping")
        pong = simulator.spawn(machine, "pong")
        volleys = []

        def pong_handler(process, message):
            if message.payload < 3:
                volleys.append(message.payload)
                process.send(ping, payload=message.payload)

        def ping_handler(process, message):
            process.send(pong, payload=message.payload + 1)

        pong.on_message(pong_handler)
        ping.on_message(ping_handler)
        ping.send(pong, payload=0)
        simulator.run()
        assert volleys == [0, 1, 2]


def _cancelled(entry) -> bool:
    item = entry[2]
    return type(item) is ScheduledEvent and item.cancelled


class _Scripted:
    """One kernel under a generated script.  Timers and deliveries log
    themselves; a timer may, when it fires, enqueue same-instant work
    or cancel a later timer — what a pump meets mid-run."""

    def __init__(self):
        self.sim = Simulator(seed=0)
        self.sender, self.receiver = two_processes(self.sim)
        self.log: list = []
        self.handles: list = []
        self.sent = 0
        self.receiver.on_message(
            lambda _process, message: self.log.append(message.payload))
        #: Popped by :meth:`reference_run`, not yet due.
        self.held: list = []

    def apply(self, op) -> None:
        if op[0] == "schedule":
            _kind, delay, then = op
            tag = f"timer{len(self.handles)}"
            self.handles.append(self.sim.schedule(
                delay, lambda: self._fire(tag, then)))
        elif op[0] == "send":
            self.sent += 1
            self.sender.send(self.receiver, payload=f"msg{self.sent}",
                             latency=op[1])
        elif self.handles:  # cancel
            self.handles[op[1] % len(self.handles)].cancel()

    def _fire(self, tag: str, then) -> None:
        self.log.append(tag)
        if then == "timer":
            self.sim.schedule(0.0, lambda: self.log.append(tag + "+"))
        elif then == "send":
            self.sender.send(self.receiver, payload=tag + ">", latency=0.0)
        elif then == "cancel":
            self.handles[-1].cancel()

    def hold_next(self) -> None:
        """Pop one raw ``(time, seq, item)`` entry into :attr:`held`
        and drop the held entries cancelled since."""
        popped = self.sim.queue.pop()
        if popped is not None:
            self.held.append(popped)
        self.held = [entry for entry in self.held if not _cancelled(entry)]

    def dispatch(self, entry) -> None:
        """Run one held entry: deliver a message, fire a timer."""
        self.held.remove(entry)
        self.sim.clock.advance_to(entry[0])
        item = entry[2]
        if type(item) is Message:
            self.sim._deliver(item)
        else:
            item.action()

    def reference_run(self, until, max_events) -> bool:
        """What ``run`` must do, from repeated ``EventQueue.pop()``
        alone: each pop joins the not-yet-due entries, the earliest
        ``(time, seq)`` of those runs next.  True if the bound was
        reached (where ``run`` raises)."""
        processed = 0
        while processed < max_events:
            self.hold_next()
            if not self.held:
                break
            entry = min(self.held)
            if until is not None and entry[0] > until:
                break
            self.dispatch(entry)
            processed += 1
        else:
            return True
        if until is not None and self.sim.clock.now < until:
            self.sim.clock.advance_to(until)
        return False

    def queued(self) -> int:
        return len(self.sim.queue) + sum(
            not _cancelled(entry) for entry in self.held)


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS,
              st.sampled_from([None, "timer", "send", "cancel"])),
    st.tuples(st.just("send"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("run"), st.one_of(st.none(), _DELAYS),
              st.one_of(st.none(), st.integers(0, 6))))


class TestRunOrderContract:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    def test_run_dispatches_what_repeated_pop_yields(self, script):
        """``Simulator.run`` — whatever mix of lanes, same-instant
        ties, cancellations, ``until`` push-backs and ``max_events``
        stops a script produces — dispatches exactly the sequence
        repeated ``EventQueue.pop()`` yields on a twin kernel, leaves
        later events queued, and raises at the bound."""
        subject, twin = _Scripted(), _Scripted()
        for op in [*script, ("run", None, None)]:
            if op[0] != "run":
                subject.apply(op)
                twin.apply(op)
                continue
            _kind, delay, bound = op
            until = None if delay is None else subject.sim.clock.now + delay
            bound = 1_000_000 if bound is None else bound
            if twin.reference_run(until, bound):
                with pytest.raises(SimulationError):
                    subject.sim.run(until=until, max_events=bound)
            else:
                subject.sim.run(until=until, max_events=bound)
            assert subject.log == twin.log
            assert subject.sim.clock.now == twin.sim.clock.now
            assert len(subject.sim.queue) == twin.queued()
        assert not subject.sim.queue


def _settle_by_pop(twin: _Scripted, message, max_events) -> bool:
    """What ``run_until_settled`` must do, from repeated
    ``EventQueue.pop()`` alone: dispatch the earliest ``(time, seq)``
    event until *message* settles.  True if the bound was reached
    first (where ``run_until_settled`` raises)."""
    processed = 0
    while not (message.delivered or message.dropped):
        if processed >= max_events:
            return True
        twin.hold_next()
        twin.dispatch(min(twin.held))
        processed += 1
    return False


#: ``("settle", latency, bound)``: send a fresh message and pump until
#: it settles, under ``max_events=bound``.
_SETTLE = st.tuples(st.just("settle"), _DELAYS,
                    st.one_of(st.none(), st.integers(0, 6)))


class TestSettleOrderContract:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(_OPS, _SETTLE), max_size=40))
    def test_settle_dispatches_the_prefix_repeated_pop_yields(self, script):
        """``Simulator.run_until_settled`` dispatches exactly the
        prefix of the sequence repeated ``EventQueue.pop()`` yields on
        a twin kernel, stops right after the event that settles its
        message, leaves the rest queued, and raises at the bound."""
        subject, twin = _Scripted(), _Scripted()
        for op in [*script, ("run", None, None)]:
            if op[0] not in ("run", "settle"):
                subject.apply(op)
                twin.apply(op)
                continue
            _kind, delay, bound = op
            bound = 1_000_000 if bound is None else bound
            if op[0] == "run":
                until = (None if delay is None
                         else subject.sim.clock.now + delay)
                if twin.reference_run(until, bound):
                    with pytest.raises(SimulationError):
                        subject.sim.run(until=until, max_events=bound)
                else:
                    subject.sim.run(until=until, max_events=bound)
            else:
                mine, theirs = (
                    s.sender.send(s.receiver, payload="settle",
                                  latency=delay)
                    for s in (subject, twin))
                if _settle_by_pop(twin, theirs, bound):
                    with pytest.raises(SimulationError):
                        subject.sim.run_until_settled(mine, bound)
                    assert not mine.delivered
                else:
                    subject.sim.run_until_settled(mine, bound)
                    assert subject.log[-1] == "settle"
            assert subject.log == twin.log
            assert subject.sim.clock.now == twin.sim.clock.now
            assert len(subject.sim.queue) == twin.queued()
        assert not subject.sim.queue

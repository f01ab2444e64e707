"""Tests for processes, traces, and failure injection."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.obs.instrument import Instrumentation
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@pytest.fixture
def simulator():
    return Simulator(seed=0)


class TestProcessLifecycle:
    def test_spawn_child_links_parent(self, simulator):
        machine = simulator.machine(simulator.network())
        parent = simulator.spawn(machine, "parent")
        child = parent.spawn_child(label="child")
        assert child.parent is parent
        assert child in parent.children
        assert child.machine is machine

    def test_spawn_child_on_other_machine(self, simulator):
        network = simulator.network()
        m1, m2 = simulator.machine(network), simulator.machine(network)
        parent = simulator.spawn(m1, "parent")
        child = parent.spawn_child(machine=m2, label="remote-child")
        assert child.machine is m2

    def test_exit_frees_nothing_but_marks_dead(self, simulator):
        machine = simulator.machine(simulator.network())
        process = simulator.spawn(machine)
        laddr = process.laddr
        process.exit()
        assert not process.alive
        assert machine.by_laddr(laddr) is None
        # Addresses are not reused.
        successor = simulator.spawn(machine)
        assert successor.laddr > laddr

    def test_full_address(self, simulator):
        network = simulator.network()
        machine = simulator.machine(network)
        process = simulator.spawn(machine)
        assert process.full_address == (network.naddr, machine.maddr,
                                        process.laddr)

    def test_same_machine_network_predicates(self, simulator):
        net1, net2 = simulator.network(), simulator.network()
        m1 = simulator.machine(net1)
        a, b = simulator.spawn(m1), simulator.spawn(m1)
        c = simulator.spawn(simulator.machine(net1))
        d = simulator.spawn(simulator.machine(net2))
        assert a.same_machine(b)
        assert not a.same_machine(c)
        assert a.same_network(c)
        assert not a.same_network(d)

    def test_receive_empty_mailbox(self, simulator):
        process = simulator.spawn(simulator.machine(simulator.network()))
        assert process.receive() is None

    def test_repr_shows_dead(self, simulator):
        process = simulator.spawn(simulator.machine(simulator.network()))
        process.exit()
        assert "dead" in repr(process)


class TestDelivery:
    def pair(self, simulator):
        network = simulator.network("lan")
        sender = simulator.spawn(simulator.machine(network, "a-m"), "a")
        receiver = simulator.spawn(simulator.machine(network, "b-m"), "b")
        return sender, receiver

    def test_a_handler_takes_each_message_once(self, simulator):
        sender, receiver = self.pair(simulator)
        seen = []
        receiver.on_message(
            lambda process, message: seen.append((process, message)))
        first = sender.send(receiver, payload=1)
        second = sender.send(receiver, payload=2)
        simulator.run()
        assert seen == [(receiver, first), (receiver, second)]
        assert receiver.receive() is None

    def test_without_a_handler_the_mailbox_queues_in_order(self, simulator):
        sender, receiver = self.pair(simulator)
        messages = [sender.send(receiver, payload=index)
                    for index in range(3)]
        simulator.run()
        assert [receiver.receive() for _ in range(4)] == [*messages, None]

    def test_a_process_that_died_before_delivery_drops_it(self):
        # The receiver's machine crashes and restarts while the message
        # is in flight: the process is gone, so the message is dropped
        # — counted, traced and observed as a drop, never a delivery.
        obs = Instrumentation()
        simulator = Simulator(seed=0, obs=obs)
        sender, receiver = self.pair(simulator)
        injector = FailureInjector(simulator)
        message = sender.send(receiver, payload="ping", latency=2.0)
        injector.schedule(0.5, "crash", receiver.machine)
        injector.schedule(1.0, "restart", receiver.machine)
        simulator.run()
        assert receiver.machine.alive and not receiver.alive
        assert message.dropped and not message.delivered
        assert message.drop_reason == "receiver dead"
        assert (simulator.messages_delivered,
                simulator.messages_dropped) == (0, 1)
        assert [e.detail for e in simulator.trace.of_kind("drop")] \
            == [f"msg#{message.msg_id}: receiver dead"]
        assert simulator.trace.of_kind("deliver") == []
        assert obs.metrics.counter("sim_messages_dropped_total").value == 1
        assert obs.metrics.counter(
            "sim_messages_delivered_total").value == 0
        assert receiver.receive() is None


class TestFailureInjector:
    def test_crash_kills_processes(self, simulator):
        machine = simulator.machine(simulator.network())
        process = simulator.spawn(machine)
        FailureInjector(simulator).crash_machine(machine)
        assert not machine.alive
        assert not process.alive

    def test_crash_twice_rejected(self, simulator):
        machine = simulator.machine(simulator.network())
        injector = FailureInjector(simulator)
        injector.crash_machine(machine)
        with pytest.raises(SimulationError):
            injector.crash_machine(machine)

    def test_restart_allows_new_spawns(self, simulator):
        machine = simulator.machine(simulator.network())
        injector = FailureInjector(simulator)
        injector.crash_machine(machine)
        injector.restart_machine(machine)
        fresh = simulator.spawn(machine)
        assert fresh.alive

    def test_renumber_machine_traced(self, simulator):
        machine = simulator.machine(simulator.network())
        FailureInjector(simulator).renumber_machine(machine, 33)
        assert machine.maddr == 33
        assert any("renumber" == e.kind for e in simulator.trace)

    def test_renumber_network(self, simulator):
        network = simulator.network()
        FailureInjector(simulator).renumber_network(network, 44)
        assert network.naddr == 44

    def test_partition_delegation(self, simulator):
        net1, net2 = simulator.network(), simulator.network()
        injector = FailureInjector(simulator)
        injector.partition(net1, net2)
        assert simulator.partitioned(net1, net2)
        injector.heal(net1, net2)
        assert not simulator.partitioned(net1, net2)

    def test_partition_and_heal_are_idempotent(self, simulator):
        net1, net2 = simulator.network(), simulator.network()
        injector = FailureInjector(simulator)
        assert injector.partition(net1, net2)
        assert not injector.partition(net1, net2)  # no-op, nothing new
        assert simulator.partitioned(net1, net2)
        assert injector.heal(net1, net2)
        assert not injector.heal(net1, net2)

    def test_restart_is_idempotent(self, simulator):
        machine = simulator.machine(simulator.network())
        injector = FailureInjector(simulator)
        fired = []
        injector.on_restart(fired.append)
        injector.restart_machine(machine)  # already alive: no hooks
        assert fired == []
        injector.crash_machine(machine)
        injector.restart_machine(machine)
        assert fired == [machine]

    def test_restart_hooks_scoped_and_ordered(self, simulator):
        network = simulator.network()
        mine = simulator.machine(network, "mine")
        other = simulator.machine(network, "other")
        injector = FailureInjector(simulator)
        fired = []
        injector.on_restart(lambda m: fired.append(("any", m.label)))
        injector.on_restart(lambda m: fired.append(("other", m.label)),
                            machine=other)
        injector.on_restart(lambda m: fired.append(("mine", m.label)),
                            machine=mine)
        injector.crash_machine(mine)
        injector.restart_machine(mine)
        assert fired == [("any", "mine"), ("mine", "mine")]


class TestFlakyLinks:
    def make_pair(self, simulator):
        lan, wan = simulator.network("lan"), simulator.network("wan")
        a = simulator.spawn(simulator.machine(lan, "a-m"), "a")
        b = simulator.spawn(simulator.machine(wan, "b-m"), "b")
        return lan, wan, a, b

    def test_lossy_link_drops_with_reason(self):
        simulator = Simulator(seed=0)
        lan, wan, a, b = self.make_pair(simulator)
        FailureInjector(simulator).flaky_link(lan, wan, drop_prob=1.0)
        message = a.send(b, payload="ping")
        simulator.run()
        assert message.dropped
        assert message.drop_reason == "flaky link"

    def test_steady_link_restores_delivery(self):
        simulator = Simulator(seed=0)
        lan, wan, a, b = self.make_pair(simulator)
        injector = FailureInjector(simulator)
        injector.flaky_link(lan, wan, drop_prob=1.0)
        assert injector.steady_link(lan, wan)
        assert not injector.steady_link(lan, wan)  # idempotent
        message = a.send(b, payload="ping")
        simulator.run()
        assert message.delivered

    def test_latency_spike_delays_delivery(self):
        simulator = Simulator(seed=0)
        lan, wan, a, b = self.make_pair(simulator)
        FailureInjector(simulator).flaky_link(lan, wan, drop_prob=0.0,
                                              extra_latency=5.0)
        message = a.send(b, payload="ping", latency=1.0)
        simulator.run()
        assert message.delivered
        assert 1.0 < simulator.clock.now <= 6.0

    def test_flakiness_reported_and_validated(self):
        simulator = Simulator(seed=0)
        lan, wan, *_ = self.make_pair(simulator)
        simulator.set_flaky_link(lan, wan, 0.3, 1.5)
        assert simulator.link_flakiness(lan, wan) == (0.3, 1.5)
        assert simulator.link_flakiness(wan, lan) == (0.3, 1.5)
        simulator.clear_flaky_link(lan, wan)
        assert simulator.link_flakiness(lan, wan) == (0.0, 0.0)
        with pytest.raises(SimulationError):
            simulator.set_flaky_link(lan, wan, 1.5)
        with pytest.raises(SimulationError):
            simulator.set_flaky_link(lan, wan, 0.5, -1.0)

    def test_drops_are_deterministic_per_seed(self):
        def outcomes(seed):
            simulator = Simulator(seed=seed)
            lan, wan, a, b = self.make_pair(simulator)
            FailureInjector(simulator).flaky_link(lan, wan,
                                                  drop_prob=0.5)
            dropped = []
            for _ in range(12):
                message = a.send(b, payload="ping")
                simulator.run()
                dropped.append(message.dropped)
            return dropped

        assert outcomes(5) == outcomes(5)
        assert True in outcomes(5) and False in outcomes(5)


class TestScriptedTimelines:
    def test_schedule_validates_kind_and_time(self):
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        injector = FailureInjector(simulator)
        with pytest.raises(SimulationError):
            injector.schedule(5.0, "meteor", machine)
        simulator.run(until=10.0)
        with pytest.raises(SimulationError):
            injector.schedule(5.0, "crash", machine)  # in the past

    def test_timeline_fires_in_order(self):
        simulator = Simulator(seed=0)
        lan, wan = simulator.network("lan"), simulator.network("wan")
        machine = simulator.machine(lan, "m")
        injector = FailureInjector(simulator)
        booked = injector.schedule_timeline([
            (5.0, "crash", machine),
            (15.0, "restart", machine),
            (20.0, "partition", lan, wan),
            (30.0, "heal", lan, wan),
            (35.0, "flaky_link", lan, wan, 0.4, 1.0),
            (45.0, "steady_link", lan, wan),
        ])
        assert booked == 6
        simulator.run(until=10.0)
        assert not machine.alive
        simulator.run(until=25.0)
        assert machine.alive
        assert simulator.partitioned(lan, wan)
        simulator.run(until=40.0)
        assert not simulator.partitioned(lan, wan)
        assert simulator.link_flakiness(lan, wan) == (0.4, 1.0)
        simulator.run(until=50.0)
        assert simulator.link_flakiness(lan, wan) == (0.0, 0.0)

    def test_timeline_restart_runs_hooks(self):
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network(), "m")
        injector = FailureInjector(simulator)
        revived = []
        injector.on_restart(lambda m: revived.append(m.label))
        injector.schedule_timeline([(2.0, "crash", machine),
                                    (4.0, "restart", machine)])
        simulator.run(until=5.0)
        assert revived == ["m"]


class TestTraceLog:
    def test_record_and_filter(self):
        log = TraceLog()
        log.record(0.0, "send", "a → b")
        log.record(1.0, "deliver", "b got it")
        log.record(2.0, "send", "b → a")
        assert len(log) == 3
        assert [e.detail for e in log.of_kind("send")] == \
            ["a → b", "b → a"]

    def test_tail(self):
        log = TraceLog()
        for index in range(20):
            log.record(float(index), "tick", str(index))
        assert [e.detail for e in log.tail(3)] == ["17", "18", "19"]

    def test_entry_repr(self):
        log = TraceLog()
        log.record(1.5, "send", "hello")
        [entry] = log
        assert repr(entry) == "[t=1.5] send: hello"

    def test_kernel_traces_lifecycle(self):
        simulator = Simulator()
        network = simulator.network("lan")
        machine = simulator.machine(network, "box")
        sender = simulator.spawn(machine, "p")
        receiver = simulator.spawn(machine, "q")
        sender.send(receiver)
        simulator.run()
        kinds = [entry.kind for entry in simulator.trace]
        assert kinds.count("topology") == 2
        assert "spawn" in kinds and "send" in kinds and "deliver" in kinds

"""Tests for boundary gateways (§6 'implemented by mapping')."""

from __future__ import annotations

import pytest

from repro.closure.boundary import (
    BoundaryGateway,
    mapper_from_scheme_rule,
    resolution_mapper,
)
from repro.closure.meta import ContextRegistry
from repro.model.context import Context
from repro.model.entities import Activity, ObjectEntity
from repro.model.names import CompoundName
from repro.model.resolution import resolve
from repro.namespaces.newcastle import NewcastleSystem
from repro.sim.kernel import Simulator


@pytest.fixture
def wired_newcastle():
    """A Newcastle system whose processes live in a simulator."""
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    nc = NewcastleSystem(sigma=simulator.sigma)
    processes = {}
    for machine_label in ("alpha", "beta"):
        nc.add_machine(machine_label).mkfile(
            f"usr/{machine_label}-data")
        machine = simulator.machine(network, machine_label)
        sim_process = simulator.spawn(machine, f"{machine_label}-p")
        processes[machine_label] = nc.spawn(
            machine_label, sim_process.label, activity=sim_process)
    return simulator, nc, processes


class TestGatewayOverNewcastle:
    def test_attachment_rewritten_across_machines(self, wired_newcastle):
        simulator, nc, processes = wired_newcastle
        gateway = BoundaryGateway(nc.boundary_mapper()).install(simulator)
        sender, receiver = processes["alpha"], processes["beta"]
        intended = nc.resolve_for(sender, "/usr/alpha-data")
        message = sender.send(receiver)
        message.attach("/usr/alpha-data", intended)
        simulator.run()
        attachment = receiver.receive().attachments[0]
        assert str(attachment.name) == "/../alpha/usr/alpha-data"
        assert str(attachment.original) == "/usr/alpha-data"
        assert resolve(nc.registry.context_of(receiver),
                       attachment.name) is intended
        assert gateway.stats()["mapped"] == 1

    def test_same_machine_traffic_passes_through(self, wired_newcastle):
        simulator, nc, processes = wired_newcastle
        gateway = BoundaryGateway(nc.boundary_mapper()).install(simulator)
        sender = processes["alpha"]
        sibling = nc.spawn("alpha", "sibling")
        # Use sim-level processes for transport; spawn one on alpha.
        sim_sibling = simulator.spawn(sender.machine, "sib")
        nc.adopt_activity(sim_sibling,
                          nc.registry.context_of(sibling), group="alpha")
        message = sender.send(sim_sibling)
        message.attach("/usr/alpha-data")
        simulator.run()
        attachment = sim_sibling.receive().attachments[0]
        assert str(attachment.name) == "/usr/alpha-data"
        assert gateway.stats()["passed"] == 1

    def test_relative_names_untouched(self, wired_newcastle):
        simulator, nc, processes = wired_newcastle
        BoundaryGateway(nc.boundary_mapper()).install(simulator)
        sender, receiver = processes["alpha"], processes["beta"]
        message = sender.send(receiver)
        message.attach("usr/alpha-data")
        simulator.run()
        attachment = receiver.receive().attachments[0]
        assert str(attachment.name) == "usr/alpha-data"


class TestGenericMappers:
    def test_mapper_from_scheme_rule_adapts_signature(self):
        calls = []

        def translate(name_, sender, receiver):
            calls.append((name_, sender.label, receiver.label))
            return name_.with_prefix("via")

        mapper = mapper_from_scheme_rule(translate)
        a, b = Activity("a"), Activity("b")
        mapped = mapper(a, b, CompoundName.parse("x"))
        assert str(mapped) == "via/x"
        assert calls == [(CompoundName.parse("x"), "a", "b")]

    def test_resolution_mapper_finds_receiver_side_name(self):
        target = ObjectEntity("t")
        registry = ContextRegistry()
        sender, receiver = Activity("s"), Activity("r")
        registry.register(sender, Context({"mine": target}))
        registry.register(receiver, Context({"yours": target}))
        mapper = resolution_mapper(
            registry,
            candidate_names=lambda activity: [
                CompoundName.parse("yours"), CompoundName.parse("other")])
        mapped = mapper(sender, receiver, CompoundName.parse("mine"))
        assert str(mapped) == "yours"

    def test_resolution_mapper_untranslatable(self):
        registry = ContextRegistry()
        sender, receiver = Activity("s"), Activity("r")
        registry.register(sender, Context())
        registry.register(receiver, Context())
        mapper = resolution_mapper(registry, lambda a: [])
        assert mapper(sender, receiver, CompoundName.parse("x")) is None

    def test_scope_predicate_short_circuits(self):
        gateway = BoundaryGateway(
            lambda s, r, n: n.with_prefix("mapped"),
            scope=lambda s, r: False)
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        a, b = simulator.spawn(machine, "a"), simulator.spawn(machine, "b")
        gateway.install(simulator)
        message = a.send(b)
        message.attach("x")
        simulator.run()
        assert str(b.receive().attachments[0].name) == "x"
        assert gateway.stats()["passed"] == 1

    def test_untranslatable_counter(self):
        gateway = BoundaryGateway(lambda s, r, n: None)
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        a, b = simulator.spawn(machine, "a"), simulator.spawn(machine, "b")
        gateway.install(simulator)
        message = a.send(b)
        message.attach("x")
        simulator.run()
        assert str(b.receive().attachments[0].name) == "x"
        assert gateway.stats()["untranslatable"] == 1

    def test_repr(self):
        gateway = BoundaryGateway(lambda s, r, n: n, label="g")
        assert "mapped=0" in repr(gateway)


class TestFederationMapper:
    def test_prefixes_foreign_shared_names(self):
        from repro.federation.scopes import FederationEnvironment

        env = FederationEnvironment()
        org1, org2 = env.add_scope("org1"), env.add_scope("org2")
        org1.publish("users").mkfile("amy/plan")
        org2.publish("users").mkfile("bob/plan")
        env.import_foreign(org2, org1, "org1")
        p1, p2 = env.spawn(org1, "p1"), env.spawn(org2, "p2")
        mapper = env.boundary_mapper()
        mapped = mapper(p1, p2, CompoundName.parse("/users/amy/plan"))
        assert str(mapped) == "/org1/users/amy/plan"
        assert env.resolve_for(p2, mapped) is \
            env.resolve_for(p1, "/users/amy/plan")

    def test_same_org_is_identity(self):
        from repro.federation.scopes import FederationEnvironment

        env = FederationEnvironment()
        org1 = env.add_scope("org1")
        org1.publish("users").mkfile("amy/plan")
        p1, p2 = env.spawn(org1, "p1"), env.spawn(org1, "p2")
        mapper = env.boundary_mapper()
        name_ = CompoundName.parse("/users/amy/plan")
        assert mapper(p1, p2, name_) == name_

    def test_missing_import_is_untranslatable(self):
        from repro.federation.scopes import FederationEnvironment

        env = FederationEnvironment()
        org1, org2 = env.add_scope("org1"), env.add_scope("org2")
        org1.publish("users").mkfile("amy/plan")
        org2.publish("users")
        p1, p2 = env.spawn(org1, "p1"), env.spawn(org2, "p2")
        mapper = env.boundary_mapper()
        assert mapper(p1, p2, CompoundName.parse("/users/amy/plan")) \
            is None

"""SimTransport: the seam over the deterministic kernel.

Pins the adapter's contracts — endpoint/send/timer/clock delegate to
the kernel unchanged, trace context attaches after ``send`` returns,
and the protocol's lookup spans carry the ``transport`` label.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.obs import Instrumentation
from repro.sim.kernel import Simulator
from repro.transport.base import Transport
from repro.transport.sim import SimEndpoint, SimTransport


@pytest.fixture
def sim():
    return Simulator(seed=0)


@pytest.fixture
def machine(sim):
    return sim.machine(sim.network("lan"), "m1")


class TestAsTransport:
    def test_surfaces_kernel_clock_rng_obs(self, sim):
        transport = SimTransport(sim)
        assert transport.kind == "sim"
        assert transport.rng is sim.rng
        assert transport.obs is sim.obs
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert transport.now() == sim.clock.now == 3.0


class TestEndpoints:
    def test_endpoint_spawns_on_machine(self, sim, machine):
        endpoint = SimTransport(sim).endpoint(machine, "svc")
        assert isinstance(endpoint, SimEndpoint)
        assert endpoint.label == "svc"
        assert endpoint.node is machine
        assert endpoint.process.machine is machine

    def test_adopt_wraps_existing_process(self, sim, machine):
        process = sim.spawn(machine, "existing")
        endpoint = SimTransport(sim).adopt(process)
        assert endpoint.process is process

    def test_endpoint_rejects_non_machine(self, sim):
        with pytest.raises(SimulationError):
            SimTransport(sim).endpoint("not-a-machine", "x")

    def test_send_between_endpoints(self, sim, machine):
        transport = SimTransport(sim)
        a = transport.endpoint(machine, "a")
        b = transport.endpoint(machine, "b")
        got = []
        b.on_message(lambda endpoint, envelope:
                     got.append((endpoint, envelope.payload)))
        a.send(b, payload={"hi": 1})
        sim.run()
        assert got == [(b, {"hi": 1})]

    def test_send_accepts_raw_process_target(self, sim, machine):
        # A received envelope's sender is a SimProcess; replies must
        # address it directly.
        transport = SimTransport(sim)
        a = transport.endpoint(machine, "a")
        process = sim.spawn(machine, "raw")
        a.send(process, payload="ping")
        sim.run()
        assert process.receive().payload == "ping"

    def test_send_rejects_foreign_target(self, sim, machine):
        endpoint = SimTransport(sim).endpoint(machine, "a")
        with pytest.raises(SimulationError):
            endpoint.send("somewhere", payload="x")

    def test_trace_context_attaches_after_send(self, sim, machine):
        transport = SimTransport(sim)
        a = transport.endpoint(machine, "a")
        b = transport.endpoint(machine, "b")
        seen = []
        b.on_message(lambda _e, envelope: seen.append(
            (envelope.trace_id, envelope.parent_span_id)))
        envelope = a.send(b, payload="traced")
        envelope.trace_id = "T1"
        envelope.parent_span_id = "S1"
        sim.run()
        assert seen == [("T1", "S1")]

    def test_timer_schedule_and_cancel(self, sim):
        transport = SimTransport(sim)
        fired = []
        transport.schedule(1.0, lambda: fired.append("a"))
        timer = transport.schedule(2.0, lambda: fired.append("b"))
        timer.cancel()
        sim.run()
        assert fired == ["a"]


class TestProtocolOverSeam:
    def make_world(self, chained=False):
        obs = Instrumentation()
        sim = Simulator(seed=0, obs=obs)
        network = sim.network("lan")
        client_machine = sim.machine(network, "client-m")
        server_machine = sim.machine(network, "server-m")
        tree = NamingTree("root", sigma=sim.sigma, parent_links=True)
        tree.mkdir("a/b")
        leaf = tree.mkfile("a/b/leaf")
        placement = DirectoryPlacement()
        placement.place(tree.root, client_machine)
        placement.place(tree.directory("a"), server_machine)
        placement.place(tree.directory("a/b"), server_machine)
        transport = SimTransport(sim)
        servers = {id(machine): NameLookupServer(
            transport, machine, placement=placement if chained else None)
            for machine in (client_machine, server_machine)}
        process = sim.spawn(client_machine, "client")
        client = AsyncNameClient(
            transport, PlacementRouter(placement, servers, client_machine),
            transport.adopt(process))
        return sim, client, ProcessContext(tree.root), leaf, obs

    @pytest.mark.parametrize("chained, exchanges", [(False, 2), (True, 1)])
    def test_a_server_that_knows_what_it_hosts_walks_the_suffix(
            self, chained, exchanges):
        """``/a/b/leaf``: ``a`` and ``a/b`` live on one server.  Built
        without the placement it cannot know that and answers one step
        per request; handed it, the whole path is one exchange — same
        entity, same steps, same count of steps served."""
        sim, client, context, leaf, _obs = self.make_world(chained)
        outcomes = []
        client.resolve(context, "/a/b/leaf", outcomes.append)
        sim.run()
        [outcome] = outcomes
        assert outcome.entity is leaf
        assert (outcome.steps, outcome.cost.local_steps,
                outcome.cost.remote_steps) == (4, 1, 2)
        assert sim.messages_sent == 2 * exchanges
        assert sum(server.requests_served
                   for server in client.router.servers.values()) == 2

    def test_client_exposes_transport_and_process(self):
        sim, client, *_ = self.make_world()
        assert isinstance(client.transport, SimTransport)
        assert isinstance(client.transport, Transport)
        assert client.transport.simulator is sim
        assert client.endpoint.process.label == "client"

    def test_lookup_span_carries_transport_label(self):
        sim, client, context, leaf, obs = self.make_world()
        outcomes = []
        client.resolve(context, "/a/b/leaf", outcomes.append)
        sim.run()
        assert outcomes[0].entity is leaf
        spans = obs.tracer.of_kind("lookup")
        assert spans and spans[-1].attrs["transport"] == "sim"
        assert spans[-1].attrs["client"] == "client"

    def test_server_exposes_endpoint_and_process(self):
        sim, client, context, leaf, _obs = self.make_world()
        server = next(iter(client.router.servers.values()))
        assert server.process is server.endpoint.process
        assert server.process.alive

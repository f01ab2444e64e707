"""Tests for the asynchronous name-lookup protocol."""

from __future__ import annotations

import pytest

from repro.model.resolution import resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.nameservice.retry import RetryPolicy
from repro.obs import Instrumentation
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.transport.sim import SimTransport


#: Three asks per replica of a step, re-asked the instant a timeout
#: fires.
RE_ASK = RetryPolicy(max_attempts=3, base_backoff=0.0)


def make_world(timeout=5.0, retry_policy=RE_ASK, instrument=False):
    """The fixture deployment, with tunable client timing (and
    optional instrumentation) for the late-reply/backoff tests."""
    obs = Instrumentation() if instrument else None
    simulator = (Simulator(seed=0, obs=obs) if obs is not None
                 else Simulator(seed=0))
    network = simulator.network("lan")
    client_machine = simulator.machine(network, "client-m")
    server1 = simulator.machine(network, "server1")
    server2 = simulator.machine(network, "server2")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b/c")
    leaf = tree.mkfile("a/b/c/leaf")
    placement = DirectoryPlacement()
    placement.place(tree.root, client_machine)
    placement.place(tree.directory("a"), client_machine)
    placement.place(tree.directory("a/b"), server1)
    placement.place(tree.directory("a/b/c"), server2)
    transport = SimTransport(simulator)
    servers = {id(machine): NameLookupServer(transport, machine)
               for machine in (client_machine, server1, server2)}
    client_process = simulator.spawn(client_machine, "client")
    client = AsyncNameClient(
        transport, PlacementRouter(placement, servers, client_machine),
        transport.adopt(client_process), timeout=timeout,
        retry_policy=retry_policy)
    context = ProcessContext(tree.root)
    return simulator, client, context, leaf, server1


@pytest.fixture
def world():
    """Client machine + two server machines hosting a directory chain:
    /a (client machine) /a/b (server1) /a/b/c (server2)."""
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    client_machine = simulator.machine(network, "client-m")
    server1 = simulator.machine(network, "server1")
    server2 = simulator.machine(network, "server2")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b/c")
    leaf = tree.mkfile("a/b/c/leaf")
    placement = DirectoryPlacement()
    placement.place(tree.root, client_machine)
    placement.place(tree.directory("a"), client_machine)
    placement.place(tree.directory("a/b"), server1)
    placement.place(tree.directory("a/b/c"), server2)
    transport = SimTransport(simulator)
    servers = {id(machine): NameLookupServer(transport, machine)
               for machine in (client_machine, server1, server2)}
    client_process = simulator.spawn(client_machine, "client")
    client = AsyncNameClient(
        transport, PlacementRouter(placement, servers, client_machine),
        transport.adopt(client_process), timeout=5.0,
        retry_policy=RE_ASK)
    context = ProcessContext(tree.root)
    return simulator, client, context, tree, leaf, server1, network


def run_lookup(simulator, client, context, name_):
    outcomes = []
    client.resolve(context, name_, outcomes.append)
    simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestHappyPath:
    def test_resolves_multi_server_chain(self, world):
        simulator, client, context, tree, leaf, *_ = world
        outcome = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert outcome.ok
        assert outcome.entity is leaf
        assert not outcome.failed

    def test_matches_local_semantics(self, world):
        simulator, client, context, tree, leaf, *_ = world
        for text in ("/a", "/a/b", "/a/b/c/leaf", "/a/zzz", "/zzz",
                     "a/b/c/leaf"):
            outcome = run_lookup(simulator, client, context, text)
            assert outcome.entity is resolve(context, text), text
            assert not outcome.failed

    def test_client_does_not_block_other_traffic(self, world):
        simulator, client, context, tree, leaf, *_ = world
        # Kick off a lookup and unrelated messages; one run drains all.
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        process = client.endpoint.process
        other = simulator.spawn(process.machine, "bystander")
        process.send(other, payload="hi")
        simulator.run()
        assert outcomes[0].entity is leaf
        assert other.receive().payload == "hi"

    def test_concurrent_lookups(self, world):
        simulator, client, context, tree, leaf, *_ = world
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        client.resolve(context, "/a/b", outcomes.append)
        client.resolve(context, "/missing", outcomes.append)
        assert client.outstanding() >= 1
        simulator.run()
        assert len(outcomes) == 3
        assert client.outstanding() == 0

    def test_steps_counted(self, world):
        simulator, client, context, tree, leaf, *_ = world
        outcome = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert outcome.steps == 5  # root + a + b + c + leaf


class TestFailures:
    def test_crashed_server_times_out(self, world):
        simulator, client, context, tree, leaf, server1, _ = world
        FailureInjector(simulator).crash_machine(server1)
        outcome = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert outcome.failed
        assert outcome.reason == "timeout"
        assert outcome.retries >= 1

    def test_partition_times_out(self, world):
        simulator, client, context, tree, leaf, server1, network = world
        # Move server1's traffic behind a partitioned network.
        other_net = simulator.network("island")
        simulator.partition(network, other_net)
        # Simplest partition test: crash is covered above; partition a
        # same-network pair is impossible, so partition the whole
        # network against a new island hosting a fresh placement.
        # Instead: just verify timeouts do not corrupt other lookups.
        FailureInjector(simulator).crash_machine(server1)
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        client.resolve(context, "/a", outcomes.append)
        simulator.run()
        assert len(outcomes) == 2
        by_name = {str(o.name): o for o in outcomes}
        assert by_name["/a/b/c/leaf"].failed
        assert by_name["/a"].ok

    def test_restart_allows_success_after_failure(self, world):
        simulator, client, context, tree, leaf, server1, _ = world
        injector = FailureInjector(simulator)
        injector.crash_machine(server1)
        first = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert first.failed
        injector.restart_machine(server1)
        # The server process died with the machine; spawn a new one.
        fresh = NameLookupServer(client.transport, server1)
        client.router.servers[id(server1)] = fresh
        second = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert second.ok and second.entity is leaf

    def test_no_wrong_entity_under_failure(self, world):
        # The transport never converts failure into incoherence.
        simulator, client, context, tree, leaf, server1, _ = world
        FailureInjector(simulator).crash_machine(server1)
        outcome = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert not outcome.entity.is_defined()


class TestLateReplies:
    """Satellite (c): replies racing their own retries are counted."""

    def test_late_replies_counted_not_silently_dropped(self):
        # timeout (1.5) < round trip (2.0): every attempt's reply
        # arrives after its retry superseded it, and the reply to the
        # final attempt lands after the lookup settled as failed.
        simulator, client, context, _leaf, _s1 = make_world(timeout=1.5)
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        simulator.run()
        outcome = outcomes[0]
        assert outcome.failed and outcome.reason == "timeout"
        assert outcome.retries == 3
        assert client.late_replies == 3  # 2 superseded + 1 settled

    def test_late_reply_metric_split_by_kind(self):
        simulator, client, context, *_ = make_world(timeout=1.5,
                                                    instrument=True)
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        simulator.run()
        metrics = simulator.obs.metrics
        assert metrics.value_of("async_late_replies_total",
                                {"kind": "superseded"}) == 2.0
        assert metrics.value_of("async_late_replies_total",
                                {"kind": "settled"}) == 1.0
        assert metrics.total_of("async_late_replies_total") == \
            client.late_replies

    def test_no_late_replies_when_timing_is_healthy(self):
        simulator, client, context, leaf, _s1 = make_world(timeout=5.0)
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        simulator.run()
        assert outcomes[0].entity is leaf
        assert client.late_replies == 0


class TestBackoffResend:
    def test_slow_reply_wins_the_race_against_its_resend(self):
        # With a 2.0 backoff the re-send is still pending when the
        # slow original reply (t=2.0) arrives; the reply is consumed
        # and the stale resend closure must then be a no-op.
        policy = RetryPolicy(max_attempts=3, base_backoff=2.0,
                             jitter=0.0)
        simulator, client, context, leaf, _s1 = make_world(
            timeout=1.5, retry_policy=policy)
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        simulator.run()
        outcome = outcomes[0]
        assert outcome.ok and outcome.entity is leaf
        assert outcome.retries >= 1  # timeouts fired, lookup still won
        assert client.late_replies == 0
        assert client.outstanding() == 0

    def test_backoff_resend_recovers_from_real_loss(self):
        # Crash the server, let the first attempt time out, revive the
        # server during the backoff window: the delayed resend lands
        # on the respawned server and the lookup completes.
        policy = RetryPolicy(max_attempts=3, base_backoff=4.0,
                             jitter=0.0)
        simulator, client, context, leaf, server1 = make_world(
            timeout=2.0, retry_policy=policy)
        injector = FailureInjector(simulator)
        server = client.router.servers[id(server1)]
        injector.on_restart(lambda _m: server.respawn(),
                            machine=server1)
        injector.schedule_timeline([(1.5, "crash", server1),
                                    (4.0, "restart", server1)])
        outcomes = []
        client.resolve(context, "/a/b/c/leaf", outcomes.append)
        simulator.run()
        assert outcomes[0].ok and outcomes[0].entity is leaf
        assert outcomes[0].retries >= 1


class TestServerRespawn:
    def test_respawn_revives_the_lookup_service(self):
        simulator, client, context, leaf, server1 = make_world()
        injector = FailureInjector(simulator)
        server = client.router.servers[id(server1)]
        injector.crash_machine(server1)
        first = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert first.failed
        injector.on_restart(lambda _m: server.respawn(),
                            machine=server1)
        injector.restart_machine(server1)
        assert server.process.alive
        second = run_lookup(simulator, client, context, "/a/b/c/leaf")
        assert second.ok and second.entity is leaf

    def test_respawn_is_idempotent(self):
        simulator, client, context, _leaf, server1 = make_world()
        injector = FailureInjector(simulator)
        server = client.router.servers[id(server1)]
        assert not server.respawn()  # alive: left alone
        injector.crash_machine(server1)
        assert not server.respawn()  # machine still down
        injector.restart_machine(server1)
        assert server.respawn()
        assert not server.respawn()  # fresh process already installed


class TestServer:
    def test_server_counts_requests(self, world):
        simulator, client, context, tree, leaf, server1, _ = world
        run_lookup(simulator, client, context, "/a/b/c/leaf")
        served = [s for s in client.router.servers.values()
                  if s.machine is server1][0]
        assert served.requests_served >= 1

    def test_server_ignores_foreign_payloads(self, world):
        simulator, client, context, tree, leaf, server1, _ = world
        server = [s for s in client.router.servers.values()
                  if s.machine is server1][0]
        client.endpoint.process.send(server.process, payload="junk")
        simulator.run()
        assert server.requests_served == 0


class TestAbandon:
    def test_an_abandoned_lookup_goes_quiet(self):
        """No completion, no timer left to re-ask, and the reply that
        was already on its way back counts as a settled late reply."""
        simulator, client, context, _leaf, _s1 = make_world(
            instrument=True)
        outcomes = []
        request_id = client.resolve(context, "/a/b/c/leaf", outcomes.append)
        assert client.outstanding() == 1
        assert client.abandon(request_id)
        assert client.outstanding() == 0
        assert not client.abandon(request_id)       # settled: a no-op
        simulator.run()
        assert outcomes == []
        assert simulator.messages_sent == 2         # the ask, its reply
        assert client.late_replies == 1
        metrics = simulator.obs.metrics
        assert metrics.value_of("async_late_replies_total",
                                {"kind": "settled"}) == 1.0
        assert metrics.value_of("async_lookups_total",
                                {"outcome": "abandoned"}) == 1.0
        [span] = simulator.obs.tracer.of_kind("lookup")
        assert span.status == "failed" and span.reason == "abandoned"

    def test_abandoning_during_a_backoff_cancels_the_re_ask(self):
        policy = RetryPolicy(max_attempts=3, base_backoff=4.0, jitter=0.0)
        simulator, client, context, _leaf, server1 = make_world(
            timeout=2.0, retry_policy=policy)
        FailureInjector(simulator).crash_machine(server1)
        outcomes = []
        request_id = client.resolve(context, "/a/b/c/leaf", outcomes.append)
        simulator.run(until=3.0)                    # timed out; backing off
        sent = simulator.messages_sent
        assert client.abandon(request_id)
        simulator.run()
        assert outcomes == [] and simulator.messages_sent == sent

"""The heap stays flat: a delivered message is garbage.

Nothing the simulator keeps after a delivery may hold the message — not
the trace log (plain tuples of atomic values), not a handled process's
mailbox — so a long run leaves the collector no more to scan than a
short one.  Each case warms a deployment up, counts the collector's
tracked objects, runs many more operations, and requires the count to
stay put and no :class:`~repro.sim.messages.Message` to survive.  The
observed case holds the span stores to the same rule: a bounded main
store and recent ring stay at their caps, and a muted trace leaves
nothing behind.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.sharding import ShardManager
from repro.obs import (CoherenceAuditor, FlightRecorder, Instrumentation,
                       SpanSampler)
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.transport.sim import SimTransport
from repro.workloads.zipf import ZipfSampler, build_zipf_namespace

#: Tracked objects a run may add, whatever its length: the lazily
#: created servers, breakers, shards and counters of a small deployment.
GROWTH_BOUND = 300


def tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def live_messages() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Message)


def assert_flat(warm_up, operate) -> None:
    warm_up()
    before = tracked()
    operate()
    assert tracked() - before < GROWTH_BOUND
    assert live_messages() == 0


def test_sharded_replicated_resolutions_with_a_live_split():
    simulator = Simulator(seed=2)
    network = simulator.network("lan")
    pool = [simulator.machine(network, f"s{i}") for i in range(4)]
    client_machine = simulator.machine(network, "client-m")
    tree = NamingTree("root", sigma=simulator.sigma)
    namespace = build_zipf_namespace(tree, "hot", count=2000, distinct=64)
    placement = DirectoryPlacement()
    placement.place(tree.root, client_machine)
    shard_map = placement.place_sharded(namespace.directory, *pool[:2],
                                        replicas=2)
    client = simulator.spawn(client_machine, "client")
    resolver = DistributedResolver(
        simulator, placement, retry_policy=RetryPolicy(max_attempts=3))
    resolver.shard_manager = ShardManager(
        resolver, pool=pool, split_fraction=0.3, check_every=1000,
        min_window=100, max_shards=3)
    context = ProcessContext(tree.root)
    ranks = ZipfSampler(2000, rng=random.Random(4)).sample_many(5200)
    names = ["/hot/" + namespace.names[rank] for rank in ranks]

    def resolve(batch):
        for name in batch:
            resolver.resolve(client, context, name)

    assert_flat(lambda: resolve(names[:200]),
                lambda: resolve(names[200:]))
    assert resolver.shard_splits == 1
    assert shard_map.is_partition()


@pytest.mark.parametrize("recorded", [False, True],
                         ids=["muted", "recorded"])
def test_sampled_spans_and_the_auditor(recorded, monkeypatch):
    monkeypatch.setattr(SpanSampler, "window", 64)
    recorder = FlightRecorder() if recorded else None
    obs = Instrumentation(max_spans=64,
                          sampler=SpanSampler(rate=0.05, seed=1),
                          auditor=CoherenceAuditor(recorder=recorder))
    simulator = Simulator(seed=2, obs=obs)
    network = simulator.network("lan")
    pool = [simulator.machine(network, f"s{i}") for i in range(3)]
    client_machine = simulator.machine(network, "client-m")
    tree = NamingTree("root", sigma=simulator.sigma)
    namespace = build_zipf_namespace(tree, "hot", count=2000, distinct=64)
    placement = DirectoryPlacement()
    placement.place(tree.root, client_machine)
    placement.place_sharded(namespace.directory, *pool, replicas=2)
    client = simulator.spawn(client_machine, "client")
    resolver = DistributedResolver(
        simulator, placement, retry_policy=RetryPolicy(max_attempts=3))
    context = ProcessContext(tree.root)
    ranks = ZipfSampler(2000, rng=random.Random(6)).sample_many(5400)
    names = ["/hot/" + namespace.names[rank] for rank in ranks]

    def resolve(batch):
        for name in batch:
            resolver.resolve(client, context, name)

    assert_flat(lambda: resolve(names[:400]), lambda: resolve(names[400:]))
    assert obs.auditor.observed == 5400
    assert len(obs.tracer) == 64 and obs.tracer.dropped_spans > 0
    assert len(obs.tracer.recent_window(0.0, 1e9)) == 64
    assert obs.tracer.sampled_out > 8 * 5000


def test_lease_lookups_with_rebinds():
    simulator = Simulator(seed=3)
    network = simulator.network("lan")
    servers = [simulator.machine(network, f"srv{i}") for i in range(3)]
    clients = [simulator.spawn(simulator.machine(network, f"c{i}"),
                               f"client{i}") for i in range(3)]
    tree = NamingTree("root", sigma=simulator.sigma)
    svc = tree.mkdir("svc")
    placement = DirectoryPlacement()
    placement.place_replicated(svc, servers[0], servers[1])
    # versions[v][k] is version v of /svc/d<k>; a rebind flips it.
    versions = [[], []]
    for k in range(8):
        for v, path in enumerate((f"svc/d{k}", f"alt/d{k}")):
            directory = tree.mkdir(path)
            for j in range(8):
                directory.state.bind(f"n{j}", ObjectEntity(f"d{k}.n{j}"))
            placement.place_replicated(directory, servers[k % 3],
                                       servers[(k + 1) % 3])
            versions[v].append(directory)
    resolver = DistributedResolver(
        simulator, placement, cache_policy=CachePolicy.LEASE,
        lease_term=50.0, retry_policy=RetryPolicy(max_attempts=3))
    contexts = [ProcessContext(tree.root) for _ in clients]
    rng = random.Random(5)
    live = [0] * 8

    def lookups(count):
        for index in range(count):
            c, k, j = rng.randrange(3), rng.randrange(8), rng.randrange(8)
            if index % 20 == 0:
                live[k] ^= 1
                resolver.rebind(svc, f"d{k}", versions[live[k]][k])
            resolver.resolve(clients[c], contexts[c], f"/svc/d{k}/n{j}")

    assert_flat(lambda: lookups(200), lambda: lookups(2000))
    assert resolver.lease_stats()["grants"] > 0
    assert resolver.invalidation_messages > 0


def test_async_client_lookups_on_the_sim_transport():
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
    client = AsyncNameClient(
        transport, PlacementRouter(placement, servers, client_machine),
        transport.adopt(simulator.spawn(client_machine, "client")))
    context = ProcessContext(tree.root)
    answers = {True: 0, False: 0}

    def answered(outcome) -> None:
        answers[outcome.entity is leaf] += 1

    def lookups(count):
        for _ in range(count):
            client.resolve(context, "/a/b/c/leaf", answered)
            simulator.run()

    assert_flat(lambda: lookups(100), lambda: lookups(1000))
    assert answers == {True: 1100, False: 0}

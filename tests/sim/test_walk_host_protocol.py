"""The walk's host protocol is a checked list.

``walk.HOST_PROTOCOL`` names every attribute ``walk_effects`` and
``retry_effects`` may read from their host.  Both drivers are run here
with a recording proxy in the host's place — every cache policy, parked
and not, with and without a retry policy, through a lost ask, a trail, a
degraded step and a batch — and what the walk read must be inside the
tuple.  Widening the protocol therefore shows up as a diff of that
tuple, not as one more attribute a new driver discovers it needs.

The walk reads no regime beyond ``retry_policy``: a resolver without
a retry policy is the one-candidate, one-attempt case of the replica
loop, faults included, which the tests at the end hold it to.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.resolution import resolve as local_resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice import protocol, resolver, walk
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import ResolutionStyle
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.walk import HOST_PROTOCOL
from repro.obs import Instrumentation
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.transport.sim import SimTransport

#: What the walk read before the cache took its own decisions, before
#: fail-fast became the one-candidate case of the replica loop, and
#: before the retry policy alone bounded the attempts.
REMOVED = {"cache_policy", "cache_ttl", "serve_stale", "prefix_cache_of",
           "lease_table_of", "placement", "writes", "failfast", "primary",
           "attempts"}
RETRY = RetryPolicy(max_attempts=2, base_backoff=0.5, max_backoff=1.0)


class Recorder:
    """Stands in for a host: forwards every read, remembering its name."""

    def __init__(self, host, seen: set):
        self._host, self._seen = host, seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._host, name)


@pytest.fixture
def seen(monkeypatch):
    """Route both drivers' walks through a :class:`Recorder`."""
    names: set = set()

    def recording(effects):
        return lambda host, *args, **kwargs: effects(
            Recorder(host, names), *args, **kwargs)

    for module in (resolver, protocol):
        monkeypatch.setattr(module, "walk_effects",
                            recording(walk.walk_effects))
    monkeypatch.setattr(resolver, "retry_effects",
                        recording(walk.retry_effects))
    return names


class World:
    """``/a/b/leaf`` with ``a`` and ``a/b`` replicated on two servers
    across a partitionable link from the client; the root is the
    client machine's own."""

    def __init__(self):
        sim = self.sim = Simulator(seed=0)
        self.lan, self.srv = sim.network("lan"), sim.network("srv")
        self.home = sim.machine(self.lan, "home")
        self.servers = [sim.machine(self.srv, f"s{i}") for i in (1, 2)]
        tree = NamingTree("root", sigma=sim.sigma, parent_links=True)
        tree.mkfile("a/b/leaf")
        tree.mkfile("a/b/other")
        self.placement = DirectoryPlacement()
        self.placement.place(tree.root, self.home)
        for path in ("a", "a/b"):
            self.placement.place_replicated(tree.directory(path),
                                            *self.servers)
        self.context = ProcessContext(tree.root)
        self.client = sim.spawn(self.home, "client")
        self.injector = FailureInjector(sim)


def run_parked(policy, retry):
    """The synchronous driver through a warm-up, a crashed primary, a
    partition with every copy expired, and a batch after the heal."""
    world = World()
    subject = resolver.DistributedResolver(
        world.sim, world.placement, cache_policy=policy,
        retry_policy=retry, serve_stale=policy is CachePolicy.TTL,
        lease_term=5.0, cache_ttl=5.0)

    def resolve():
        entity, cost = subject.resolve(world.client, world.context,
                                       "/a/b/leaf")
        assert not (cost.failed and entity.is_defined())   # failed ⇒ ⊥E
        return cost

    resolve()                                   # fills the cache
    world.injector.crash_machine(world.servers[0])
    world.sim.run(until=world.sim.clock.now + 20.0)     # copies expire
    cost = resolve()                            # a lost ask, then s2
    assert cost.failed if retry is None else cost.failovers == 1
    world.sim.partition(world.lan, world.srv)
    world.sim.run(until=world.sim.clock.now + 20.0)
    cost = resolve()                            # nobody left to ask
    if retry is not None and policy in (CachePolicy.TTL, CachePolicy.LEASE):
        assert cost.weak and cost.stale_steps   # a degraded step
    else:
        assert cost.failed
    world.sim.heal(world.lan, world.srv)
    subject.resolve_many(world.client, world.context,
                         ["/a/b/leaf", "/a/b/other"])
    return subject


def run_message_driven():
    """The asyncio-shaped driver on the simulator transport: a chained
    lookup, then one whose first replica is dead."""
    world = World()
    transport = SimTransport(world.sim)
    lookupds = {id(machine): protocol.NameLookupServer(
                    transport, machine, placement=world.placement)
                for machine in world.servers}
    client = protocol.AsyncNameClient(
        transport,
        protocol.PlacementRouter(world.placement, lookupds, world.home),
        transport.adopt(world.client), timeout=2.0, retry_policy=RETRY)
    outcomes: list = []
    client.resolve(world.context, "/a/b/leaf", outcomes.append)
    world.sim.run()
    assert outcomes[0].ok and outcomes[0].cost.remote_steps == 2
    assert lookupds[id(world.servers[0])].requests_served == 2  # a trail
    world.injector.crash_machine(world.servers[0])
    client.resolve(world.context, "/a/b/leaf", outcomes.append)
    world.sim.run()
    assert outcomes[1].ok and outcomes[1].cost.failovers == 1
    return client


@pytest.mark.parametrize("policy", list(CachePolicy))
@pytest.mark.parametrize("retry", [None, RETRY], ids=["failfast", "failover"])
def test_the_parked_driver_reads_only_the_protocol(seen, policy, retry):
    run_parked(policy, retry)
    assert seen <= set(HOST_PROTOCOL), seen - set(HOST_PROTOCOL)


def test_every_name_is_read_and_both_drivers_provide_it(seen):
    client = run_message_driven()
    assert seen <= set(HOST_PROTOCOL), seen - set(HOST_PROTOCOL)
    assert all(hasattr(client, name) for name in HOST_PROTOCOL)
    for retry in (None, RETRY):
        subject = run_parked(CachePolicy.LEASE, retry)
    assert all(hasattr(subject, name) for name in HOST_PROTOCOL)
    assert seen == set(HOST_PROTOCOL), set(HOST_PROTOCOL) - seen


def test_the_protocol_is_eleven_documented_names():
    assert len(HOST_PROTOCOL) == len(set(HOST_PROTOCOL)) == 11
    assert not REMOVED & set(HOST_PROTOCOL)
    listed = walk.__doc__.split("The *host* argument", 1)[1]
    for name in HOST_PROTOCOL:
        assert re.search(rf"``{name}(\(|``)", listed), name
    for name in REMOVED:
        assert f"``{name}" not in walk.__doc__, name


#: How one directory is placed on its own three machines.
PLACEMENTS = st.one_of(
    st.just(("single",)),
    st.tuples(st.just("replicated"), st.integers(2, 3)),
    st.tuples(st.just("sharded"), st.integers(1, 3), st.integers(1, 3)))
NAMES = ["/a/b/leaf", "/a/b", "/a/f", "/a/zzz/x", "/a/b/leaf/too-deep",
         "/hot/n0", "/hot/n3", "/hot/n7", "/hot/zzz", "/", "", "a/b/leaf",
         "hot/n5", "zzz"]
COMPARED = ("messages", "steps", "local_steps", "remote_steps", "latency",
            "servers_touched")


def placed_world(kinds, retry):
    """``/a/b/leaf``, ``/a/f`` and ``/hot/n0…n7``; ``a``, ``a/b`` and
    ``hot`` each placed by its *kind* on three machines of its own — a
    retrying walk prefers a replica it already stands at, which the
    one-candidate walk never hears of, so no two sets share a machine."""
    sim = Simulator(seed=0)
    lan = sim.network("lan")
    home = sim.machine(lan, "home")
    tree = NamingTree("root", sigma=sim.sigma, parent_links=True)
    tree.mkfile("a/b/leaf")
    tree.mkfile("a/f")
    for index in range(8):
        tree.mkfile(f"hot/n{index}")
    placement = DirectoryPlacement()
    placement.place(tree.root, home)
    for path, kind in zip(("a", "a/b", "hot"), kinds):
        pool = [sim.machine(lan, f"{path}-{i}") for i in range(3)]
        directory = tree.directory(path)
        if kind[0] == "single":
            placement.place(directory, pool[0])
        elif kind[0] == "replicated":
            placement.place_replicated(directory, *pool[:kind[1]])
        else:
            placement.place_sharded(directory, *pool[:kind[1]],
                                    replicas=kind[2])
    subject = resolver.DistributedResolver(sim, placement,
                                           retry_policy=retry)
    return subject, sim.spawn(home, "client"), ProcessContext(tree.root)


@pytest.mark.parametrize("style", list(ResolutionStyle))
@given(kinds=st.tuples(PLACEMENTS, PLACEMENTS, PLACEMENTS),
       names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_no_policy_is_the_one_candidate_one_attempt_case(style, kinds, names):
    """Fault-free, a resolver without a retry policy and one allowed a
    single attempt walk alike — the same entity as the section-2
    recursion, at the same cost."""
    bare, bare_client, bare_context = placed_world(kinds, None)
    once, once_client, once_context = placed_world(
        kinds, RetryPolicy(max_attempts=1))
    for name_ in names:
        entity, cost = bare.resolve(bare_client, bare_context, name_, style)
        twin, twin_cost = once.resolve(once_client, once_context, name_,
                                       style)
        assert entity is local_resolve(bare_context, name_)
        assert twin is local_resolve(once_context, name_)
        assert entity.label == twin.label
        assert not cost.failed and not twin_cost.failed
        for field in COMPARED:
            assert getattr(cost, field) == getattr(twin_cost, field), field


#: A fault of the directory server across the link, as (begin, end).
FAULTS = {
    "crash": (lambda injector, lan, srv, server: injector.crash_machine(server),
              lambda injector, lan, srv, server:
              injector.restart_machine(server)),
    "partition": (lambda injector, lan, srv, _server:
                  injector.partition(lan, srv),
                  lambda injector, lan, srv, _server: injector.heal(lan, srv)),
    "flaky": (lambda injector, lan, srv, _server:
              injector.flaky_link(lan, srv, 0.5, 1.0),
              lambda injector, lan, srv, _server:
              injector.steady_link(lan, srv)),
}
FAULTED_NAMES = ["/a/b/leaf", "/a/f", "/a/b/other", "/a/b/leaf"]
FAULTED = ("failed", "messages", "failed_hops", "local_steps", "remote_steps",
           "cached_steps", "latency")


def single_world(retry, policy=CachePolicy.NONE, seed=0, obs=None):
    """``/a/b/leaf``, ``/a/b/other`` and ``/a/f``, every directory on one
    machine: ``a`` on the client's LAN, ``a/b`` across a link on a
    network of its own."""
    sim = Simulator(seed=seed, obs=obs)
    lan, srv = sim.network("lan"), sim.network("srv")
    home = sim.machine(lan, "home")
    outer, inner = sim.machine(lan, "a-0"), sim.machine(srv, "ab-0")
    tree = NamingTree("root", sigma=sim.sigma, parent_links=True)
    for path in ("a/b/leaf", "a/b/other", "a/f"):
        tree.mkfile(path)
    placement = DirectoryPlacement()
    placement.place(tree.root, home)
    placement.place(tree.directory("a"), outer)
    placement.place(tree.directory("a/b"), inner)
    subject = resolver.DistributedResolver(
        sim, placement, cache_policy=policy, cache_ttl=5.0,
        retry_policy=retry)
    injector = FailureInjector(sim)
    injector.on_restart(subject.handle_restart)
    return (subject, sim.spawn(home, "client"), ProcessContext(tree.root),
            injector, (lan, srv, inner))


def faulted_rounds(retry, policy, style, fault, seed):
    """Six rounds of single and batched lookups, the directory server
    of ``a/b`` faulted from the second round through the fourth."""
    subject, client, context, injector, where = single_world(
        retry, policy, seed)
    begin, end = FAULTS[fault]
    outcomes = []
    for round_ in range(6):
        if round_ == 1:
            begin(injector, *where)
        if round_ == 4:
            end(injector, *where)
        results = [subject.resolve(client, context, name_, style)
                   for name_ in FAULTED_NAMES]
        results += subject.resolve_many(client, context, FAULTED_NAMES,
                                        style)
        # One failure rule: a lookup that lost a step answers ⊥E.
        assert not [name_ for name_, (entity, cost)
                    in zip(FAULTED_NAMES * 2, results)
                    if cost.failed and entity.is_defined()]
        outcomes += [(entity.label, *(getattr(cost, field)
                                      for field in FAULTED))
                     for entity, cost in results]
        subject._sim.run(until=subject._sim.clock.now + 4.0)
    return outcomes, subject.load


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("style", list(ResolutionStyle))
@pytest.mark.parametrize("policy", [CachePolicy.NONE, CachePolicy.TTL,
                                    CachePolicy.INVALIDATE])
def test_no_policy_is_the_one_attempt_case_under_faults(policy, style, fault):
    """Faulted, over single placements, a resolver without a retry
    policy and one allowed a single attempt still walk alike: a lost
    leg is lost in both, at the same cost, charged to the same
    servers."""
    for seed in (0, 1, 7):
        bare = faulted_rounds(None, policy, style, fault, seed)
        once = faulted_rounds(RetryPolicy(max_attempts=1), policy, style,
                              fault, seed)
        assert any(outcome[1] for outcome in bare[0])    # a fault bit
        assert bare == once, seed


def test_a_dropped_query_is_lost_without_a_retry_policy():
    """A no-policy walk whose query is dropped charges nothing to the
    server it never reached, records no breaker success there,
    memoizes no prefix past the loss and sends no leg from there."""
    obs = Instrumentation()
    subject, client, context, injector, (_lan, _srv, inner) = single_world(
        None, obs=obs)
    subject.resolve(client, context, "/a/b/leaf")   # inner's server runs
    server = subject.server_for(inner)
    load = subject.load_of_machine(inner)
    injector.crash_machine(inner)
    seen = len(obs.tracer.spans)
    (_leaf, first), (_other, second) = subject.resolve_many(
        client, context, ["/a/b/leaf", "/a/b/other"])
    assert first.failed and second.failed
    assert subject.load_of_machine(inner) == load
    # Both losses counted, no success in between to forget them.
    assert subject.breaker_for(server).consecutive_failures == 2
    # The batch memo holds /a, not /a/b: the second name asks again.
    assert second.cached_steps == 2 and second.messages >= 1
    hops = [span for span in obs.tracer.spans[seen:] if span.kind == "hop"]
    assert hops and not [span for span in hops
                         if span.attrs["from"] == server.label]

"""The one write path, through its kernel driver.

``repro.nameservice.writes.write_effects`` is the single definition of
rebind → replicate → invalidate / lease-break; on the simulator
``DistributedResolver`` is its host and kernel driver, keeping the
holder registry, the lease books and the message counters itself.
These tests pin what private copies of it once got wrong: a crashed
owning host is a counted loss (never an exception out of ``rebind``),
and one scripted holders / drops / partition / crash timeline keeps
every write-side book.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.nameservice.cache import CachePolicy
from repro.nameservice.retry import RetryPolicy
from repro.workloads.deployment import build_world

RETRY = RetryPolicy(max_attempts=2, base_backoff=0.5, max_backoff=1.0)
TERM = 1_000.0     # long enough that no lease expires mid-timeline


class World:
    """``/svc/app/cfg`` with ``svc`` and two alternative ``app``
    directories replicated on host+backup, read by two clients on
    networks of their own."""

    def __init__(self, policy: CachePolicy, seed: int = 3):
        world = build_world({
            "networks": ["srv", "lan1", "lan2"],
            "machines": [["host", "srv"], ["backup", "srv"],
                         ["c1", "lan1"], ["c2", "lan2"]],
            "parent_links": True,
            "paths": ["svc/", "svc/app/", "spare/", "svc/app/cfg",
                      "spare/cfg"],
            "place": [[path, "host", "backup"]
                      for path in ("svc", "svc/app", "spare")],
            "clients": [["c1", "p1"], ["c2", "p2"]],
            "resolver": {"cache_policy": policy.value,
                         "retry_policy": asdict(RETRY),
                         "lease_term": TERM},
        }, seed=seed)
        self.sim = world.simulator
        self.srv = world.networks["srv"]
        self.lans = [world.networks["lan1"], world.networks["lan2"]]
        self.host = world.machines["host"]
        self.backup = world.machines["backup"]
        self.machines = [world.machines["c1"], world.machines["c2"]]
        self.svc = world.tree.directory("svc")
        self.apps = [world.tree.directory("svc/app"),
                     world.tree.directory("spare")]
        self.placement = world.placement
        self.injector = world.injector
        self.bound = 0          # index into self.apps of σ(svc)(app)
        self.subject = world.resolver
        self.context = world.context
        self.clients = world.clients

    def read(self, *clients: int) -> None:
        for index in clients:
            self.subject.resolve(self.clients[index], self.context,
                                 "/svc/app/cfg")

    def rebind(self) -> None:
        self.bound = 1 - self.bound
        self.subject.rebind(self.svc, "app", self.apps[self.bound])

    def write_side(self) -> dict:
        """The books the write path keeps, read through the
        resolver's public surface."""
        subject = self.subject
        state = {
            "invalidation_messages": subject.invalidation_messages,
            "invalidation_losses": subject.invalidation_losses,
            "backup_stale": self.placement.is_stale(self.svc,
                                                    self.backup),
        }
        if subject.leases is not None:
            stats = subject.leases.stats()
            state.update(
                acks=stats["acks"], breaks=stats["breaks"],
                held=len(subject.leases.holders_of(
                    ("d", self.svc.uid, "app"), self.sim.clock.now)),
                revocations=sum(
                    subject.lease_table_of(machine).revocations
                    for machine in self.machines))
        return state


def holders_then_host_crash(policy):
    world = World(policy)
    world.read(0, 1)                       # both clients hold copies
    world.injector.crash_machine(world.host)
    world.rebind()                         # must not raise
    return world


class TestOwningHostDown:
    """``rebind`` with the owning host crashed and remote holders
    registered: nothing can be sent, nothing may raise."""

    def test_invalidate_counts_losses_and_keeps_holders(self):
        world = holders_then_host_crash(CachePolicy.INVALIDATE)
        state = world.write_side()
        assert state["invalidation_messages"] == 0
        assert state["invalidation_losses"] == 2
        assert state["backup_stale"]       # dead primary replicates nothing
        # The holders stayed registered: once the host is back, the
        # next rebind of the same binding reaches both.
        world.injector.restart_machine(world.host)
        world.rebind()
        state = world.write_side()
        assert state["invalidation_messages"] == 2
        assert state["invalidation_losses"] == 2

    def test_lease_is_broken_server_side(self):
        world = holders_then_host_crash(CachePolicy.LEASE)
        state = world.write_side()
        assert state["invalidation_messages"] == 0
        assert state["invalidation_losses"] == 2
        assert state["breaks"] == 2 and state["acks"] == 0
        assert state["held"] == 0
        assert state["revocations"] == 0   # the copies expire by term

    def test_dead_primary_spawns_no_replica_server(self):
        world = World(CachePolicy.NONE)
        world.injector.crash_machine(world.backup)
        world.injector.restart_machine(world.backup)  # no respawn hook
        world.injector.crash_machine(world.host)
        spawns = len(world.sim.trace.of_kind("spawn"))
        sent = world.sim.messages_sent
        world.rebind()
        # The replicate leg is refused at its dead sender before the
        # backup's (dead) server is looked up, so none is respawned.
        assert len(world.sim.trace.of_kind("spawn")) == spawns
        assert world.sim.messages_sent == sent
        assert world.write_side()["backup_stale"]


def scripted_timeline(world: World) -> dict:
    """Holders, a partition, a crashed host and its restart — the
    write-side state after the last rebind."""
    rebind = world.rebind
    world.read(0, 1)
    rebind()                               # both holders reached
    world.read(0, 1)
    world.sim.partition(world.lans[1], world.srv)
    rebind()                               # c2 unreachable
    world.sim.heal(world.lans[1], world.srv)
    world.read(0, 1)
    rebind()                               # INVALIDATE retries c2
    world.read(0, 1)
    world.injector.crash_machine(world.backup)
    rebind()                               # replica misses the write
    world.read(0, 1)
    world.injector.crash_machine(world.host)
    rebind()                               # nobody left to speak
    world.injector.restart_machine(world.host)
    rebind()
    world.read(0, 1)
    rebind()
    return dict(world.write_side(), replication_messages=(
        world.subject.replication_messages))


class TestWritePathContract:
    @pytest.mark.parametrize("policy", [CachePolicy.INVALIDATE,
                                        CachePolicy.LEASE])
    def test_scripted_timeline_keeps_its_books(self, policy):
        final = scripted_timeline(World(policy))
        # The timeline did exercise every branch it scripts.
        assert final["invalidation_messages"] > 0
        assert final["invalidation_losses"] >= 2
        assert final["replication_messages"] > 0
        assert final["backup_stale"]
        if policy is CachePolicy.LEASE:
            assert final["acks"] > 0 and final["breaks"] >= 2

    @pytest.mark.parametrize("policy", [CachePolicy.NONE,
                                        CachePolicy.TTL])
    def test_uncoherent_policies_still_replicate(self, policy):
        world = World(policy)
        world.read(0, 1)
        world.rebind()
        world.injector.crash_machine(world.backup)
        world.rebind()
        state = world.write_side()
        # One delivered, one sent at the crashed replica and lost.
        assert world.subject.replication_messages == 2
        assert state["invalidation_messages"] == 0
        assert state["backup_stale"]


#: The resolver's per-op message counters (``DistributedResolver.
#: _LEG_OPS`` names one per effect op).
COUNTERS = ("replication_messages", "invalidation_messages",
            "migration_messages", "anti_entropy_messages")


def rebind_none_with_a_replica():
    world = World(CachePolicy.NONE)
    return world.subject, world.sim, world.rebind


def rebind_invalidate_with_two_holders():
    world = World(CachePolicy.INVALIDATE)
    world.read(0, 1)
    return world.subject, world.sim, world.rebind


def rebind_lease_with_a_held_lease():
    world = World(CachePolicy.LEASE)
    world.read(0)
    return world.subject, world.sim, world.rebind


def committed_split():
    world = build_world({
        "networks": ["srv"],
        "machines": [["s0", "srv"], ["s1", "srv"], ["client-m", "srv"]],
        "zipf": {"path": "hot", "count": 8, "distinct": 8},
        "place": [["/", "client-m"]],
        "shard": [["hot", ["s0"], 1]],
        "clients": [["client-m", "client"]]})
    directory = world.namespace.directory
    (shard,) = world.placement.shard_map_of(directory).shards

    def split():
        assert world.resolver.split_shard(directory, shard,
                                          world.machines["s1"])
    return world.resolver, world.simulator, split


def restart_syncs_a_stale_replica():
    world = World(CachePolicy.NONE)
    world.injector.crash_machine(world.backup)
    world.rebind()                         # the backup misses it
    world.injector.restart_machine(world.backup)
    assert world.placement.is_stale(world.svc, world.backup)

    def restart():
        assert world.subject.handle_restart(world.backup) == 1
    return world.subject, world.sim, restart


#: operation → the counter deltas it must leave, every other one 0.
ATTRIBUTION = [
    (rebind_none_with_a_replica, {"replication_messages": 1}),
    (rebind_invalidate_with_two_holders,
     {"replication_messages": 1, "invalidation_messages": 2}),
    (rebind_lease_with_a_held_lease,         # break + ack
     {"replication_messages": 1, "invalidation_messages": 2}),
    (committed_split, {"migration_messages": 1}),
    (restart_syncs_a_stale_replica, {"anti_entropy_messages": 1}),
]


class TestCounterAttribution:
    """Each operation's messages land in the counter(s) its ops name
    and in no other: the conservation invariant checks only the sum,
    so a message counted under the wrong op would pass it."""

    @pytest.mark.parametrize("operation, expected", ATTRIBUTION,
                             ids=[op.__name__ for op, _ in ATTRIBUTION])
    def test_messages_land_in_the_named_counters(self, operation,
                                                 expected):
        resolver, simulator, run = operation()
        before = {name: getattr(resolver, name) for name in COUNTERS}
        sent_before = simulator.messages_sent
        run()
        moved = {name: getattr(resolver, name) - before[name]
                 for name in COUNTERS}
        assert moved == {name: expected.get(name, 0) for name in COUNTERS}
        assert simulator.messages_sent - sent_before == sum(moved.values())

"""The one write path, through its simulator caller.

``repro.nameservice.writes.WritePath`` is the single definition of
rebind → replicate → invalidate / lease-break, driven on the simulator
by ``DistributedResolver``.  These tests pin what private copies of it
once got wrong: a crashed owning host is a counted loss (never an
exception out of ``rebind``), and one scripted holders / drops /
partition / crash timeline keeps every write-side book.
"""

from __future__ import annotations

import pytest

from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator

RETRY = RetryPolicy(max_attempts=2, base_backoff=0.5, max_backoff=1.0)
TERM = 1_000.0     # long enough that no lease expires mid-timeline


class World:
    """``/svc/app/cfg`` with ``svc`` and two alternative ``app``
    directories replicated on host+backup, read by two clients on
    networks of their own."""

    def __init__(self, policy: CachePolicy, seed: int = 3):
        sim = self.sim = Simulator(seed=seed)
        self.srv = sim.network("srv")
        self.lans = [sim.network("lan1"), sim.network("lan2")]
        self.host = sim.machine(self.srv, "host")
        self.backup = sim.machine(self.srv, "backup")
        self.machines = [sim.machine(lan, f"c{i + 1}")
                         for i, lan in enumerate(self.lans)]
        tree = NamingTree("root", sigma=sim.sigma, parent_links=True)
        self.svc = tree.mkdir("svc")
        self.apps = [tree.mkdir("svc/app"), tree.mkdir("spare")]
        tree.mkfile("svc/app/cfg")
        tree.mkfile("spare/cfg")
        self.placement = DirectoryPlacement()
        for node in (self.svc, *self.apps):
            self.placement.place_replicated(node, self.host, self.backup)
        self.injector = FailureInjector(sim)
        self.bound = 0          # index into self.apps of σ(svc)(app)
        self.subject = DistributedResolver(
            sim, self.placement, cache_policy=policy,
            retry_policy=RETRY, lease_term=TERM)
        self.context = ProcessContext(tree.root)
        self.clients = [sim.spawn(machine, f"p{i + 1}")
                        for i, machine in enumerate(self.machines)]

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
                    subject.writes.lease_table_of(machine).revocations
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
        world.subject.writes.replication_messages))


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
        assert world.subject.writes.replication_messages == 2
        assert state["invalidation_messages"] == 0
        assert state["backup_stale"]

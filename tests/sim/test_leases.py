"""Tests for the lease subsystem: grants, callbacks, grace mode and
the bounded-staleness guarantee."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.leases import (
    LeaseManager,
    LeaseState,
    LeaseTable,
)
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.sim.kernel import Simulator

DEP = ("d", 1, "svc")
DEP2 = ("d", 2, "app")


class TestLeaseTable:
    def test_grant_then_fresh_until_expiry(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=10.0, epoch=0)
        assert table.fresh(DEP, now=9.9)
        assert not table.fresh(DEP, now=10.0)
        assert table.stats()["grants"] == 1

    def test_regrant_while_live_is_a_renewal(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=10.0, epoch=0)
        table.grant(DEP, now=5.0, term=10.0, epoch=0)
        assert table.fresh(DEP, now=14.0)
        stats = table.stats()
        assert stats["grants"] == 1 and stats["renewals"] == 1

    def test_expiry_is_counted_once_per_grant(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=5.0, epoch=0)
        for _ in range(3):
            assert not table.fresh(DEP, now=7.0)
        assert table.stats()["expirations"] == 1
        # A fresh grant re-arms the counter.
        table.grant(DEP, now=8.0, term=5.0, epoch=0)
        assert not table.fresh(DEP, now=20.0)
        assert table.stats()["expirations"] == 2

    def test_covers_all_counts_every_expired_dep(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=5.0, epoch=0)
        table.grant(DEP2, now=0.0, term=5.0, epoch=0)
        # `all` must not short-circuit: both expiries are observed.
        assert not table.covers_all((DEP, DEP2), now=6.0)
        assert table.stats()["expirations"] == 2

    def test_revoked_grant_never_answers_again(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=10.0, epoch=0)
        assert table.revoke(DEP, now=1.0)
        assert not table.fresh(DEP, now=2.0)
        assert table.stats()["held"] == 0
        assert not table.revoke(DEP, now=3.0)   # idempotent, unheld
        assert table.stats()["revocations"] == 1

    def test_fresh_stays_strict_in_grace(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=5.0, epoch=0)
        table.enter_grace(now=6.0)
        # Grace never promotes an expired grant back to fresh; grace
        # answers go through the degraded path and are tagged weak.
        assert not table.fresh(DEP, now=6.0)
        assert table.stats()["held"] == 1
        table.served_in_grace(now=6.0)
        assert table.stats()["grace_hits"] == 1

    def test_exit_grace_purges_expired_and_stale_epoch_grants(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=5.0, epoch=0)      # will expire
        table.grant(DEP2, now=0.0, term=100.0, epoch=0)   # stale epoch
        live = ("d", 3, "cfg")
        table.grant(live, now=0.0, term=100.0, epoch=1)
        table.enter_grace(now=6.0)
        purged = table.exit_grace(now=6.0, epoch=1)
        assert purged == 2
        assert not table.in_grace
        assert table.stats()["held"] == 1
        assert table.fresh(live, now=6.0)
        assert table.stats()["revalidations"] == 2

    def test_exit_grace_without_grace_is_a_noop(self):
        table = LeaseTable("c0")
        table.grant(DEP, now=0.0, term=1.0, epoch=0)
        assert table.exit_grace(now=5.0, epoch=0) == 0
        assert table.stats()["held"] == 1


class TestLeaseManager:
    def test_grant_and_renew(self):
        manager = LeaseManager(term=10.0)
        lease = manager.grant(1, DEP, now=0.0, epoch=0,
                              machine_label="c0")
        again = manager.grant(1, DEP, now=5.0, epoch=0,
                              machine_label="c0")
        assert again is lease
        assert lease.expires_at == 15.0
        assert lease.renewals == 1
        assert manager.grants == 1 and manager.renewals == 1

    def test_holders_prune_expired_leases(self):
        manager = LeaseManager(term=10.0)
        lease = manager.grant(1, DEP, now=0.0, epoch=0)
        manager.grant(2, DEP, now=8.0, epoch=0)
        holders = manager.holders_of(DEP, now=12.0)
        assert [h.machine_id for h in holders] == [2]
        assert lease.state is LeaseState.EXPIRED
        assert manager.expirations == 1
        assert manager.stats()["held"] == 1

    def test_ack_releases_and_break_escalates(self):
        manager = LeaseManager(term=10.0)
        acked = manager.grant(1, DEP, now=0.0, epoch=0)
        broken = manager.grant(2, DEP, now=0.0, epoch=0)
        manager.record_ack(1, DEP, now=1.0)
        assert acked.state is LeaseState.RELEASED
        manager.break_lease(broken, now=2.0)
        assert broken.state is LeaseState.BROKEN
        assert manager.holders_of(DEP, now=3.0) == []
        assert manager.acks == 1 and manager.breaks == 1

    def test_term_must_be_positive(self):
        with pytest.raises(SimulationError):
            LeaseManager(term=0.0)

    def test_fanout_order_is_insertion_order(self):
        manager = LeaseManager(term=10.0)
        for machine_id in (7, 3, 5):
            manager.grant(machine_id, DEP, now=0.0, epoch=0)
        holders = manager.holders_of(DEP, now=1.0)
        assert [h.machine_id for h in holders] == [7, 3, 5]


def _resolver_world(seed=0, term=12.0):
    """A replicated two-level namespace under the LEASE policy, with
    a partitionable client — the resolver-level lease stack."""
    simulator = Simulator(seed=seed)
    lan = simulator.network("lan")
    srv = simulator.network("srv")
    client_machine = simulator.machine(lan, "client-m")
    primary = simulator.machine(srv, "m1")
    secondary = simulator.machine(srv, "m2")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("svc")
    old_dir = tree.mkdir("svc/app")
    old_leaf = tree.mkfile("svc/app/cfg")
    new_dir = tree.mkdir("spare")
    new_leaf = tree.mkfile("spare/cfg")
    placement = DirectoryPlacement()
    placement.place(tree.root, client_machine)
    svc = tree.directory("svc")
    for node in (svc, old_dir, new_dir):
        placement.place_replicated(node, primary, secondary)
    client = simulator.spawn(client_machine, "client")
    context = ProcessContext(tree.root)
    resolver = DistributedResolver(
        simulator, placement, cache_policy=CachePolicy.LEASE,
        cache_ttl=10_000.0,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.5,
                                 max_backoff=1.0),
        breaker_threshold=5, breaker_cooldown=5.0, lease_term=term)
    return {"simulator": simulator, "lan": lan, "srv": srv,
            "client_machine": client_machine, "client": client,
            "primary": primary,
            "context": context, "resolver": resolver, "svc": svc,
            "new_dir": new_dir, "old_leaf": old_leaf,
            "new_leaf": new_leaf}


def _probe(world):
    entity, cost = world["resolver"].resolve(
        world["client"], world["context"], "/svc/app/cfg")
    return entity, cost


class TestResolverLease:
    def test_local_holder_is_released_like_an_acked_one(self):
        """A holder on the owning host is called back without a
        message; the server must forget its lease as a delivered ack
        makes it, or every later rebind calls it back again."""
        world = _resolver_world()
        simulator, resolver = world["simulator"], world["resolver"]
        local = simulator.spawn(world["primary"], "local")
        resolver.resolve(local, world["context"], "/svc/app/cfg")
        dep = ("d", world["svc"].uid, "app")
        holders = resolver.leases.holders_of(dep, simulator.clock.now)
        assert [h.machine_id for h in holders] == [id(world["primary"])]
        held = resolver.leases.stats()["held"]
        resolver.rebind(world["svc"], "app", world["new_dir"])
        table = resolver.lease_table_of(world["primary"])
        assert table.revocations == 1
        assert resolver.leases.holders_of(dep, simulator.clock.now) == []
        stats = resolver.leases.stats()
        assert (stats["held"], stats["acks"]) == (held - 1, 1)
        assert resolver.invalidation_messages == 0

    def test_connected_rebind_reaches_the_holder(self):
        world = _resolver_world()
        entity, cost = _probe(world)
        assert entity is world["old_leaf"] and not cost.weak
        world["resolver"].rebind(world["svc"], "app", world["new_dir"])
        entity, cost = _probe(world)
        assert entity is world["new_leaf"] and not cost.weak
        stats = world["resolver"].lease_stats()
        assert stats["revocations"] >= 1
        assert stats["server_acks"] >= 1
        assert world["resolver"].invalidation_losses == 0

    def test_lost_callback_staleness_bounded_by_term(self):
        world = _resolver_world(term=12.0)
        simulator = world["simulator"]
        _probe(world)                               # warm + lease
        simulator.run(until=4.0)
        simulator.partition(world["lan"], world["srv"])
        rebound_at = simulator.clock.now
        world["resolver"].rebind(world["svc"], "app", world["new_dir"])
        assert world["resolver"].invalidation_losses == 1
        assert world["resolver"].lease_stats()["server_breaks"] == 1
        simulator.heal(world["lan"], world["srv"])
        # While the (already broken, but undelivered) lease is live
        # the stale binding is still claimed coherent — the window the
        # lease term bounds.
        entity, cost = _probe(world)
        assert entity is world["old_leaf"] and not cost.weak
        # Past rebind + term + a delivery delay the claim must be gone.
        deadline = rebound_at + 12.0 + 6.0
        simulator.run(until=deadline)
        entity, cost = _probe(world)
        assert entity is world["new_leaf"] and not cost.weak

    def test_grace_answers_are_weak_and_never_memoized_fresh(self):
        world = _resolver_world(term=12.0)
        simulator = world["simulator"]
        _probe(world)
        simulator.run(until=4.0)
        simulator.partition(world["lan"], world["srv"])
        world["resolver"].rebind(world["svc"], "app", world["new_dir"])
        # Outlive the lease term inside the partition: grace mode.
        simulator.run(until=30.0)
        for _ in range(2):
            entity, cost = _probe(world)
            assert entity is world["old_leaf"]
            assert cost.weak and cost.stale_steps > 0
        table = world["resolver"].lease_table_of(
            world["client_machine"])
        assert table.in_grace
        assert table.stats()["grace_hits"] > 0
        # Heal: the next walk revalidates and answers coherently — the
        # grace answers were never promoted to fresh cache state.
        simulator.heal(world["lan"], world["srv"])
        simulator.run(until=60.0)
        entity, cost = _probe(world)
        assert entity is world["new_leaf"] and not cost.weak
        assert not table.in_grace
        assert table.stats()["revalidations"] > 0

    def test_runs_are_deterministic_per_seed(self):
        def run_once():
            world = _resolver_world(seed=7)
            simulator = world["simulator"]
            outcomes = []
            for start in (2.0, 6.0):
                simulator.run(until=start)
                entity, cost = _probe(world)
                outcomes.append((entity.label, cost.weak, cost.messages))
            simulator.partition(world["lan"], world["srv"])
            world["resolver"].rebind(world["svc"], "app",
                                     world["new_dir"])
            for start in (12.0, 30.0, 40.0):
                simulator.run(until=start)
                entity, cost = _probe(world)
                outcomes.append((entity.label, cost.weak, cost.messages))
            return outcomes, world["resolver"].lease_stats()

        assert run_once() == run_once()

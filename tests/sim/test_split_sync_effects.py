"""A shard split and a restart's anti-entropy, one table each.

``repro.nameservice.writes.migrate_effects`` and ``sync_effects`` are
sans-IO: they touch a real :class:`DirectoryPlacement` over real
:class:`Machine` objects and yield ``Leg`` effects for a driver to
perform.  Here no kernel runs: each leg is answered from a script, and
every row pins the legs asked for, the result returned and the state
the placement is left in.  ``DistributedResolver.split_shard`` and
``handle_restart`` are the kernel drivers; ``tests/sim/
test_sharding.py`` and ``tests/sim/test_failover.py`` run them.
"""

from __future__ import annotations

import pytest

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.writes import Leg, migrate_effects, sync_effects
from repro.sim.network import Internetwork, Machine, Network

#: Bindings of the hot directory; splitting its one shard at the
#: midpoint moves this many of them.
NAMES = 40
MOVED = 18


class ScriptedHost:
    """A migration / sync host: a placement over four machines, and
    the migration batch size.  Nothing else is read."""

    def __init__(self, migration_batch=100_000):
        network = Network(Internetwork(), label="srv")
        self.machines = [Machine(network, label=f"s{i}") for i in range(4)]
        self.placement = DirectoryPlacement()
        self.migration_batch = migration_batch


def run(steps, answer):
    """Drive *steps*, answering the k-th leg (1-based) with
    ``answer(k, leg)``.  Returns the result and the legs asked for."""
    legs = []
    outcome = None
    try:
        while True:
            leg = steps.send(outcome)
            legs.append(leg)
            outcome = answer(len(legs), leg)
    except StopIteration as done:
        return done.value, legs


def hot_directory(names):
    return context_object("hot", {f"n{i}": ObjectEntity(f"e{i}")
                                  for i in range(names)})


#: (bindings, batch size, first lost batch or None) → (legs, committed)
MIGRATE_TABLE = [
    # every batch lands: ⌈18 / 4⌉ legs, then one commit
    (NAMES, 4, None, (5, True)),
    # batch k of n lost: k legs, and the split aborts there
    (NAMES, 4, 1, (1, False)),
    (NAMES, 4, 3, (3, False)),
    (NAMES, 4, 5, (5, False)),
    # an empty range still hands off ownership: one leg
    (0, 4, None, (1, True)),
    (0, 4, 1, (1, False)),
    # the batch-size boundary
    (NAMES, MOVED, None, (1, True)),
    (NAMES, MOVED - 1, None, (2, True)),
    (NAMES, MOVED // 2, None, (2, True)),
    (NAMES, MOVED // 2 - 1, None, (3, True)),
]


class TestMigrateEffects:
    @pytest.mark.parametrize("names, batch, lost_at, expected",
                             MIGRATE_TABLE)
    def test_row(self, names, batch, lost_at, expected):
        host = ScriptedHost(migration_batch=batch)
        s0, s1 = host.machines[:2]
        directory = hot_directory(names)
        shard_map = host.placement.place_sharded(directory, s0)
        (shard,) = shard_map.shards
        plan = shard_map.plan_split(shard, s1)
        assert len(plan.moved) == (MOVED if names else 0)
        epoch = host.placement.epoch
        before = list(shard.names)

        committed, legs = run(migrate_effects(host, plan),
                              lambda k, _leg: k != lost_at)

        assert (len(legs), committed) == expected
        assert set(legs) == {Leg("migrate", s0, s1)}
        if committed:
            assert host.placement.epoch == epoch + 1
            assert [s.machine for s in shard_map.shards] == [s0, s1]
            assert sorted(shard_map.shards[1].names) == sorted(plan.moved)
        else:
            # The old map and the old epoch, intact.
            assert host.placement.epoch == epoch
            assert list(shard_map.shards) == [shard]
            assert shard.names == before
        assert shard_map.is_partition()


def replicated(host):
    """A directory on s0 (primary) + s1, s1's copy stale."""
    s0, s1 = host.machines[:2]
    directory = hot_directory(4)
    host.placement.place_replicated(directory, s0, s1)
    host.placement.mark_stale(directory, s1)
    return directory, s1, Leg("sync", s0, s1)


def self_source(host):
    """The stale copy is on the primary: the source is the machine."""
    s0, s1 = host.machines[:2]
    directory = hot_directory(4)
    host.placement.place_replicated(directory, s1, s0)
    host.placement.mark_stale(directory, s1)
    return directory, s1, None


def sharded(host):
    """One shard over s0–s3 (ring order): s0 stale, s1 down, s2
    stale; the first live, non-stale fellow of s0 is s3."""
    s0, s1, s2, s3 = host.machines
    directory = hot_directory(4)
    host.placement.place_sharded(directory, s0, s1, s2, s3, replicas=4)
    host.placement.mark_stale(directory, s0)
    host.placement.mark_stale(directory, s2)
    s1.alive = False
    return directory, s0, Leg("sync", s3, s0)


def no_source(host):
    """A degree-2 shard whose only fellow is down: still placed, no
    source."""
    s0, s1 = host.machines[:2]
    directory = hot_directory(4)
    host.placement.place_sharded(directory, s0, s1, replicas=2)
    host.placement.mark_stale(directory, s0)
    s1.alive = False
    return directory, s0, None


#: (world, leg outcome) → (leg asked for or None, marks cleared)
SYNC_TABLE = [
    (replicated, True, 1),
    (self_source, True, 1),
    (sharded, True, 1),
    (no_source, True, 0),
    (replicated, False, 0),   # a lost leg stays stale
    (sharded, False, 0),
]


class TestSyncEffects:
    @pytest.mark.parametrize("world, delivered, cleared", SYNC_TABLE)
    def test_row(self, world, delivered, cleared):
        host = ScriptedHost()
        directory, machine, leg = world(host)
        stale = host.placement.stale_uids_of(machine)
        assert stale == [directory.uid]

        result, legs = run(sync_effects(host, machine, stale),
                           lambda _k, _leg: delivered)

        assert legs == ([] if leg is None else [leg])
        assert result == cleared
        assert host.placement.stale_uids_of(machine) == \
            ([] if cleared else [directory.uid])

    def test_each_stale_uid_is_handled_in_order(self):
        """Three marks on one machine: one synced, one kept by a lost
        leg, one cleared for free — one leg per remote source."""
        host = ScriptedHost()
        s0, s1, s2 = host.machines[:3]
        dirs = [hot_directory(2) for _ in range(3)]
        host.placement.place_replicated(dirs[0], s0, s2)
        host.placement.place_replicated(dirs[1], s1, s2)
        host.placement.place_replicated(dirs[2], s2, s0)
        for directory in dirs:
            host.placement.mark_stale(directory, s2)
        stale = host.placement.stale_uids_of(s2)

        result, legs = run(sync_effects(host, s2, stale),
                           lambda _k, leg: leg.origin is s0)

        assert legs == [Leg("sync", s0, s2), Leg("sync", s1, s2)]
        assert result == 2
        assert host.placement.stale_uids_of(s2) == [dirs[1].uid]

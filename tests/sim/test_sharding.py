"""Sharded directory placement: routing, splits, migration, and the
load/epoch bugfixes the million-name workload exposed.

Pins, in one place:

* the :class:`~repro.nameservice.sharding.ShardMap` invariants —
  contiguous ranges, exactly-one-owner (property-tested over random
  split sequences), member conservation across splits;
* uid-keyed load accounting — label-summed ``resolver.load`` is
  reporting-only; decisions key on :meth:`load_by_uid` /
  :meth:`load_of_machine`, which label collisions cannot corrupt;
* epoch discipline — ``place_subtree`` bumps the epoch exactly once
  and re-placing never resurrects stale marks;
* the mid-batch epoch bump — a shard split landing inside
  ``resolve_many`` makes later batch items re-route instead of using
  the pre-split map (the batch route memo is epoch-guarded);
* commit-last migration — an unreachable target aborts the split
  with the old map and the old epoch intact;
* replicated shards — ``place_sharded(..., replicas=N)`` gives every
  shard a replica set, so resolution fails over past a crashed shard
  primary, rebinds fan out to shard secondaries with missed writes
  marked stale, and anti-entropy on restart resyncs from a fellow
  shard replica;
* the crash-during-migration fault-point sweep — killing source or
  target at every batch boundary either aborts cleanly or commits,
  never leaving a binding with other than exactly one owner range.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemeError
from repro.model.entities import UNDEFINED_ENTITY
from repro.model.resolution import resolve as local_resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice import sharding
from repro.nameservice.cache import CachePolicy, binding_dep
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.sharding import (
    HASH_SPACE,
    ShardManager,
    binding_hash,
)
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.writes import commit_binding
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.workloads.zipf import ZipfSampler, build_zipf_namespace


def make_deployment(names=2000, pool_size=4, seed=0, sharded=True,
                    shards=1, manager=False, check_every=100,
                    min_window=50, replicas=1, migration_batch=None,
                    retry=False, cache_policy=CachePolicy.NONE):
    """A hot directory of *names* bindings under ``/hot``, either on a
    single machine or sharded over the first *shards* pool machines
    (each shard replicated *replicas*-deep), optionally with the live
    split policy wired in."""
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    pool = [simulator.machine(network, f"s{i}") for i in range(pool_size)]
    client_m = simulator.machine(network, "client-m")
    tree = NamingTree("root", sigma=simulator.sigma)
    namespace = build_zipf_namespace(tree, "hot", count=names,
                                     distinct=64)
    placement = DirectoryPlacement()
    placement.place(tree.root, client_m)
    if sharded:
        shard_map = placement.place_sharded(namespace.directory,
                                            *pool[:shards],
                                            replicas=replicas)
    else:
        placement.place(namespace.directory, pool[0])
        shard_map = None
    client = simulator.spawn(client_m, "client")
    resolver = DistributedResolver(
        simulator, placement, cache_policy=cache_policy,
        retry_policy=(RetryPolicy(max_attempts=2, base_backoff=0.1,
                                  jitter=0.0) if retry else None))
    if migration_batch is not None:
        resolver.migration_batch = migration_batch
    if manager:
        resolver.shard_manager = ShardManager(
            resolver, pool=pool, split_fraction=0.3,
            check_every=check_every, min_window=min_window)
    return {
        "simulator": simulator, "resolver": resolver,
        "placement": placement, "client": client,
        "context": ProcessContext(tree.root), "tree": tree,
        "namespace": namespace, "pool": pool, "client_m": client_m,
        "shard_map": shard_map,
    }


def assert_index_in_step(shard_map):
    """The bisect bounds match the shards, and each shard's ``names``
    and ``hashes`` stay parallel with every hash inside its range."""
    assert shard_map._los == [shard.lo for shard in shard_map.shards]
    for shard in shard_map.shards:
        assert len(shard.names) == len(shard.hashes)
        for name_, value in zip(shard.names, shard.hashes):
            assert value == binding_hash(name_)
            assert shard.lo <= value < shard.hi


class TestShardMap:
    """Structural invariants of the hash-range partition."""

    def test_initial_ranges_tile_the_space(self):
        world = make_deployment(names=500, shards=3)
        shard_map = world["shard_map"]
        assert len(shard_map) == 3
        assert shard_map.is_partition()
        assert shard_map.shards[0].lo == 0
        assert shard_map.shards[-1].hi == HASH_SPACE

    def test_every_binding_is_a_member_of_its_owner(self):
        world = make_deployment(names=500, shards=3)
        shard_map = world["shard_map"]
        names = world["namespace"].names
        assert sum(len(s.names) for s in shard_map.shards) == 500
        for name_ in names[:50]:
            owner = shard_map.owner_of(name_)
            assert name_ in owner.names
            assert shard_map.owners_of(name_) == [owner]

    def test_split_conserves_members_and_partition(self):
        world = make_deployment(names=800, shards=1)
        shard_map = world["shard_map"]
        [shard] = shard_map.shards
        before = set(shard.names)
        plan = shard_map.plan_split(shard, world["pool"][1])
        new = shard_map.apply_split(plan)
        assert shard_map.is_partition()
        assert shard.hi == new.lo == plan.split_at
        assert all(binding_hash(n) >= plan.split_at for n in new.names)
        assert all(binding_hash(n) < plan.split_at for n in shard.names)
        assert set(shard.names) | set(new.names) == before
        assert not set(shard.names) & set(new.names)

    def test_plan_split_rejects_foreign_shard_and_bad_point(self):
        world = make_deployment(names=100, shards=2)
        other = make_deployment(names=100, shards=1)
        shard_map = world["shard_map"]
        shard = shard_map.shards[0]
        with pytest.raises(SchemeError):
            shard_map.plan_split(other["shard_map"].shards[0],
                                 world["pool"][1])
        with pytest.raises(SchemeError):
            shard_map.plan_split(shard, world["pool"][1],
                                 at=shard.hi + 1)
        with pytest.raises(SchemeError):
            shard_map.plan_split(shard, world["pool"][1], at=shard.lo)

    def test_rebind_tracks_new_members(self):
        world = make_deployment(names=100, shards=2)
        world["resolver"].rebind(world["namespace"].directory, "fresh",
                                 world["namespace"].shared_leaf)
        shard_map = world["shard_map"]
        assert "fresh" in shard_map.owner_of("fresh").names

    def test_unbind_forgets_the_member(self):
        world = make_deployment(names=100, shards=2)
        directory = world["namespace"].directory
        shard_map = world["shard_map"]
        world["resolver"].rebind(directory, "fresh",
                                 world["namespace"].shared_leaf)
        world["resolver"].rebind(directory, "fresh", UNDEFINED_ENTITY)
        listed = [name_ for shard in shard_map.shards
                  for name_ in shard.names]
        assert len(listed) == 100
        assert sorted(listed) == sorted(directory.state.names())
        assert_index_in_step(shard_map)

    def test_split_neither_hashes_nor_sorts(self, monkeypatch):
        world = make_deployment(names=800, shards=1)
        shard_map = world["shard_map"]
        calls = []

        def counted(component):
            calls.append(component)
            return binding_hash(component)

        def no_sort(*args, **kwargs):
            raise AssertionError("a split must not sort")

        monkeypatch.setattr(sharding, "binding_hash", counted)
        monkeypatch.setattr(sharding, "sorted", no_sort, raising=False)
        [shard] = shard_map.shards
        plan = shard_map.plan_split(shard, world["pool"][1])
        new = shard_map.apply_split(plan)
        assert calls == []
        assert list(plan.moved) == new.names
        assert_index_in_step(shard_map)

    def test_rebinding_never_duplicates_a_member(self):
        world = make_deployment(names=100, shards=2)
        resolver = world["resolver"]
        directory = world["namespace"].directory
        leaf = world["namespace"].shared_leaf
        shard_map = world["shard_map"]

        def members():
            return sum(len(shard.names) for shard in shard_map.shards)

        before = members()
        resolver.rebind(directory, world["namespace"].names[0], leaf)
        assert members() == before
        resolver.rebind(directory, "fresh", leaf)
        assert members() == before + 1
        resolver.rebind(directory, "fresh", UNDEFINED_ENTITY)
        assert "fresh" not in directory.state
        resolver.rebind(directory, "fresh", leaf)
        assert members() == before + 1
        assert_index_in_step(shard_map)


class TestUidKeyedLoad:
    """Satellite: label-aggregated load is reporting-only; decisions
    key on uid, which label collisions cannot corrupt."""

    def _collide(self):
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        # Two distinct machines with the SAME label: the label-keyed
        # report lumps their servers into one bucket.
        m_a = simulator.machine(network, "dup")
        m_b = simulator.machine(network, "dup")
        client_m = simulator.machine(network, "client-m")
        tree = NamingTree("root", sigma=simulator.sigma)
        tree.mkdir("a")
        tree.mkdir("b")
        tree.mkfile("a/x")
        tree.mkfile("b/y")
        placement = DirectoryPlacement()
        placement.place(tree.root, client_m)
        placement.place(tree.directory("a"), m_a)
        placement.place(tree.directory("b"), m_b)
        client = simulator.spawn(client_m, "client")
        resolver = DistributedResolver(simulator, placement)
        context = ProcessContext(tree.root)
        return resolver, client, context, m_a, m_b

    def test_label_collision_merges_report_but_not_uid_view(self):
        resolver, client, context, m_a, m_b = self._collide()
        for _ in range(3):
            resolver.resolve(client, context, "/a/x")
        resolver.resolve(client, context, "/b/y")
        # The label view is ambiguous by construction...
        assert resolver.load["dirserver@dup"] >= 4
        # ...the uid views are not.
        assert resolver.load_of_machine(m_a) == 3
        assert resolver.load_of_machine(m_b) == 1
        by_uid = resolver.load_by_uid()
        assert sorted(
            count for uid, count in by_uid.items()
            if uid != resolver.server_for(client.machine).uid
        ) == [1, 3]

    def test_split_decisions_survive_label_collisions(self):
        """A pool of same-labelled machines still splits correctly —
        the policy counts shards per machine identity and loads per
        shard, never per label."""
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        pool = [simulator.machine(network, "shard") for _ in range(3)]
        client_m = simulator.machine(network, "client-m")
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "hot", count=400,
                                         distinct=16)
        placement = DirectoryPlacement()
        placement.place(tree.root, client_m)
        shard_map = placement.place_sharded(namespace.directory, pool[0])
        client = simulator.spawn(client_m, "client")
        resolver = DistributedResolver(simulator, placement)
        resolver.shard_manager = ShardManager(
            resolver, pool=pool, split_fraction=0.3,
            check_every=60, min_window=30)
        context = ProcessContext(tree.root)
        sampler = ZipfSampler(400, rng=__import__("random").Random(0))
        for rank in sampler.sample_many(300):
            resolver.resolve(client, context,
                             "/hot/" + namespace.names[rank])
        assert resolver.shard_splits > 0
        assert shard_map.is_partition()
        assert len(shard_map.machines()) >= 2


class TestEpochDiscipline:
    """Satellite: place_subtree bumps exactly once; re-placement
    never resurrects stale marks."""

    def _tree_world(self):
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        m1 = simulator.machine(network, "m1")
        m2 = simulator.machine(network, "m2")
        tree = NamingTree("root", sigma=simulator.sigma)
        tree.mkdir("a/b/c")
        tree.mkdir("a/d")
        placement = DirectoryPlacement()
        return placement, tree, m1, m2

    def test_place_subtree_bumps_epoch_exactly_once(self):
        placement, tree, m1, _ = self._tree_world()
        before = placement.epoch
        placed = placement.place_subtree(tree.root, m1)
        assert placed == 5  # root, a, a/b, a/b/c, a/d
        assert placement.epoch == before + 1

    def test_noop_place_subtree_leaves_epoch_alone(self):
        placement, tree, m1, m2 = self._tree_world()
        placement.place_subtree(tree.directory("a/b"), m2)
        before = placement.epoch
        # Every directory under a/b already belongs to m2: re-rooting
        # the walk there for m1 places nothing and must not bump.
        assert placement.place_subtree(tree.directory("a/b"), m1) == 0
        assert placement.epoch == before

    def test_replacement_prunes_stale_marks(self):
        placement, tree, m1, m2 = self._tree_world()
        a = tree.directory("a")
        placement.place_replicated(a, m1, m2)
        placement.mark_stale(a, m2)
        assert placement.is_stale(a, m2)
        placement.place(a, m1)  # m2 is no longer a replica
        assert not placement.is_stale(a, m2)
        # Re-adding m2 later must not resurrect the old mark.
        placement.place_replicated(a, m1, m2)
        assert not placement.is_stale(a, m2)
        assert placement.stale_count() == 0

    def test_place_subtree_prunes_stale_of_dropped_replicas(self):
        placement, tree, m1, m2 = self._tree_world()
        b = tree.directory("a/b")
        placement.place_replicated(b, m1, m2)
        placement.mark_stale(b, m2)
        placement.place_subtree(tree.root, m1)
        assert not placement.is_stale(b, m2)
        assert placement.stale_count() == 0

    def test_surviving_replica_keeps_its_stale_mark(self):
        """Pruning removes marks of *dropped* replicas only — a stale
        replica that stays placed stays stale until anti-entropy."""
        placement, tree, m1, m2 = self._tree_world()
        a = tree.directory("a")
        placement.place_replicated(a, m1, m2)
        placement.mark_stale(a, m2)
        placement.place_replicated(a, m1, m2)  # same membership
        assert placement.is_stale(a, m2)

    def test_place_sharded_clears_replica_state(self):
        placement, tree, m1, m2 = self._tree_world()
        a = tree.directory("a")
        placement.place_replicated(a, m1, m2)
        placement.mark_stale(a, m2)
        before = placement.epoch
        placement.place_sharded(a, m1, m2)
        assert placement.epoch == before + 1
        assert placement.shard_map_of(a) is not None
        assert placement.replicas_of(a) == ()
        assert not placement.is_stale(a, m2)


class TestMidBatchEpochBump:
    """Satellite: a split landing inside resolve_many re-routes the
    rest of the batch instead of using the pre-split ShardMap."""

    def test_split_mid_batch_reroutes_later_items(self):
        world = make_deployment(names=1500, shards=1, manager=True,
                                check_every=80, min_window=40)
        resolver = world["resolver"]
        namespace = world["namespace"]
        shard_map = world["shard_map"]
        sampler = ZipfSampler(1500, rng=__import__("random").Random(7))
        names = ["/hot/" + namespace.names[rank]
                 for rank in sampler.sample_many(600)]
        epoch_before = world["placement"].epoch
        results = resolver.resolve_many(world["client"],
                                        world["context"], names)
        # The split landed while the batch was running...
        assert resolver.shard_splits > 0
        assert world["placement"].epoch > epoch_before
        # ...and every item, before and after the bump, is correct.
        assert len(results) == len(names)
        for name_, (entity, _cost) in zip(names, results):
            assert entity is local_resolve(world["context"], name_)
        # Later items were actually served by the new owners: machines
        # that gained shards gained load (a stale pre-split memo would
        # have kept charging pool[0]'s server).
        gained = [m for m in shard_map.machines()
                  if m is not world["pool"][0]]
        assert gained
        assert any(resolver.load_of_machine(m) > 0 for m in gained)

    def test_sequential_resolves_see_splits_immediately(self):
        world = make_deployment(names=1500, shards=1, manager=True,
                                check_every=80, min_window=40)
        resolver = world["resolver"]
        namespace = world["namespace"]
        sampler = ZipfSampler(1500, rng=__import__("random").Random(3))
        for rank in sampler.sample_many(400):
            entity, _ = resolver.resolve(
                world["client"], world["context"],
                "/hot/" + namespace.names[rank])
            assert entity.is_defined()
        assert resolver.shard_splits > 0
        assert world["shard_map"].is_partition()


class TestMigrationFailure:
    """Commit-last: an undeliverable migration aborts the split with
    the old map and old epoch intact."""

    def test_dead_target_aborts_split(self):
        world = make_deployment(names=400, shards=1)
        resolver = world["resolver"]
        placement = world["placement"]
        shard_map = world["shard_map"]
        target = world["pool"][1]
        FailureInjector(world["simulator"]).crash_machine(target)
        [shard] = shard_map.shards
        epoch_before = placement.epoch
        assert not resolver.split_shard(
            world["namespace"].directory, shard, target)
        assert resolver.shard_split_aborts == 1
        assert resolver.shard_splits == 0
        assert len(shard_map) == 1
        assert placement.epoch == epoch_before
        assert shard_map.is_partition()

    def test_manager_survives_dead_pool_machines(self):
        world = make_deployment(names=1200, shards=1, manager=True,
                                check_every=80, min_window=40)
        injector = FailureInjector(world["simulator"])
        for machine in world["pool"][1:3]:
            injector.crash_machine(machine)
        resolver = world["resolver"]
        namespace = world["namespace"]
        sampler = ZipfSampler(1200, rng=__import__("random").Random(1))
        for rank in sampler.sample_many(400):
            resolver.resolve(world["client"], world["context"],
                             "/hot/" + namespace.names[rank])
        # Splits still happen, but only onto live machines.
        assert resolver.shard_splits > 0
        for shard in world["shard_map"].shards:
            assert shard.machine.alive


@st.composite
def split_sequences(draw):
    """(shard_count, replicas, [(op, seed, fraction)]) scripts: splits
    of a shard at a fraction of its range, interleaved with binds and
    unbinds of ``u{seed % 260}`` (the directory binds u0 … u199)."""
    initial = draw(st.integers(min_value=1, max_value=4))
    replicas = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(("split", "bind", "unbind")),
                  st.integers(min_value=0, max_value=10 ** 6),
                  st.floats(min_value=0.01, max_value=0.99)),
        max_size=16))
    return initial, replicas, steps


class TestOwnershipProperty:
    """Property: after ANY mix of binds, unbinds and splits, every
    binding is owned by exactly one shard, and membership matches
    ownership and the live bindings."""

    @given(script=split_sequences(),
           probes=st.lists(st.text(min_size=1, max_size=12),
                           max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_exactly_one_owner_after_any_split_sequence(self, script,
                                                        probes):
        initial, replicas, steps = script
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        pool = [simulator.machine(network, f"s{i}") for i in range(4)]
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "hot", count=200,
                                         distinct=8)
        directory = namespace.directory
        placement = DirectoryPlacement()
        shard_map = placement.place_sharded(directory, *pool[:initial],
                                            replicas=replicas)
        for op, index_seed, fraction in steps:
            if op != "split":
                entity = (namespace.shared_leaf if op == "bind"
                          else UNDEFINED_ENTITY)
                commit_binding(directory, f"u{index_seed % 260}", entity,
                               now=0.0, epoch=0, placement=placement)
                continue
            shard = shard_map.shards[index_seed % len(shard_map)]
            if shard.span < 2:
                continue
            at = shard.lo + max(1, int(shard.span * fraction))
            if not shard.lo < at < shard.hi:
                continue
            machine = pool[index_seed % len(pool)]
            shard_map.apply_split(
                shard_map.plan_split(shard, machine, at=at))
            assert_index_in_step(shard_map)
        assert shard_map.is_partition()
        assert_index_in_step(shard_map)
        member_union = set()
        for shard in shard_map.shards:
            assert not member_union & set(shard.names)
            member_union |= set(shard.names)
            assert 1 <= len(shard.replicas) <= min(replicas, initial)
            for name_ in shard.names:
                assert shard_map.owner_of(name_) is shard
        assert sum(map(len, (shard.names for shard in shard_map.shards))) \
            == len(member_union)
        assert member_union == set(directory.state.names())
        for probe in probes + list(namespace.names[:5]):
            assert len(shard_map.owners_of(probe)) == 1
            assert shard_map.owners_of(probe)[0] is \
                shard_map.owner_of(probe)


class TestPureRoutingReads:
    """Only the walk's router (``replicas_for_binding``) counts a
    routing hit: lookup servers' walk-on checks and the write path's
    fan-out leave every shard's window load alone."""

    def test_serves_and_host_of_binding_count_no_load(self):
        world = make_deployment(names=300, shards=3, replicas=2)
        placement = world["placement"]
        directory = world["namespace"].directory
        shard_map = world["shard_map"]
        for name_ in world["namespace"].names[:50]:
            shard = shard_map.owner_of(name_)
            assert placement.serves(shard.replicas[1], directory, name_)
            assert placement.host_of_binding(directory, name_) is \
                shard.machine
        assert [shard.load for shard in shard_map.shards] == [0, 0, 0]

    def test_invalidating_rebind_counts_no_load(self):
        world = make_deployment(names=300, shards=2,
                                cache_policy=CachePolicy.INVALIDATE)
        resolver = world["resolver"]
        directory = world["namespace"].directory
        shard_map = world["shard_map"]
        name_ = world["namespace"].names[0]
        # The client holds a copy of the binding (a leaf binding is
        # never a cached prefix, so register the holder directly).
        resolver.writes.note_copies(world["client_m"],
                                    (binding_dep(directory, name_),))
        sent = resolver.invalidation_messages
        resolver.rebind(directory, name_, world["namespace"].shared_leaf)
        assert resolver.invalidation_messages == sent + 1
        assert [shard.load for shard in shard_map.shards] == [0, 0]


class TestReplicatedShards:
    """Tentpole: every shard carries a replica set, and the replica
    failover / stale-mark / anti-entropy machinery works per shard."""

    def test_ring_assignment_and_degree_clamp(self):
        world = make_deployment(names=300, shards=3, replicas=2)
        shard_map = world["shard_map"]
        pool = world["pool"]
        assert shard_map.replication == 2
        for index, shard in enumerate(shard_map.shards):
            assert shard.replicas == (pool[index],
                                      pool[(index + 1) % 3])
            assert shard.machine is shard.replicas[0]
        # Degree is clamped to the pool size — the same machine twice
        # is not replication.
        clamped = make_deployment(names=100, shards=2, replicas=5)
        assert clamped["shard_map"].replication == 2

    def test_replicas_for_binding_returns_the_shard_set(self):
        world = make_deployment(names=300, shards=3, replicas=2)
        placement = world["placement"]
        directory = world["namespace"].directory
        name_ = world["namespace"].names[0]
        shard = world["shard_map"].owner_of(name_)
        assert placement.replicas_for_binding(directory, name_) == \
            shard.replicas
        assert placement.host_of_binding(directory, name_) is \
            shard.machine

    def test_resolution_fails_over_past_crashed_primary(self):
        world = make_deployment(names=400, shards=2, replicas=2,
                                retry=True)
        resolver = world["resolver"]
        shard_map = world["shard_map"]
        namespace = world["namespace"]
        # Warm the servers up, then crash one shard primary.
        for name_ in namespace.names[:20]:
            resolver.resolve(world["client"], world["context"],
                             "/hot/" + name_)
        victim = shard_map.shards[0].machine
        FailureInjector(world["simulator"]).crash_machine(victim)
        hit = 0
        for name_ in namespace.names[:60]:
            if shard_map.owner_of(name_).machine is not victim:
                continue
            hit += 1
            entity, cost = resolver.resolve(
                world["client"], world["context"], "/hot/" + name_)
            assert entity is local_resolve(world["context"],
                                           "/hot/" + name_)
            assert not cost.failed
            assert cost.failovers >= 1
        assert hit > 0  # the dead range was actually exercised

    def test_single_owner_shard_goes_dark_when_primary_dies(self):
        """The contrast case the replica set exists to fix."""
        world = make_deployment(names=400, shards=2, replicas=1,
                                retry=True)
        resolver = world["resolver"]
        shard_map = world["shard_map"]
        namespace = world["namespace"]
        for name_ in namespace.names[:20]:
            resolver.resolve(world["client"], world["context"],
                             "/hot/" + name_)
        victim = shard_map.shards[0].machine
        FailureInjector(world["simulator"]).crash_machine(victim)
        name_ = next(n for n in namespace.names
                     if shard_map.owner_of(n).machine is victim)
        _entity, cost = resolver.resolve(
            world["client"], world["context"], "/hot/" + name_)
        assert cost.failed

    @pytest.mark.parametrize("retry", [False, True],
                             ids=["no-policy", "retrying"])
    def test_single_owner_range_stays_dark_behind_a_stale_mark(self, retry):
        """A11's permanently dark range: the sole owner missed a write
        and came back with nobody to sync from.  Every resolver skips
        the stale copy — a resolver without a retry policy used to read
        through it as if it were fresh."""
        world = make_deployment(names=400, shards=2, replicas=1,
                                retry=retry)
        resolver = world["resolver"]
        shard_map = world["shard_map"]
        namespace = world["namespace"]
        injector = FailureInjector(world["simulator"])
        injector.on_restart(resolver.handle_restart)
        victim = shard_map.shards[0].machine
        name_ = next(n for n in namespace.names
                     if shard_map.owner_of(n).machine is victim)
        resolver.resolve(world["client"], world["context"], "/hot/" + name_)
        injector.crash_machine(victim)
        resolver.rebind(namespace.directory, name_, namespace.shared_leaf)
        injector.restart_machine(victim)
        assert world["placement"].is_stale(namespace.directory, victim)
        _entity, cost = resolver.resolve(
            world["client"], world["context"], "/hot/" + name_)
        assert cost.failed and not cost.weak
        assert cost.messages == 0

    def test_rebind_fans_out_to_shard_secondaries(self):
        world = make_deployment(names=300, shards=2, replicas=2)
        resolver = world["resolver"]
        directory = world["namespace"].directory
        before = resolver.replication_messages
        resolver.rebind(directory, "fresh",
                        world["namespace"].shared_leaf)
        assert resolver.replication_messages == before + 1
        shard = world["shard_map"].owner_of("fresh")
        assert "fresh" in shard.names
        assert not world["placement"].is_stale(directory,
                                               shard.replicas[1])

    def test_rebind_marks_dead_secondary_stale_and_restart_resyncs(self):
        world = make_deployment(names=300, shards=2, replicas=2)
        resolver = world["resolver"]
        placement = world["placement"]
        directory = world["namespace"].directory
        injector = FailureInjector(world["simulator"])
        injector.on_restart(resolver.handle_restart)
        shard = world["shard_map"].owner_of("fresh")
        secondary = shard.replicas[1]
        injector.crash_machine(secondary)
        resolver.rebind(directory, "fresh",
                        world["namespace"].shared_leaf)
        assert placement.is_stale(directory, secondary)
        # Restart: anti-entropy syncs from a live fellow shard replica
        # (there is no directory-wide primary to sync from).
        injector.restart_machine(secondary)
        assert not placement.is_stale(directory, secondary)
        assert placement.stale_count() == 0
        assert resolver.anti_entropy_messages >= 1

    def test_stale_shard_replica_stays_stale_without_live_source(self):
        world = make_deployment(names=300, shards=2, replicas=2)
        resolver = world["resolver"]
        placement = world["placement"]
        directory = world["namespace"].directory
        injector = FailureInjector(world["simulator"])
        injector.on_restart(resolver.handle_restart)
        shard = world["shard_map"].owner_of("fresh")
        primary, secondary = shard.replicas
        injector.crash_machine(secondary)
        resolver.rebind(directory, "fresh",
                        world["namespace"].shared_leaf)
        # Now the only fresh copy dies too.
        injector.crash_machine(primary)
        injector.restart_machine(secondary)
        assert placement.is_stale(directory, secondary)
        # Once the fresh replica is back, the next restart cycle syncs.
        injector.restart_machine(primary)
        injector.crash_machine(secondary)
        injector.restart_machine(secondary)
        assert not placement.is_stale(directory, secondary)

    def test_mark_stale_rejects_non_hosting_machine(self):
        world = make_deployment(names=100, shards=2, replicas=2)
        with pytest.raises(SchemeError):
            world["placement"].mark_stale(world["namespace"].directory,
                                          world["client_m"])

    def test_split_inherits_secondaries_from_source_replicas(self):
        world = make_deployment(names=400, shards=2, replicas=2,
                                pool_size=4)
        shard_map = world["shard_map"]
        resolver = world["resolver"]
        shard = shard_map.shards[0]
        target = world["pool"][2]
        assert resolver.split_shard(world["namespace"].directory,
                                    shard, target)
        new = shard_map.shards[1]
        assert new.replicas[0] is target
        # The fill secondary already held the range's data as a source
        # replica — replication degree carries over with no extra
        # migration traffic.
        assert new.replicas[1] in shard.replicas
        assert len(new.replicas) == 2
        assert shard_map.is_partition()


class TestPickTarget:
    """Satellite: split targets are chosen by measured load and never
    point at a down machine or an open breaker."""

    def _manager(self, world, **kwargs):
        manager = ShardManager(world["resolver"], pool=world["pool"],
                               **kwargs)
        world["resolver"].shard_manager = manager
        return manager

    def test_picks_least_loaded_live_machine(self):
        world = make_deployment(names=400, shards=1, pool_size=4)
        resolver = world["resolver"]
        manager = self._manager(world)
        # Drive measurable load onto pool[1] so pool[2] (untouched)
        # is the least-loaded candidate.
        tree = world["tree"]
        tree.mkdir("warm")
        tree.mkfile("warm/x")
        world["placement"].place(tree.directory("warm"),
                                 world["pool"][1])
        for _ in range(5):
            resolver.resolve(world["client"], world["context"],
                             "/warm/x")
        assert resolver.load_of_machine(world["pool"][1]) == 5
        [hot] = world["shard_map"].shards
        target = manager._pick_target(world["shard_map"], hot)
        assert target is world["pool"][2]

    def test_skips_down_machines(self):
        world = make_deployment(names=400, shards=1, pool_size=3)
        manager = self._manager(world)
        FailureInjector(world["simulator"]).crash_machine(
            world["pool"][1])
        [hot] = world["shard_map"].shards
        assert manager._pick_target(world["shard_map"], hot) is \
            world["pool"][2]

    def test_skips_open_breakers(self):
        world = make_deployment(names=400, shards=1, pool_size=3)
        resolver = world["resolver"]
        manager = self._manager(world)
        now = world["simulator"].clock.now
        breaker = resolver.breaker_for(
            resolver.server_for(world["pool"][1]))
        for _ in range(resolver.breaker_threshold):
            breaker.record_failure(now)
        assert not resolver.breaker_allows(world["pool"][1])
        [hot] = world["shard_map"].shards
        assert manager._pick_target(world["shard_map"], hot) is \
            world["pool"][2]

    def test_breaker_allows_again_after_cooldown(self):
        world = make_deployment(names=400, shards=1, pool_size=3)
        resolver = world["resolver"]
        simulator = world["simulator"]
        breaker = resolver.breaker_for(
            resolver.server_for(world["pool"][1]))
        for _ in range(resolver.breaker_threshold):
            breaker.record_failure(simulator.clock.now)
        assert not resolver.breaker_allows(world["pool"][1])
        simulator.run(until=simulator.clock.now
                      + resolver.breaker_cooldown + 1)
        # Pure read: eligible again, but the breaker state itself is
        # untouched (no premature half-open transition).
        assert resolver.breaker_allows(world["pool"][1])
        assert breaker.state.value == "open"

    def test_excludes_all_replicas_of_the_hot_shard(self):
        world = make_deployment(names=400, shards=2, replicas=2,
                                pool_size=2)
        manager = self._manager(world)
        hot = world["shard_map"].shards[0]
        # Both pool machines are replicas of the hot shard; fallback
        # is the hot primary itself (narrowing beats nothing).
        assert manager._pick_target(world["shard_map"], hot) is \
            hot.machine


class TestMigrationFaultPoints:
    """Tentpole: a crash of source or target at ANY fault point of
    the commit-last migration either aborts cleanly (old map, old
    epoch) or completes, and every binding keeps exactly one owner
    range throughout — on a replicated map the affected range keeps
    resolving either way."""

    def _world(self):
        return make_deployment(names=400, shards=2, replicas=2,
                               pool_size=4, migration_batch=20,
                               retry=True)

    def _sample(self, shard_map, namespace, shard):
        return [n for n in namespace.names
                if shard_map.owner_of(n) is shard][:10]

    @pytest.mark.parametrize("victim_role", ["source", "target"])
    def test_crash_at_every_batch_boundary(self, victim_role):
        # Discover the batch count once (pure plan, fresh world).
        probe = self._world()
        shard = probe["shard_map"].shards[0]
        plan = probe["shard_map"].plan_split(shard, probe["pool"][2])
        batches = -(-len(plan.moved) // 20)
        assert batches >= 3  # the sweep must have interior points
        for fault_point in range(batches + 1):
            world = self._world()
            simulator = world["simulator"]
            resolver = world["resolver"]
            placement = world["placement"]
            shard_map = world["shard_map"]
            shard = shard_map.shards[0]
            target = world["pool"][2]
            victim = (shard.machine if victim_role == "source"
                      else target)
            moved_probe = self._sample(shard_map,
                                       world["namespace"], shard)
            injector = FailureInjector(simulator)
            # Each batch hop is one message at latency 1.0, streamed
            # sequentially: batch k is in flight over (t0+k, t0+k+1).
            # fault_point == batches crashes after the final delivery.
            crash_at = simulator.clock.now + fault_point + 0.5
            injector.schedule(crash_at, "crash", victim)
            epoch_before = placement.epoch
            committed = resolver.split_shard(
                world["namespace"].directory, shard, target)
            # A crashed *target* drops the in-flight batch, so the
            # final fault point inside the stream still aborts; a
            # crashed *source* cannot recall a batch already in
            # flight, so a crash during the last batch commits.
            commit_from = (batches - 1 if victim_role == "source"
                           else batches)
            if fault_point < commit_from:
                assert not committed
                assert placement.epoch == epoch_before
                assert len(shard_map) == 2
            else:
                assert committed
                assert placement.epoch == epoch_before + 1
                assert len(shard_map) == 3
            simulator.run()  # let a post-commit crash land
            # Exactly-one-owner holds at every fault point...
            assert shard_map.is_partition()
            for name_ in moved_probe:
                assert len(shard_map.owners_of(name_)) == 1
            # ...and the replicated range never goes dark: aborted →
            # the old shard's surviving replica serves it; committed →
            # the new shard's set does.
            for name_ in moved_probe[:3]:
                entity, cost = resolver.resolve(
                    world["client"], world["context"],
                    "/hot/" + name_)
                assert entity is local_resolve(world["context"],
                                               "/hot/" + name_)
                assert not cost.failed

    def test_aborted_split_retries_after_restart(self):
        world = self._world()
        resolver = world["resolver"]
        simulator = world["simulator"]
        shard_map = world["shard_map"]
        shard = shard_map.shards[0]
        target = world["pool"][2]
        injector = FailureInjector(simulator)
        injector.on_restart(resolver.handle_restart)
        injector.schedule(simulator.clock.now + 1.5, "crash", target)
        assert not resolver.split_shard(world["namespace"].directory,
                                        shard, target)
        injector.restart_machine(target)
        assert resolver.split_shard(world["namespace"].directory,
                                    shard, target)
        assert shard_map.is_partition()
        assert len(shard_map) == 3

"""Tests for prefix-cached, batched distributed resolution.

The load-bearing property: `resolve_many` is entity-for-entity
identical to N sequential `resolve` calls — and both match the local
section-2 recursion — across both interaction styles, all three cache
policies, and with a rebind injected mid-batch (where TTL's staleness
window is asserted exactly).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.model.names import ROOT_NAME
from repro.model.resolution import resolve as local_resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy, PrefixCache
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver, ResolutionStyle
from repro.nameservice.walk import ResolutionCost
from repro.sim.kernel import Simulator

TTL = 30.0

#: Names that exercise every walk outcome: deep hits, directory hits,
#: misses at each depth, stepping "through" a file, relative names,
#: the bare root, and the empty name.
NAME_POOL = [
    "/a/b/c/leaf", "/a/b/c", "/a/b", "/a", "/", "/a/b/c/zzz",
    "/a/zzz/x", "/zzz", "a/b/c/leaf", "a/b", "a/zzz", "zzz",
    "/a/f1", "/a/b/f2", "/a/f1/too-deep", "/x/y/g", "x/y", "",
]


def make_deployment(policy=CachePolicy.NONE, ttl=TTL):
    """Client machine + three server machines; /a on the client's
    machine, /a/b and /a/b/c on their own servers, a second branch
    /x/y on server1, and a pre-placed alternate `c` directory (same
    leaf name, different entity) so rebinds don't disturb placement."""
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    m_client = simulator.machine(network, "client-m")
    m_b = simulator.machine(network, "b-m")
    m_c = simulator.machine(network, "c-m")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b/c")
    tree.mkdir("x/y")
    leaf = tree.mkfile("a/b/c/leaf")
    tree.mkfile("a/f1")
    tree.mkfile("a/b/f2")
    tree.mkfile("x/y/g")
    placement = DirectoryPlacement()
    placement.place(tree.root, m_client)
    placement.place(tree.directory("a"), m_client)
    placement.place(tree.directory("a/b"), m_b)
    placement.place(tree.directory("a/b/c"), m_c)
    placement.place(tree.directory("x"), m_b)
    placement.place(tree.directory("x/y"), m_b)
    c_v2 = context_object("c-v2")
    simulator.sigma.add(c_v2)
    leaf_v2 = ObjectEntity("leaf-v2")
    simulator.sigma.add(leaf_v2)
    c_v2.state.bind("leaf", leaf_v2)
    placement.place(c_v2, m_c)
    client = simulator.spawn(m_client, "client")
    context = ProcessContext(tree.root)
    resolver = DistributedResolver(simulator, placement,
                                   cache_policy=policy, cache_ttl=ttl)
    return {
        "simulator": simulator, "resolver": resolver, "client": client,
        "context": context, "tree": tree, "leaf": leaf,
        "c_v2": c_v2, "leaf_v2": leaf_v2, "placement": placement,
    }


def matches_local(resolver, client, context, name_,
                  style=ResolutionStyle.ITERATIVE):
    """True if the distributed walk returns exactly what the local
    section-2 recursion returns."""
    return resolver.resolve(client, context, name_, style)[0] is \
        local_resolve(context, name_)


STYLES = list(ResolutionStyle)
POLICIES = list(CachePolicy)


class TestBatchEquivalence:
    """resolve_many ≡ N × resolve ≡ the local section-2 recursion."""

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("policy", POLICIES)
    @given(names=st.lists(st.sampled_from(NAME_POOL), max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_local_and_sequential(self, style, policy,
                                                names, async_lookups):
        batch_world = make_deployment(policy)
        results = batch_world["resolver"].resolve_many(
            batch_world["client"], batch_world["context"], names, style)
        assert len(results) == len(names)
        sequential_world = make_deployment(policy)
        for name_, (entity, cost) in zip(names, results):
            assert entity is local_resolve(batch_world["context"], name_)
            sequential, _ = sequential_world["resolver"].resolve(
                sequential_world["client"], sequential_world["context"],
                name_, style)
            # The twin world resolves the same way (entity identity is
            # per-world; labels + definedness pin the correspondence).
            assert sequential is local_resolve(
                sequential_world["context"], name_)
            assert entity.is_defined() == sequential.is_defined()
            assert entity.label == sequential.label
            assert cost.steps - cost.cached_steps >= 0
        # The walk's other driver, on the same names in the same world.
        lookup = async_lookups(
            batch_world["simulator"], batch_world["placement"],
            batch_world["client"].machine,
            batch_world["client"].machine.network.machines())
        for name_ in names:
            outcome = lookup(batch_world["context"], name_)
            assert outcome.entity is local_resolve(batch_world["context"],
                                                   name_)
            assert not outcome.failed

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_warm_cache_stays_equivalent(self, style, policy,
                                         async_lookups):
        world = make_deployment(policy)
        lookup = async_lookups(world["simulator"], world["placement"],
                               world["client"].machine,
                               world["client"].machine.network.machines())
        for _round in range(3):  # later rounds hit the prefix cache
            results = world["resolver"].resolve_many(
                world["client"], world["context"], NAME_POOL, style)
            for name_, (entity, _cost) in zip(NAME_POOL, results):
                assert entity is local_resolve(world["context"], name_)
                assert lookup(world["context"], name_).entity is entity

    def test_empty_batch(self):
        world = make_deployment()
        assert world["resolver"].resolve_many(
            world["client"], world["context"], []) == []

    def test_results_are_in_input_order(self):
        world = make_deployment()
        names = ["/a/b/c/leaf", "/zzz", "/a/b", "/a/b/c/leaf"]
        results = world["resolver"].resolve_many(
            world["client"], world["context"], names)
        assert results[0][0] is world["leaf"]
        assert not results[1][0].is_defined()
        assert results[3][0] is world["leaf"]


class TestBatchAmortization:
    def test_batch_dedupes_shared_prefix_messages(self):
        """The whole point: a hot batch pays ≥5× fewer messages."""
        names = ["/a/b/c/leaf"] * 10 + ["/a/b/f2"] * 10
        sequential_world = make_deployment(CachePolicy.NONE)
        sequential_costs = [
            sequential_world["resolver"].resolve(
                sequential_world["client"], sequential_world["context"],
                name_)[1]
            for name_ in names]
        batch_world = make_deployment(CachePolicy.NONE)
        batch_costs = [cost for _entity, cost in
                       batch_world["resolver"].resolve_many(
                           batch_world["client"], batch_world["context"],
                           names)]
        sequential_total = ResolutionCost.merge(sequential_costs)
        batch_total = ResolutionCost.merge(batch_costs)
        assert batch_total.messages * 5 <= sequential_total.messages
        assert batch_total.cached_steps > 0

    def test_prefix_cache_amortizes_across_calls(self):
        world = make_deployment(CachePolicy.TTL, ttl=1000.0)
        _, cold = world["resolver"].resolve(
            world["client"], world["context"], "/a/b/c/leaf")
        _, warm = world["resolver"].resolve(
            world["client"], world["context"], "/a/b/c/leaf")
        assert warm.messages < cold.messages
        assert warm.cached_steps == 4  # root, a, b, c all skipped
        assert world["resolver"].cache_stats()["hits"] == 1

    def test_policy_none_disables_the_prefix_cache(self):
        world = make_deployment(CachePolicy.NONE)
        _, cold = world["resolver"].resolve(
            world["client"], world["context"], "/a/b/c/leaf")
        _, again = world["resolver"].resolve(
            world["client"], world["context"], "/a/b/c/leaf")
        assert again.messages == cold.messages
        assert again.cached_steps == 0


class TestRebindCoherence:
    @pytest.mark.parametrize("style", STYLES)
    def test_invalidate_rebind_mid_batch(self, style):
        """A rebind that fires *during* a batch (from the kernel's own
        event loop) invalidates cached prefixes; the next resolution
        is coherent immediately."""
        world = make_deployment(CachePolicy.INVALIDATE)
        resolver, simulator = world["resolver"], world["simulator"]
        resolver.resolve_many(world["client"], world["context"],
                              ["/a/b/c/leaf", "/a/b/f2"], style)  # warm
        simulator.schedule(
            1.5,
            lambda: resolver.rebind(world["tree"].directory("a/b"), "c",
                                    world["c_v2"]),
            note="mid-batch rebind")
        resolver.resolve_many(world["client"], world["context"],
                              NAME_POOL, style)  # pumps past the rebind
        assert resolver.invalidation_messages >= 1
        entity, _ = resolver.resolve(world["client"], world["context"],
                                     "/a/b/c/leaf", style)
        assert entity is world["leaf_v2"]
        assert matches_local(resolver, world["client"], world["context"],
                             "/a/b/c/leaf", style)

    def test_ttl_staleness_window_exact(self):
        """Under TTL a rebound prefix serves the old entity until — and
        only until — the entry's expiry instant."""
        world = make_deployment(CachePolicy.TTL, ttl=TTL)
        resolver, simulator = world["resolver"], world["simulator"]
        resolver.resolve(world["client"], world["context"], "/a/b/c/leaf")
        cache = resolver.cache_of(world["client"])
        key = (world["context"].uid, True, (ROOT_NAME, "a", "b", "c"))
        entry = cache._entries[key]
        expires_at = entry.expires_at
        epoch = world["placement"].epoch
        assert expires_at == entry.cached_at + TTL
        resolver.rebind(world["tree"].directory("a/b"), "c",
                        world["c_v2"])
        # Inside the window: stale — the old leaf, not leaf-v2.
        entity, _ = resolver.resolve(world["client"], world["context"],
                                     "/a/b/c/leaf")
        assert entity is world["leaf"]
        assert entity is not local_resolve(world["context"], "/a/b/c/leaf")
        # The window boundary is exact: live strictly before the expiry
        # instant, dead at it.
        assert entry.live(expires_at - 1e-9, epoch)
        assert not entry.live(expires_at, epoch)
        # A resolution issued just inside the window still serves stale.
        simulator.schedule(expires_at - 0.5 - simulator.clock.now,
                           lambda: None)
        simulator.run()
        entity, _ = resolver.resolve(world["client"], world["context"],
                                     "/a/b/c/leaf")
        assert entity is world["leaf"]
        # That resolution's own hops carried the clock past the expiry
        # instant, so the very next one re-walks and is coherent.
        assert simulator.clock.now >= expires_at
        entity, _ = resolver.resolve(world["client"], world["context"],
                                     "/a/b/c/leaf")
        assert entity is world["leaf_v2"]
        assert resolver.cache_stats()["expirations"] >= 1
        assert matches_local(resolver, world["client"], world["context"],
                             "/a/b/c/leaf")

    def test_rebind_under_none_is_immediate(self):
        world = make_deployment(CachePolicy.NONE)
        resolver = world["resolver"]
        resolver.resolve(world["client"], world["context"], "/a/b/c/leaf")
        sent = resolver.rebind(world["tree"].directory("a/b"), "c",
                               world["c_v2"])
        assert sent == 0
        entity, _ = resolver.resolve(world["client"], world["context"],
                                     "/a/b/c/leaf")
        assert entity is world["leaf_v2"]

    def test_replacement_invalidates_cached_prefixes(self):
        """Re-placing a directory bumps the placement epoch; every
        prefix entry from the old epoch is dead (a cached walk must
        never land on the wrong server)."""
        world = make_deployment(CachePolicy.TTL, ttl=1000.0)
        resolver = world["resolver"]
        resolver.resolve(world["client"], world["context"], "/a/b/c/leaf")
        world["placement"].place(world["tree"].directory("a/b/c"),
                                 world["client"].machine)
        _, cost = resolver.resolve(world["client"], world["context"],
                                   "/a/b/c/leaf")
        assert cost.cached_steps == 0  # nothing served from cache
        assert matches_local(resolver, world["client"], world["context"],
                             "/a/b/c/leaf")


class TestLoadKeying:
    def test_servers_with_colliding_labels_keep_separate_counters(self):
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        # Two distinct machines that happen to share a label.
        m1 = simulator.machine(network, "twin")
        m2 = simulator.machine(network, "twin")
        m_client = simulator.machine(network, "client-m")
        tree = NamingTree("root", sigma=simulator.sigma,
                          parent_links=True)
        tree.mkdir("a/b")
        tree.mkfile("a/b/f")
        placement = DirectoryPlacement()
        placement.place(tree.root, m_client)
        placement.place(tree.directory("a"), m1)
        placement.place(tree.directory("a/b"), m2)
        client = simulator.spawn(m_client, "client")
        context = ProcessContext(tree.root)
        resolver = DistributedResolver(simulator, placement)
        resolver.resolve(client, context, "/a/b/f")
        server1 = resolver.server_for(m1)
        server2 = resolver.server_for(m2)
        by_uid = resolver.load_by_uid()
        assert by_uid[server1.uid] == by_uid[server2.uid] == 1
        # The label-keyed report merges the collision explicitly.
        assert resolver.load["dirserver@twin"] == 2

    def test_hop_does_not_drain_unrelated_events(self):
        """The kernel fast path: a resolution hop pumps only to its own
        delivery, so far-future events stay queued."""
        world = make_deployment()
        simulator = world["simulator"]
        fired = []
        simulator.schedule(1_000.0, lambda: fired.append(True),
                           note="far future")
        world["resolver"].resolve(world["client"], world["context"],
                                  "/a/b/c/leaf")
        assert not fired
        assert len(simulator.queue) == 1
        assert simulator.clock.now < 1_000.0


class TestPrefixCacheUnit:
    def _cache(self):
        simulator = Simulator()
        machine = simulator.machine(simulator.network())
        return PrefixCache(machine, CachePolicy.INVALIDATE,
                           DirectoryPlacement())

    def test_deepest_live_prefix_wins(self):
        cache = self._cache()
        context = ProcessContext(context_object("r"))
        d1, d2 = context_object("d1"), context_object("d2")
        cache.fill(context, True, ("/", "a"), d1, (("d", 1, "a"),),
                   now=0.0, ttl=None, epoch=0)
        cache.fill(context, True, ("/", "a", "b"), d2,
                   (("d", 1, "a"), ("d", 2, "b")),
                   now=0.0, ttl=None, epoch=0)
        found = cache.lookup_longest(context, True,
                                     ["/", "a", "b", "leaf"],
                                     now=1.0, epoch=0)
        assert found is not None
        consumed, entry = found
        assert consumed == 3
        assert entry.directory is d2

    def test_expired_entry_falls_back_to_shallower(self):
        cache = self._cache()
        context = ProcessContext(context_object("r"))
        d1, d2 = context_object("d1"), context_object("d2")
        cache.fill(context, True, ("/", "a"), d1, (), now=0.0,
                   ttl=None, epoch=0)
        cache.fill(context, True, ("/", "a", "b"), d2, (), now=0.0,
                   ttl=5.0, epoch=0)
        consumed, entry = cache.lookup_longest(
            context, True, ["/", "a", "b", "leaf"], now=6.0, epoch=0)
        assert consumed == 2 and entry.directory is d1
        assert cache.expirations == 1

    def test_invalidate_through_drops_dependent_prefixes_only(self):
        cache = self._cache()
        context = ProcessContext(context_object("r"))
        d1, d2 = context_object("d1"), context_object("d2")
        dep = ("d", 7, "b")
        cache.fill(context, True, ("/", "a", "b"), d1, (dep,),
                   now=0.0, ttl=None, epoch=0)
        cache.fill(context, True, ("/", "x"), d2, (("d", 9, "x"),),
                   now=0.0, ttl=None, epoch=0)
        assert cache.invalidate_through(dep) == 1
        assert len(cache) == 1
        assert cache.lookup_longest(context, True, ["/", "x", "g"],
                                    now=0.0, epoch=0) is not None

    def test_epoch_mismatch_is_dead(self):
        cache = self._cache()
        context = ProcessContext(context_object("r"))
        cache.fill(context, True, ("/", "a"), context_object("d"), (),
                   now=0.0, ttl=None, epoch=3)
        assert cache.lookup_longest(context, True, ["/", "a", "f"],
                                    now=0.0, epoch=4) is None

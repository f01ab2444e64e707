"""Tests for cached bindings and coherence-maintenance policies."""

from __future__ import annotations

import gc
import weakref

from repro.model.context import Context, context_object
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import (
    CachePolicy,
    PrefixCache,
    binding_dep,
)
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.sim.kernel import Simulator

NAME = "/registry/svc/endpoint"


class World:
    """``/registry/svc/endpoint``: the registry on *server*, three
    version directories of ``svc`` (pre-placed: placing bumps the epoch
    and would empty every cache) on *backend*, an unplaced root, and
    two client machines on a network of their own."""

    def __init__(self, policy, ttl=10.0):
        sim = self.sim = Simulator(seed=0)
        self.lan, self.srv = sim.network("lan"), sim.network("srv")
        self.server = sim.machine(self.srv, "server")
        backend = sim.machine(self.srv, "backend")
        self.clients = [sim.spawn(sim.machine(self.lan, f"c{i}"), f"p{i}")
                        for i in range(2)]
        tree = NamingTree("root", sigma=sim.sigma)
        self.registry = tree.mkdir("registry")
        placement = DirectoryPlacement()
        placement.place(self.registry, self.server)
        self.versions, self.endpoints = [], []
        for path in ("registry/svc", "spare/v2", "spare/v3"):
            self.versions.append(tree.mkdir(path))
            self.endpoints.append(tree.mkfile(f"{path}/endpoint"))
            placement.place(self.versions[-1], backend)
        tree.mkfile("loose/x")              # an unplaced directory
        self.context = ProcessContext(tree.root)
        self.resolver = DistributedResolver(sim, placement,
                                            cache_policy=policy,
                                            cache_ttl=ttl)
        self.round_trips = 0

    def lookup(self, client=0, name=NAME):
        """Resolve from a client (by index) or any process; a message
        leg out and one back is one round trip."""
        if isinstance(client, int):
            client = self.clients[client]
        entity, cost = self.resolver.resolve(client, self.context, name)
        self.round_trips += cost.messages // 2
        return entity

    def redeploy(self, version):
        self.resolver.rebind(self.registry, "svc", self.versions[version])
        return self.endpoints[version]


class TestNoCachePolicy:
    def test_every_remote_lookup_costs_a_round_trip(self):
        world = World(CachePolicy.NONE)
        for lookups in range(1, 4):
            assert world.lookup() is world.endpoints[0]
            # …per remote step: the registry's server, then the backend.
            assert world.round_trips == 2 * lookups

    def test_local_directory_reads_are_free(self):
        world = World(CachePolicy.NONE)
        local = world.sim.spawn(world.server, "local")
        assert world.lookup(local, "/registry/svc") is world.versions[0]
        assert world.round_trips == 0

    def test_rebind_is_immediately_visible(self):
        world = World(CachePolicy.NONE)
        v2 = world.redeploy(1)
        assert world.lookup() is v2

    def test_unplaced_directory_read_directly(self):
        world = World(CachePolicy.NONE)
        assert world.lookup(0, "/loose/x").label == "x"
        assert world.round_trips == 0


class TestTTLPolicy:
    def test_second_lookup_hits_cache(self):
        world = World(CachePolicy.TTL, ttl=100.0)
        world.lookup()
        assert world.round_trips == 2
        world.lookup()                      # straight to the backend
        assert world.round_trips == 3
        assert world.resolver.cache_stats()["hits"] == 1

    def test_stale_read_inside_window(self):
        world = World(CachePolicy.TTL, ttl=100.0)
        world.lookup()
        world.redeploy(1)
        # Stale: the cached v1 is still served — incoherence.
        assert world.lookup() is world.endpoints[0]

    def test_fresh_after_expiry(self):
        world = World(CachePolicy.TTL, ttl=3.0)
        world.lookup()
        v2 = world.redeploy(1)
        world.sim.schedule(5.0, lambda: None)
        world.sim.run()
        assert world.lookup() is v2

    def test_caches_are_per_machine(self):
        world = World(CachePolicy.TTL, ttl=100.0)
        world.lookup(0)
        world.lookup(1)
        assert world.round_trips == 4


class TestInvalidatePolicy:
    def test_never_stale_after_rebind(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup(0)
        world.lookup(1)
        v2 = world.redeploy(1)
        assert world.lookup(0) is v2
        assert world.lookup(1) is v2

    def test_invalidation_message_per_cached_copy(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup(0)
        world.lookup(1)
        world.redeploy(1)
        assert world.resolver.invalidation_messages == 2

    def test_no_message_for_uncached_binding(self):
        world = World(CachePolicy.INVALIDATE)
        world.redeploy(1)
        assert world.resolver.invalidation_messages == 0

    def test_cache_refills_after_invalidation(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup()
        v2 = world.redeploy(1)
        world.lookup()                      # refill
        before = world.round_trips
        assert world.lookup() is v2
        assert world.round_trips == before + 1      # hit

    def test_invalidations_are_batched_and_latency_counted(self):
        """The fan-out to N holders is sent as one batch and drained
        once: the rebind pays one latency unit of virtual time, not N."""
        world = World(CachePolicy.INVALIDATE)
        world.lookup(0)
        world.lookup(1)
        before = world.sim.clock.now
        world.redeploy(1)
        elapsed = world.sim.clock.now - before
        assert world.resolver.invalidation_messages == 2
        assert elapsed == 1.0

    def test_rebind_drain_leaves_unrelated_events_queued(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup()
        fired = []
        world.sim.schedule(1_000.0, lambda: fired.append(True))
        world.redeploy(1)
        assert world.resolver.invalidation_messages == 1
        assert not fired
        assert len(world.sim.queue) == 1

    def test_stats_aggregate(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup(0)
        world.lookup(0)
        world.lookup(1)
        stats = world.resolver.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2


class TestInvalidationLoss:
    """Regression: an invalidation the network drops used to vanish
    silently — the holder kept serving stale reads and nothing was
    counted.  A lost message must be counted in `invalidation_losses`
    and leave the holder registered for the next rebind's fan-out."""

    def test_lost_invalidation_is_counted_and_read_goes_stale(self):
        world = World(CachePolicy.INVALIDATE)
        assert world.lookup() is world.endpoints[0]
        world.sim.partition(world.lan, world.srv)
        world.redeploy(1)
        assert world.resolver.invalidation_losses == 1
        # The message was paid for and lost — and the holder now
        # observably serves the stale binding (heal first: the cache,
        # not the partition, is what answers).
        world.sim.heal(world.lan, world.srv)
        assert world.lookup() is world.endpoints[0]

    def test_lost_holder_is_reregistered_for_the_next_rebind(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup()
        world.sim.partition(world.lan, world.srv)
        world.redeploy(1)
        world.sim.heal(world.lan, world.srv)
        v3 = world.redeploy(2)
        # The retried fan-out reaches the holder this time.
        assert world.resolver.invalidation_losses == 1
        assert world.lookup() is v3

    def test_delivered_invalidations_count_no_losses(self):
        world = World(CachePolicy.INVALIDATE)
        world.lookup()
        world.redeploy(1)
        assert world.resolver.invalidation_losses == 0


class TestPrefixExpiryCounting:
    """Pin the `expires only once` discipline of PrefixCache's
    keep_expired / lookup_stale pair (expired entries are kept when
    the `serve_stale` gate is open)."""

    def _cache(self, keep_expired):
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network(), "c0")
        return PrefixCache(machine, CachePolicy.TTL, DirectoryPlacement(),
                           serve_stale=keep_expired)

    def _fill(self, cache, ttl=5.0):
        root = context_object("root")
        directory = context_object("svc")
        dep = binding_dep(root, "svc")
        cache.fill(root.state, True, ("svc",), directory, (dep,),
                   now=0.0, ttl=ttl, epoch=0)
        return root.state, directory, dep

    def test_expiry_counted_once_despite_repeated_probes(self):
        cache = self._cache(keep_expired=True)
        context, directory, _dep = self._fill(cache)
        for _ in range(3):
            assert cache.lookup_longest(context, True,
                                        ["svc", "cfg"], now=9.0,
                                        epoch=0) is None
        assert cache.expirations == 1
        assert cache.misses == 3

    def test_repeated_stale_probes_serve_without_recounting_expiry(self):
        cache = self._cache(keep_expired=True)
        context, directory, _dep = self._fill(cache)
        cache.lookup_longest(context, True, ["svc", "cfg"], now=9.0,
                             epoch=0)
        for _ in range(3):
            entry = cache.lookup_stale(context, True, ("svc",))
            assert entry is not None and entry.directory is directory
        assert cache.expirations == 1
        assert cache.stale_hits == 3

    def test_without_keep_expired_entry_drops_on_first_expiry(self):
        cache = self._cache(keep_expired=False)
        context, _directory, _dep = self._fill(cache)
        assert cache.lookup_longest(context, True, ["svc", "cfg"],
                                    now=9.0, epoch=0) is None
        assert cache.expirations == 1 and len(cache) == 0
        # Later probes are plain misses on an absent entry.
        assert cache.lookup_longest(context, True, ["svc", "cfg"],
                                    now=10.0, epoch=0) is None
        assert cache.expirations == 1
        assert cache.lookup_stale(context, True, ("svc",)) is None

    def test_lookup_stale_never_resurrects_an_invalidated_prefix(self):
        cache = self._cache(keep_expired=True)
        context, _directory, dep = self._fill(cache, ttl=None)
        assert cache.invalidate_through(dep) == 1
        # An INVALIDATE drop is an observed write, not staleness.
        assert cache.lookup_stale(context, True, ("svc",)) is None

    def test_refill_rearms_the_expiry_counter(self):
        cache = self._cache(keep_expired=True)
        context, directory, dep = self._fill(cache)
        cache.lookup_longest(context, True, ["svc", "cfg"], now=9.0,
                             epoch=0)
        assert cache.expirations == 1
        cache.fill(context, True, ("svc",), directory, (dep,),
                   now=10.0, ttl=5.0, epoch=0)
        hit = cache.lookup_longest(context, True, ["svc", "cfg"],
                                   now=12.0, epoch=0)
        assert hit is not None and hit[0] == 1
        cache.lookup_longest(context, True, ["svc", "cfg"], now=20.0,
                             epoch=0)
        assert cache.expirations == 2


class TestContextIdentity:
    """Entries key by ``Context.uid``, which is never reused."""

    def test_equal_contexts_share_nothing_and_are_not_kept_alive(self):
        class Tracked(Context):
            __slots__ = ("__weakref__",)

        simulator = Simulator(seed=0)
        cache = PrefixCache(simulator.machine(simulator.network(), "c0"),
                            CachePolicy.INVALIDATE, DirectoryPlacement())
        root, directory = context_object("root"), context_object("svc")
        first, second = (Tracked({"/": root}) for _ in range(2))
        assert first == second              # equal bindings …
        cache.fill(first, True, ("/",), directory,
                   (binding_dep(root, "svc"),), now=0.0, ttl=None, epoch=0)
        # … but distinct contexts: nothing is served to the other one.
        assert cache.lookup_longest(second, True, ["/", "cfg"], now=1.0,
                                    epoch=0) is None
        assert cache.lookup_stale(second, True, ("/",)) is None
        assert cache.lookup_longest(first, True, ["/", "cfg"], now=1.0,
                                    epoch=0)[0] == 1
        alive = weakref.ref(first)
        del first
        gc.collect()
        assert alive() is None and len(cache) == 1

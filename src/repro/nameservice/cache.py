"""Cached bindings and cache-coherence policies (extension).

A binding cache copies entries of remote directories onto a client's
machine.  The copy is *part of a context living in another part of the
system* — so cache staleness is literally the paper's incoherence: the
same name, resolved at two places, denoting different entities.  The
paper predates this engineering (its §1 cites the general problem);
this module adds the operational layer the calibration note calls
"coherent naming in practice" (DNS/ZooKeeper-style caching), as a
clearly-marked extension measured by ablation A5.

Three policies:

* ``NONE`` — no caching; every remote step pays messages, nothing can
  go stale;
* ``TTL`` — entries expire after a virtual-time window; rebinds become
  visible only when the entry times out (bounded staleness);
* ``INVALIDATE`` — the directory service tracks which machines cached
  each entry and sends invalidations on rebind (no staleness after
  the invalidation is delivered, at the cost of extra messages);
* ``LEASE`` — invalidation callbacks *with an expiry promise*
  (:mod:`repro.nameservice.leases`): entries are fresh only while a
  covering lease is unexpired, so even a dropped callback bounds
  staleness by the lease term plus one delivery delay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import SchemeError
from repro.model.context import Context
from repro.model.entities import Entity, ObjectEntity
from repro.nameservice.leases import LeaseManager, LeaseTable
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.retry import RetryPolicy
from repro.obs.instrument import NO_OBS, Instrumentation
from repro.sim.kernel import Simulator
from repro.sim.network import Machine
from repro.sim.process import SimProcess

__all__ = ["CachePolicy", "CacheEntry", "BindingCache",
           "CachingDirectoryService", "PrefixEntry", "PrefixCache",
           "binding_dep", "context_dep"]


class CachePolicy(enum.Enum):
    """How cached bindings are kept coherent."""

    NONE = "none"
    TTL = "ttl"
    INVALIDATE = "invalidate"
    LEASE = "lease"

    def __str__(self) -> str:
        return self.value


@dataclass
class CacheEntry:
    """One cached binding: (directory, name) → entity."""

    entity: Entity
    cached_at: float
    expires_at: Optional[float] = None  # None = no expiry (INVALIDATE)

    def live(self, now: float) -> bool:
        return self.expires_at is None or now < self.expires_at


class BindingCache:
    """A per-machine cache of remote directory bindings."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._entries: dict[tuple[int, str], CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.expirations = 0

    def lookup(self, directory: ObjectEntity, name_: str,
               now: float) -> Optional[Entity]:
        """The cached entity, or None on miss/expiry."""
        key = (directory.uid, name_)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.live(now):
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry.entity

    def fill(self, directory: ObjectEntity, name_: str, entity: Entity,
             now: float, ttl: Optional[float]) -> None:
        """Install a binding copy."""
        expires = None if ttl is None else now + ttl
        self._entries[(directory.uid, name_)] = CacheEntry(
            entity, cached_at=now, expires_at=expires)

    def invalidate(self, directory: ObjectEntity, name_: str) -> None:
        """Drop a cached binding (invalidation protocol)."""
        if self._entries.pop((directory.uid, name_), None) is not None:
            self.invalidations += 1

    def expire(self, directory: ObjectEntity, name_: str) -> None:
        """Drop a cached binding whose covering lease ran out."""
        if self._entries.pop((directory.uid, name_), None) is not None:
            self.expirations += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "expirations": self.expirations}


# -- prefix caching ----------------------------------------------------------

#: A dependency key: one binding a cached prefix walk consumed.  Either
#: ``("d", directory_uid, component)`` for a step through a placed
#: directory, or ``("c", context.uid, component)`` for a step through a
#: process's own (unplaced) starting context.
DepKey = tuple[str, int, str]

#: A cached-prefix key: ``(id(context), rooted, consumed components)``.
#: For rooted names the consumed tuple begins with the root name ``/``.
PrefixKey = tuple[int, bool, tuple[str, ...]]


def binding_dep(directory: ObjectEntity, component: str) -> DepKey:
    """The dependency key for one binding of a directory object."""
    return ("d", directory.uid, component)


def context_dep(context: Context, component: str) -> DepKey:
    """The dependency key for a binding of a raw starting context."""
    return ("c", context.uid, component)


@dataclass
class PrefixEntry:
    """One memoized prefix: the directory reached after consuming a
    leading run of a compound name's components.

    Attributes:
        context: The starting context the prefix was resolved in (held
            to pin identity — a recycled ``id()`` can never alias).
        directory: The context object the prefix walk arrived at.
        deps: Every binding the walk consumed, for invalidation.
        cached_at / expires_at: As for :class:`CacheEntry`.
        epoch: The placement epoch at fill time; entries from an older
            epoch are dead (a re-placed directory would make the cached
            hosting server wrong).
    """

    context: Context
    directory: ObjectEntity
    deps: tuple[DepKey, ...]
    cached_at: float
    expires_at: Optional[float] = None
    epoch: int = 0
    #: Set once the entry's expiry has been counted (an entry retained
    #: for stale serving is probed repeatedly but expires only once).
    expiry_counted: bool = False

    def live(self, now: float, epoch: int) -> bool:
        return (self.epoch == epoch
                and (self.expires_at is None or now < self.expires_at))


class PrefixCache:
    """A per-machine memo of resolved compound-name prefixes.

    Where :class:`BindingCache` copies one binding, a prefix cache
    memoizes a whole resolved *path prefix*
    ``(context, n1 … ni) → directory`` — the DNS-resolver trick: a
    repeated resolution skips straight to the deepest live prefix
    instead of re-walking (and re-paying message hops) from the root.
    Coherence is governed by the same :class:`CachePolicy` values as
    the binding cache, and every entry records the bindings its walk
    consumed so a ``rebind`` can invalidate exactly the prefixes that
    pass through the changed binding.

    With ``keep_expired`` (the resolver sets it in ``serve_stale``
    mode) entries past their TTL or epoch are *retained* instead of
    dropped — never served as live, but available to
    :meth:`lookup_stale`, the policy-gated degraded-read path that
    answers from possibly-stale bindings when no authoritative replica
    is reachable (the paper's weak coherence made operational).
    """

    def __init__(self, machine: Machine,
                 obs: Optional[Instrumentation] = None,
                 keep_expired: bool = False,
                 lease_table: Optional["LeaseTable"] = None):
        self.machine = machine
        self._obs = obs if obs is not None else NO_OBS
        self.keep_expired = keep_expired
        #: Under ``CachePolicy.LEASE`` entries carry no TTL; they are
        #: fresh iff every dependency holds an unexpired lease here.
        self.lease_table = lease_table
        self._entries: dict[PrefixKey, PrefixEntry] = {}
        # Reverse index: consumed binding → prefix keys through it.
        self._through: dict[DepKey, set[PrefixKey]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.expirations = 0
        self.stale_hits = 0
        if self._obs.enabled:
            labels = {"machine": machine.label}
            metrics = self._obs.metrics
            self._m_hits = metrics.counter(
                "cache_prefix_hits_total", labels)
            self._m_misses = metrics.counter(
                "cache_prefix_misses_total", labels)
            self._m_expirations = metrics.counter(
                "cache_prefix_expirations_total", labels)
            self._m_invalidations = metrics.counter(
                "cache_prefix_invalidations_total", labels)
            self._m_stale_served = metrics.counter_family(
                "cache_prefix_stale_served_total", "machine")

    def lookup_longest(self, context: Context, rooted: bool,
                       comps: list[str], now: float,
                       epoch: int) -> Optional[tuple[int, PrefixEntry]]:
        """The deepest live cached prefix of *comps*, or None.

        Only proper prefixes are considered (the final component's
        lookup is the resolution result itself, not a directory to
        step into).  Returns ``(consumed, entry)`` where *consumed* is
        the number of leading components the entry covers.
        """
        for length in range(len(comps) - 1, 0, -1):
            key = (id(context), rooted, tuple(comps[:length]))
            entry = self._entries.get(key)
            if entry is None:
                continue
            if entry.context is not context:
                continue  # stale id() alias — never served
            leased = (self.lease_table is None
                      or self.lease_table.covers_all(entry.deps, now))
            if not entry.live(now, epoch) or not leased:
                if self.keep_expired:
                    # Retained for lookup_stale; count the expiry once.
                    if entry.expiry_counted:
                        continue
                    entry.expiry_counted = True
                else:
                    self._drop(key, entry)
                self.expirations += 1
                if self._obs.enabled:
                    self._m_expirations.inc()
                    self._obs.tracer.event(
                        "cache", "prefix.expired", now,
                        attrs={"machine": self.machine.label,
                               "prefix": "/".join(key[2])})
                continue
            self.hits += 1
            if self._obs.enabled:
                self._m_hits.inc()
            return length, entry
        self.misses += 1
        if self._obs.enabled:
            self._m_misses.inc()
        return None

    def lookup_stale(self, context: Context, rooted: bool,
                     consumed: tuple[str, ...]) -> Optional[PrefixEntry]:
        """The memoized prefix for *consumed*, **ignoring** TTL expiry
        and placement epoch — the degraded-read path.

        Only meaningful in ``keep_expired`` mode; the caller must tag
        any answer derived from the result as weakly coherent (the
        entry may predate rebinds or re-placements).  Returns None if
        the prefix was never cached (or was invalidated — an
        INVALIDATE drop is an *observed* write, not mere staleness, so
        it is never resurrected).
        """
        entry = self._entries.get((id(context), rooted, consumed))
        if entry is None or entry.context is not context:
            return None
        self.stale_hits += 1
        if self._obs.enabled:
            self._m_stale_served.labels(self.machine.label).inc()
        return entry

    def fill(self, context: Context, rooted: bool,
             comps_prefix: tuple[str, ...], directory: ObjectEntity,
             deps: tuple[DepKey, ...], now: float, ttl: Optional[float],
             epoch: int) -> None:
        """Memoize one resolved prefix."""
        key = (id(context), rooted, comps_prefix)
        old = self._entries.get(key)
        if old is not None:
            self._drop(key, old)
        expires = None if ttl is None else now + ttl
        entry = PrefixEntry(context=context, directory=directory,
                            deps=deps, cached_at=now,
                            expires_at=expires, epoch=epoch)
        self._entries[key] = entry
        for dep in deps:
            self._through.setdefault(dep, set()).add(key)

    def invalidate_through(self, dep: DepKey) -> int:
        """Drop every prefix whose walk consumed *dep*; returns the
        number of entries dropped (the invalidation protocol)."""
        keys = self._through.pop(dep, set())
        dropped = 0
        for key in keys:
            entry = self._entries.pop(key, None)
            if entry is None:
                continue
            for other in entry.deps:
                if other != dep:
                    self._through.get(other, set()).discard(key)
            dropped += 1
        self.invalidations += dropped
        if dropped and self._obs.enabled:
            self._m_invalidations.inc(dropped)
        return dropped

    def _drop(self, key: PrefixKey, entry: PrefixEntry) -> None:
        self._entries.pop(key, None)
        for dep in entry.deps:
            self._through.get(dep, set()).discard(key)

    def clear(self) -> None:
        self._entries.clear()
        self._through.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "expirations": self.expirations,
                "stale_hits": self.stale_hits}


class CachingDirectoryService:
    """Directory reads/writes with per-machine binding caches.

    All binding *writes* go through :meth:`rebind`, which is what lets
    the INVALIDATE policy know whom to notify — the same discipline a
    ReplicaRegistry imposes on replica state.

    Reads (:meth:`lookup`) consult the client machine's cache first;
    a miss on a remotely-hosted directory costs one round-trip (two
    messages) through the kernel and fills the cache per policy.
    """

    def __init__(self, simulator: Simulator,
                 placement: DirectoryPlacement,
                 policy: CachePolicy = CachePolicy.NONE,
                 ttl: float = 10.0, latency: float = 1.0,
                 retry_policy: Optional[RetryPolicy] = None):
        self._sim = simulator
        self._placement = placement
        self.policy = policy
        self.ttl = ttl
        self._latency = latency
        self.retry_policy = retry_policy
        self._caches: dict[int, BindingCache] = {}
        self._agents: dict[int, SimProcess] = {}
        self.remote_reads = 0
        # Import cycle: the write path needs CachePolicy/binding_dep.
        from repro.nameservice.writes import WritePath
        #: The shared write discipline; ``ttl`` doubles as lease term.
        self.writes = WritePath(
            simulator, placement, policy, latency=latency,
            retry_policy=retry_policy, lease_term=ttl,
            speaker=self._agent, drop_copies=self._drop_copy)
        #: The LEASE policy's server-side manager (``None`` otherwise).
        self.leases: Optional[LeaseManager] = self.writes.leases

    @property
    def invalidation_messages(self) -> int:
        """Invalidation / lease-callback / ack messages sent."""
        return self.writes.invalidation_messages

    @property
    def invalidation_latency(self) -> float:
        """Virtual time :meth:`rebind` spent draining its fan-outs."""
        return self.writes.invalidation_latency

    @property
    def invalidation_losses(self) -> int:
        """Undeliverable invalidations plus broken leases."""
        return self.writes.invalidation_losses

    # -- cache plumbing -----------------------------------------------------

    def cache_of(self, machine: Machine) -> BindingCache:
        cache = self._caches.get(id(machine))
        if cache is None:
            cache = BindingCache(machine)
            self._caches[id(machine)] = cache
        return cache

    def lease_table_of(self, machine: Machine) -> LeaseTable:
        """The LEASE policy's client-side table for *machine*."""
        return self.writes.lease_table_of(machine)

    def _agent(self, machine: Machine) -> Optional[SimProcess]:
        """The per-machine process carrying cache/invalidation traffic:
        spawned on demand (again once a crashed machine is back up);
        while the machine is down, its last agent or ``None``."""
        agent = self._agents.get(id(machine))
        if machine.alive and (agent is None or not agent.alive):
            agent = self._sim.spawn(machine,
                                    label=f"cacheagent@{machine.label}")
            self._agents[id(machine)] = agent
        return agent

    def _drop_copy(self, machine_id: int, directory: ObjectEntity,
                   name_: str) -> int:
        cache = self._caches.get(machine_id)
        if cache is not None:
            cache.invalidate(directory, name_)
        return 0  # a binding copy carries no cached prefixes

    def _round_trip(self, client: Machine, server: Machine) -> None:
        if client is server:
            return
        sender = self._agent(client)
        receiver = self._agent(server)
        request = sender.send(receiver, payload={"cache": "read"},
                              latency=self._latency)
        self._sim.run_until_settled(request)
        reply = receiver.send(sender, payload={"cache": "reply"},
                              latency=self._latency)
        self._sim.run_until_settled(reply)
        self.remote_reads += 1

    # -- reads ------------------------------------------------------------------

    def lookup(self, client_machine: Machine, directory: ObjectEntity,
               name_: str) -> Entity:
        """Read ``σ(directory)(name_)`` from *client_machine*.

        Locally-hosted (or unplaced) directories are read directly;
        remote ones go through the cache.
        """
        if not directory.is_context_object():
            raise SchemeError(f"not a directory: {directory!r}")
        # Per-binding routing: a sharded directory serves each binding
        # from its owning shard's machine, so locality (and therefore
        # whether this read goes through the cache) is decided against
        # that machine, not a directory-wide primary.
        host = self._placement.host_of_binding(directory, name_)
        context: Context = directory.state
        if host is None or host is client_machine:
            return context(name_)
        now = self._sim.clock.now
        if self.policy is not CachePolicy.NONE:
            cache = self.cache_of(client_machine)
            if self.policy is CachePolicy.LEASE:
                # Leased entries carry no TTL; the covering lease is
                # the freshness gate (expired lease = expired entry).
                table = self.lease_table_of(client_machine)
                if not table.fresh(binding_dep(directory, name_), now):
                    cache.expire(directory, name_)
            cached = cache.lookup(directory, name_, now)
            if cached is not None:
                auditor = self._sim.obs.auditor
                if auditor is not None:
                    # Binding-level audit: is the cached copy still
                    # what the authoritative history says it is?
                    auditor.observe_lookup(
                        directory, name_, cached, now=now,
                        policy=self.policy.value, ttl=self.ttl,
                        lease_term=self.ttl,
                        placement=self._placement)
                return cached
        # Miss: fetch from the hosting server.
        self._round_trip(client_machine, host)
        now = self._sim.clock.now
        entity = context(name_)
        if self.policy is not CachePolicy.NONE and entity.is_defined():
            ttl = self.ttl if self.policy is CachePolicy.TTL else None
            self.cache_of(client_machine).fill(
                directory, name_, entity, now, ttl)
            self.writes.note_copies(
                client_machine, (binding_dep(directory, name_),))
        return entity

    # -- writes --------------------------------------------------------------------

    def rebind(self, directory: ObjectEntity, name_: str,
               entity: Entity) -> None:
        """Change a binding; under INVALIDATE/LEASE, notify copies.

        The write takes the shared write discipline
        (:meth:`repro.nameservice.writes.WritePath.rebind`), drained
        before this call returns: a copy is dropped only where its
        invalidation (or break callback) was *delivered*; a lost one is
        counted in :attr:`invalidation_losses`.
        """
        self.writes.rebind(directory, name_, entity)

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        totals = {"remote_reads": self.remote_reads,
                  "invalidation_messages": self.invalidation_messages,
                  "invalidation_latency": self.invalidation_latency,
                  "invalidation_losses": self.invalidation_losses,
                  "hits": 0, "misses": 0, "invalidations": 0,
                  "expirations": 0}
        for cache in self._caches.values():
            for key, value in cache.stats().items():
                totals[key] += value
        if self.leases is not None:
            for key, value in self.leases.stats().items():
                totals[f"lease_{key}"] = value
        return totals

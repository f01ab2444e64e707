"""Cached bindings and cache-coherence policies (extension).

A cache copies bindings of remote directories onto a client's machine.
The copy is *part of a context living in another part of the system* —
so cache staleness is literally the paper's incoherence: the same
name, resolved at two places, denoting different entities.  The paper
predates this engineering (its §1 cites the general problem); this
module adds the operational layer the calibration note calls "coherent
naming in practice" (DNS/ZooKeeper-style caching), as a clearly-marked
extension measured by ablation A5.

There is one kind of copy — :class:`PrefixCache`, read and filled by
the one walk (:mod:`repro.nameservice.walk`) — kept under one of four
policies:

* ``NONE`` — no caching; every remote step pays messages, nothing can
  go stale;
* ``TTL`` — entries expire after a virtual-time window; rebinds become
  visible only when the entry times out (bounded staleness);
* ``INVALIDATE`` — the write path tracks which machines cached each
  binding and sends invalidations on rebind (no staleness after the
  invalidation is delivered, at the cost of extra messages);
* ``LEASE`` — invalidation callbacks *with an expiry promise*
  (:mod:`repro.nameservice.leases`): entries are fresh only while a
  covering lease is unexpired, so even a dropped callback bounds
  staleness by the lease term plus one delivery delay.

The client side of every policy is decided here; the server side —
who is told on a rebind — is :class:`repro.nameservice.writes.WritePath`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.model.context import Context
from repro.model.entities import ObjectEntity
from repro.nameservice.leases import LeaseTable
from repro.nameservice.placement import DirectoryPlacement
from repro.obs.instrument import NO_OBS, Instrumentation
from repro.sim.network import Machine

__all__ = ["CachePolicy", "PrefixEntry", "PrefixCache", "binding_dep",
           "context_dep"]


class CachePolicy(enum.Enum):
    """How cached bindings are kept coherent."""

    NONE = "none"
    TTL = "ttl"
    INVALIDATE = "invalidate"
    LEASE = "lease"

    def __str__(self) -> str:
        return self.value


#: A dependency key: one binding a cached prefix walk consumed.  Either
#: ``("d", directory_uid, component)`` for a step through a placed
#: directory, or ``("c", context.uid, component)`` for a step through a
#: process's own (unplaced) starting context.
DepKey = tuple[str, int, str]

#: A cached-prefix key: ``(context.uid, rooted, consumed components)``
#: — a uid is never reused, so an entry needs no reference to its
#: context.  For rooted names the consumed tuple begins with the root
#: name ``/``.
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
        directory: The context object the prefix walk arrived at.
        deps: Every binding the walk consumed, for invalidation.
        cached_at / expires_at: Fill time and TTL deadline (``None`` =
            no expiry of its own: INVALIDATE, LEASE).
        epoch: The placement epoch at fill time; entries from an older
            epoch are dead (a re-placed directory would make the cached
            hosting server wrong).
    """

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

    A prefix cache memoizes a whole resolved *path prefix*
    ``(context, n1 … ni) → directory`` — the DNS-resolver trick: a
    repeated resolution skips straight to the deepest live prefix
    instead of re-walking (and re-paying message hops) from the root.
    Every entry records the bindings its walk consumed so a ``rebind``
    can invalidate exactly the prefixes that pass through the changed
    binding.

    The cache takes its policy's client-side decisions itself: the
    walk calls :meth:`probe`, :meth:`remember` and
    :meth:`serve_degraded` and passes none of the arguments below.

    Args:
        machine: The client machine the copies live on.
        policy: The coherence policy they are kept under (never
            ``NONE`` — that is having no cache).
        placement: Read for the current ``epoch`` and for which
            directories are placed at all (``host_of``).
        ttl: Expiry window of ``TTL`` entries, in virtual time.
        serve_stale: Policy gate for degraded reads, decided by
            whoever builds the cache (the resolver opens it when
            asked to, or under ``LEASE`` for its grace mode, and only
            with a retry policy).  With it, entries past their TTL,
            lease or epoch are *retained*: never served as live, but
            available to :meth:`serve_degraded` (the paper's weak
            coherence made operational).
        lease_table: ``LEASE``: this machine's client-side table;
            entries are fresh iff every dependency holds an unexpired
            lease there.
        note_copies: ``(machine, deps)``, told of every fill
            (:meth:`repro.nameservice.writes.WritePath.note_copies`).
    """

    def __init__(self, machine: Machine, policy: CachePolicy,
                 placement: DirectoryPlacement, *, ttl: float = 10.0,
                 serve_stale: bool = False,
                 lease_table: Optional[LeaseTable] = None,
                 note_copies: Optional[Callable[[Machine, tuple],
                                                None]] = None,
                 obs: Optional[Instrumentation] = None):
        self.machine = machine
        self._placement = placement
        self._ttl = ttl if policy is CachePolicy.TTL else None
        self.lease_table = lease_table
        self.keep_expired = serve_stale
        self._note_copies = note_copies
        self._obs = obs if obs is not None else NO_OBS
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

    # -- what the walk calls -----------------------------------------------

    def probe(self, context: Context, rooted: bool, comps: list[str],
              now: float) -> Optional[tuple[int, PrefixEntry]]:
        """:meth:`lookup_longest` under the current placement epoch."""
        return self.lookup_longest(context, rooted, comps, now,
                                   self._placement.epoch)

    def remember(self, context: Context, rooted: bool,
                 consumed: tuple[str, ...], directory: ObjectEntity,
                 deps: tuple[DepKey, ...], now: float) -> None:
        """Memoize one prefix the walk just resolved coherently, for as
        long as the policy lets it answer, and tell the write path."""
        placement = self._placement
        if placement.host_of(directory) is None:
            return  # local state — there is no walk to skip
        epoch = placement.epoch
        self.fill(context, rooted, consumed, directory, deps, now,
                  self._ttl, epoch)
        table = self.lease_table
        if table is not None and table.in_grace \
                and placement.host_of(directory) is not self.machine:
            # A *remote* authoritative step succeeded again: the
            # partition healed.  Revalidate before promoting anything
            # back to fresh.  (Locally-placed directories answer
            # through any partition, so they prove nothing.)
            table.exit_grace(now, epoch)
        if self._note_copies is not None:
            self._note_copies(self.machine, deps)

    def serve_degraded(self, context: Context, rooted: bool,
                       consumed: tuple[str, ...], directory: ObjectEntity,
                       now: float) -> Optional[PrefixEntry]:
        """Every replica of *directory* was unreachable: the retained
        entry the step may be answered from, or None.  The caller must
        tag the answer weakly coherent.

        Under ``LEASE`` this is *grace mode*: the client enters grace
        (it cannot renew) and keeps answering from its expired leased
        entries — returning the **cached** directory, which may predate
        a rebind it never heard about, so the walk continues in the
        returned entry's state; on heal, :meth:`remember` revalidates
        (:meth:`LeaseTable.exit_grace`) before anything is promoted
        back to fresh.  A *revoked* promise (delivered break callback)
        was dropped from the cache, so it is never resurrected.
        """
        if not self.keep_expired:
            return None
        entry = self.lookup_stale(context, rooted, consumed)
        if entry is None:
            return None
        table = self.lease_table
        if table is None:
            if entry.directory is not directory:
                return None
        else:
            table.enter_grace(now)
            table.served_in_grace(now)
        return entry

    # -- the store ---------------------------------------------------------

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
            key = (context.uid, rooted, tuple(comps[:length]))
            entry = self._entries.get(key)
            if entry is None:
                continue
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
                    if self._obs.tracer.admit():
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
        and placement epoch — the store read behind
        :meth:`serve_degraded`.

        Only meaningful when expired entries are retained; the entry
        may predate rebinds or re-placements.  Returns None if the
        prefix was never cached (or was invalidated — an INVALIDATE
        drop is an *observed* write, not mere staleness, so it is
        never resurrected).
        """
        entry = self._entries.get((context.uid, rooted, consumed))
        if entry is None:
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
        key = (context.uid, rooted, comps_prefix)
        old = self._entries.get(key)
        if old is not None:
            self._drop(key, old)
        expires = None if ttl is None else now + ttl
        entry = PrefixEntry(directory=directory, deps=deps, cached_at=now,
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

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "expirations": self.expirations,
                "stale_hits": self.stale_hits}

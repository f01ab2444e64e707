"""Consistent-hash sharding of directory bindings (extension).

At production scale a hot directory stops fitting on one machine — not
in bytes but in *load*: §6's cost analysis charges every resolution
step to the directory's hosting server, so a directory of a million
names under a Zipf workload saturates whichever single server hosts
it.  This module splits a directory's **bindings** (not the directory
object — σ stays one context, the paper's semantics are untouched)
across shard servers by consistent hashing of the binding name:

* a :class:`ShardMap` partitions the 32-bit hash space into contiguous
  ranges, one :class:`Shard` per range, each carrying a **replica set**
  (``Shard.replicas`` — primary first; degree set by
  ``place_sharded(..., replicas=N)``) — every binding name hashes into
  *exactly one* range, so exactly one shard owns it (property-tested),
  while the resolver's replica failover path can hop to a shard
  secondary when the primary is down;
* :meth:`ShardMap.plan_split` / :meth:`~repro.nameservice.placement.
  DirectoryPlacement.apply_split` split a hot shard's range in two,
  handing the upper half to a new machine — the migration itself is
  driven by :meth:`~repro.nameservice.resolver.DistributedResolver.
  split_shard` as *simulated messages*, so traces, failure injection
  and the retry/breaker machinery all apply to rebalancing traffic;
* a :class:`ShardManager` watches the per-shard routing load the
  resolver records (:meth:`ShardMap.note_load`), splits any shard
  whose share of a check window crosses the split threshold — the
  live feedback loop experiment A10 measures.  The map only splits;
  ``max_shards`` bounds its growth.

Shard membership changes ride the existing placement-*epoch* protocol
(:attr:`~repro.nameservice.placement.DirectoryPlacement.epoch`): a
split bumps the epoch exactly once, so prefix-cache entries memoized
under the pre-split map die instead of routing to the old owner.
Splits move *placement*, never binding values, so leases stay valid
across a migration (their cached entries die with the epoch and are
re-leased on the next walk).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional
from zlib import crc32

from repro.errors import SchemeError
from repro.model.context import Context
from repro.model.entities import ObjectEntity
from repro.sim.network import Machine

__all__ = ["HASH_SPACE", "binding_hash", "Shard", "ShardMap",
           "SplitPlan", "ShardManager"]

#: The hash ring: binding names map into ``[0, HASH_SPACE)``.
HASH_SPACE = 1 << 32


def binding_hash(component: str) -> int:
    """Deterministic 32-bit hash of a binding name.

    ``zlib.crc32`` rather than :func:`hash`: python string hashing is
    salted per process, which would make shard ownership — and with it
    every trace and experiment row — nondeterministic across runs.
    """
    return crc32(component.encode("utf-8"))


class Shard:
    """One contiguous hash range ``[lo, hi)`` held by a replica set.

    ``replicas`` is (primary, *secondaries) — the primary serves
    routing and hosts migrations; secondaries exist so the resolver's
    failover path has somewhere to hop when the primary crashes.  The
    degree-1 case (``replicas == (machine,)``) is byte-identical to
    the historical single-owner shard.
    """

    __slots__ = ("lo", "hi", "replicas", "load", "names", "hashes")

    def __init__(self, lo: int, hi: int, machine: Machine,
                 *secondaries: Machine):
        self.lo = lo
        self.hi = hi
        deduped: list[Machine] = []
        seen: set[int] = set()
        for candidate in (machine, *secondaries):
            if id(candidate) not in seen:
                seen.add(id(candidate))
                deduped.append(candidate)
        #: Replica set, primary first (deduped by machine identity).
        self.replicas: tuple[Machine, ...] = tuple(deduped)
        #: Routing hits recorded since the last manager check window.
        self.load = 0
        #: Binding names whose hash falls in this range, and each
        #: name's hash at the same index — hashed once, so a split
        #: compares instead of rehashing or rescanning the directory.
        self.names: list[str] = []
        self.hashes = array("I")

    @property
    def machine(self) -> Machine:
        """The shard's primary (kept as a property so every historical
        single-owner call site reads the head of the replica set)."""
        return self.replicas[0]

    @property
    def span(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return (f"<Shard [{self.lo:#010x},{self.hi:#010x}) "
                f"@{self.machine.label} load={self.load} "
                f"members={len(self.names)}>")


@dataclass(frozen=True)
class SplitPlan:
    """A pure description of one shard split, computed before any
    migration message is sent and applied only if migration succeeds."""

    shard: Shard
    split_at: int
    machine: Machine                 #: primary of the new upper range
    moved: tuple[str, ...]           #: bindings migrating to *machine*
    #: Full replica set of the new shard (primary first).  Beyond the
    #: new primary these are drawn from the source shard's own
    #: replicas — machines that already hold the range's data — so a
    #: split keeps the map's replication degree without extra copies.
    targets: tuple[Machine, ...]


class ShardMap:
    """The sharded placement of one directory's bindings.

    Ranges are kept sorted and contiguous over ``[0, HASH_SPACE)`` —
    the representation *cannot* express an unowned or doubly-owned
    hash, which is what makes the every-binding-has-exactly-one-owner
    property structural rather than aspirational (still
    property-tested over random split sequences).
    """

    def __init__(self, directory: ObjectEntity,
                 machines: Iterable[Machine], *, replicas: int = 1):
        machines = list(machines)
        if not machines:
            raise SchemeError("a shard map needs at least one machine")
        self.directory = directory
        count = len(machines)
        #: Replication degree: each shard's replica set is the next
        #: *replication* machines in ring order (clamped to the pool
        #: size — replicating onto the same machine twice is not
        #: replication).
        self.replication = max(1, min(int(replicas), count))
        bounds = [HASH_SPACE * index // count for index in range(count)]
        bounds.append(HASH_SPACE)
        self._shards = [
            Shard(bounds[i], bounds[i + 1],
                  *(machines[(i + k) % count]
                    for k in range(self.replication)))
            for i in range(count)]
        #: ``shard.lo`` of every shard, in ring order (the bisect key,
        #: kept in step by :meth:`apply_split`).
        self._los = bounds[:-1]
        context: Context = directory.state
        for name_ in context.names():
            value = binding_hash(name_)
            shard = self._shard_for_hash(value)
            shard.names.append(name_)
            shard.hashes.append(value)

    # -- routing ------------------------------------------------------------

    def _shard_for_hash(self, value: int) -> Shard:
        return self._shards[bisect_right(self._los, value) - 1]

    def owner_of(self, component: str) -> Shard:
        """The unique shard owning *component*."""
        return self._shard_for_hash(binding_hash(component))

    def note_load(self, component: str) -> None:
        """Record one routing hit against the owning shard (the
        signal :class:`ShardManager` splits on — counted per shard,
        never aggregated by machine label)."""
        self.owner_of(component).load += 1

    def add_member(self, component: str) -> None:
        """Track a binding the rebind discipline created after the map
        was built (it adds a name only while the name is unbound)."""
        value = binding_hash(component)
        shard = self._shard_for_hash(value)
        shard.names.append(component)
        shard.hashes.append(value)

    def remove_member(self, component: str) -> None:
        """Stop tracking a binding the write discipline removed."""
        shard = self.owner_of(component)
        index = shard.names.index(component)
        del shard.names[index], shard.hashes[index]

    # -- splitting ----------------------------------------------------------

    def plan_split(self, shard: Shard, machine: Machine,
                   at: Optional[int] = None) -> SplitPlan:
        """Describe splitting *shard* at *at* (default: range midpoint),
        handing ``[at, hi)`` to *machine*.  Pure — nothing changes
        until :meth:`apply_split`."""
        if shard not in self._shards:
            raise SchemeError(f"{shard!r} is not a shard of this map")
        if shard.span < 2:
            raise SchemeError(f"{shard!r} cannot split further")
        split_at = shard.lo + shard.span // 2 if at is None else at
        if not shard.lo < split_at < shard.hi:
            raise SchemeError(
                f"split point {split_at:#x} outside ({shard.lo:#x}, "
                f"{shard.hi:#x})")
        moved = tuple([name_ for name_, value
                       in zip(shard.names, shard.hashes)
                       if value >= split_at])
        fill = tuple(m for m in shard.replicas
                     if m is not machine)[:max(0, self.replication - 1)]
        return SplitPlan(shard=shard, split_at=split_at,
                         machine=machine, moved=moved,
                         targets=(machine,) + fill)

    def apply_split(self, plan: SplitPlan) -> Shard:
        """Commit a planned split; returns the new shard.

        Window loads of both halves reset — the post-split window
        re-measures the true distribution instead of guessing how the
        old count divides.
        """
        shard = plan.shard
        at = plan.split_at
        index = self._shards.index(shard)
        new = Shard(at, shard.hi, *plan.targets)
        names, hashes = shard.names, shard.hashes
        new.names = [n for n, value in zip(names, hashes) if value >= at]
        new.hashes = array("I", [value for value in hashes if value >= at])
        shard.names = [n for n, value in zip(names, hashes) if value < at]
        shard.hashes = array("I", [value for value in hashes if value < at])
        shard.hi = at
        shard.load = 0
        self._shards.insert(index + 1, new)
        self._los.insert(index + 1, at)
        return new

    # -- introspection ------------------------------------------------------

    @property
    def shards(self) -> tuple[Shard, ...]:
        return tuple(self._shards)

    def machines(self) -> list[Machine]:
        """Machines holding any replica of any shard, deduped, in
        ring order (primaries before the secondaries that follow)."""
        seen: dict[int, Machine] = {}
        for shard in self._shards:
            for machine in shard.replicas:
                seen.setdefault(id(machine), machine)
        return list(seen.values())

    def reset_window(self) -> None:
        """Zero the per-shard load counters (end of a check window)."""
        for shard in self._shards:
            shard.load = 0

    def is_partition(self) -> bool:
        """True iff the ranges exactly tile ``[0, HASH_SPACE)`` — the
        exactly-one-owner invariant, checked structurally."""
        if not self._shards:
            return False
        if self._shards[0].lo != 0 or self._shards[-1].hi != HASH_SPACE:
            return False
        return all(self._shards[i].hi == self._shards[i + 1].lo
                   and self._shards[i].span >= 1
                   for i in range(len(self._shards) - 1))

    def owners_of(self, component: str) -> list[Shard]:
        """Every shard whose range contains *component*'s hash (the
        property tests assert this is always exactly one, without
        trusting the bisect fast path)."""
        value = binding_hash(component)
        return [shard for shard in self._shards
                if shard.lo <= value < shard.hi]

    def __len__(self) -> int:
        return len(self._shards)

    def __repr__(self) -> str:
        return (f"<ShardMap {self.directory.label!r} "
                f"{len(self._shards)} shards over "
                f"{len(self.machines())} machines>")


class ShardManager:
    """The split policy: watch per-shard window load, split hot shards.

    Wired as ``resolver.shard_manager = ShardManager(resolver, pool=…)``
    the resolver pings :meth:`on_resolution` after every completed
    walk (including each walk *inside* a batch — a split can land
    mid-``resolve_many``, which is exactly the case the epoch protocol
    has to survive).  Every *check_every* resolutions the manager
    scans each sharded directory and splits any shard whose share of
    the window's routing hits exceeds *split_fraction*, handing the
    upper half-range to the pool machine with the lowest *measured*
    load (``resolver.load_of_machine`` — work actually done, not shard
    count), skipping machines that are down or whose circuit breaker
    is open so a dead target is never re-picked window after window.
    Splits are executed by
    :meth:`~repro.nameservice.resolver.DistributedResolver.
    split_shard`, i.e. migration runs as simulated messages and an
    unreachable target aborts the split (retried next window).
    """

    def __init__(self, resolver, *, pool: Iterable[Machine],
                 split_fraction: float = 0.25,
                 check_every: int = 1000,
                 min_window: int = 100,
                 max_shards: int = 64):
        self.resolver = resolver
        self.placement = resolver.placement
        self.pool = list(pool)
        self.split_fraction = split_fraction
        self.check_every = check_every
        self.min_window = min_window
        self.max_shards = max_shards
        self.resolutions = 0

    # -- the feedback loop --------------------------------------------------

    def on_resolution(self) -> None:
        """One walk finished; maybe run a check window."""
        self.resolutions += 1
        if self.resolutions % self.check_every == 0:
            self.check()

    def check(self) -> int:
        """Scan every sharded directory once; returns splits done."""
        done = 0
        for shard_map in self.placement.shard_maps():
            done += self._check_map(shard_map)
            shard_map.reset_window()
        return done

    def _check_map(self, shard_map: ShardMap) -> int:
        done = 0
        while len(shard_map) < self.max_shards:
            window = sum(s.load for s in shard_map.shards)
            if window < self.min_window:
                break
            hot = max(shard_map.shards,
                      key=lambda s: (s.load, -s.lo))
            if hot.load <= self.split_fraction * window:
                break
            if hot.span < 2:
                break  # a single hash value cannot split further
            target = self._pick_target(shard_map, hot)
            if target is None:
                break
            if not self.resolver.split_shard(shard_map.directory, hot,
                                             target):
                break  # unreachable target — retry next window
            done += 1
        return done

    def _pick_target(self, shard_map: ShardMap,
                     hot: Shard) -> Optional[Machine]:
        """The pool machine with the lowest *measured* load
        (``resolver.load_of_machine`` — messages actually handled),
        tie-broken by the number of shard primaries it already holds
        and then by pool order (deterministic per seed).  The shard
        count matters *within* a check window: several splits can land
        before any new traffic runs, so measured load alone would pile
        every split of the window onto the same idle machine.
        Machines that are down or whose circuit breaker is open are
        skipped, so the manager never re-picks a dead target window
        after window only for ``split_shard`` to abort.  The hot
        shard's own replicas are excluded unless the primary is the
        only live candidate: splitting onto the same machine narrows
        the range but sheds no load."""
        resolver = self.resolver
        best: Optional[Machine] = None
        best_key = None
        for machine in self.pool:
            if not machine.alive or machine in hot.replicas:
                continue
            if not resolver.breaker_allows(machine):
                continue
            key = (resolver.load_of_machine(machine),
                   sum(1 for s in shard_map.shards
                       if s.machine is machine))
            if best_key is None or key < best_key:
                best, best_key = machine, key
        if best is None and hot.machine.alive \
                and hot.machine in self.pool \
                and resolver.breaker_allows(hot.machine):
            return hot.machine
        return best

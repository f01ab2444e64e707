"""Directory placement: which machines serve which context object.

Section 2's model is location-free — a context object is just an
object whose state is a context.  In a *distributed computing
environment* those directories live somewhere: each machine runs a
directory server holding some of the system's context objects, and a
resolution that steps into a directory hosted elsewhere costs a
message round-trip.  (This is the operational reality behind §5's
remark that the shared-naming-graph approach "leads to more
loosely-coupled distributed systems than the single naming graph
approach".)

:class:`DirectoryPlacement` records the hosting machines of every
directory.  A directory may be placed on a single machine or on a
**replica set** — a primary plus k secondaries — so resolution can
fail over to a live replica when the primary is down (the paper's
weak-coherence reality: names keep resolving while hosts fail).
Replica-set membership changes bump the placement *epoch*; writes
that could not reach a replica mark it **stale** until anti-entropy
on restart clears the mark (see :meth:`~repro.nameservice.resolver.
DistributedResolver.handle_restart`).

Directories too hot for any single machine can instead be **sharded**
(:meth:`DirectoryPlacement.place_sharded`): their bindings split
across shard servers by consistent hashing of the binding name, with
a :class:`~repro.nameservice.sharding.ShardMap` carried under the
same epoch protocol — a shard split bumps the epoch exactly once, the
same signal a membership change sends, so every cached route dies
with the map that produced it.  Binding-aware callers route through
:meth:`~DirectoryPlacement.host_of_binding` /
:meth:`~DirectoryPlacement.replicas_for_binding`, which collapse to
the classic per-directory answer for unsharded placements.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import SchemeError
from repro.model.context import Context
from repro.model.entities import Entity, ObjectEntity
from repro.model.names import PARENT
from repro.nameservice.sharding import Shard, ShardMap, SplitPlan
from repro.sim.network import Machine

__all__ = ["DirectoryPlacement"]


class DirectoryPlacement:
    """Maps directories (context objects) to hosting machines."""

    def __init__(self) -> None:
        # uid → ordered replica machines, primary first.
        self._replicas_of: dict[int, list[Machine]] = {}
        # uid → ShardMap (mutually exclusive with a replica set).
        self._shard_maps: dict[int, ShardMap] = {}
        # (uid, id(machine)) pairs that missed a propagated write.
        self._stale: set[tuple[int, int]] = set()
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """A counter bumped on every placement/membership change.

        Cached resolution state (e.g. prefix-cache entries, which
        memoize *which server* hosts a directory) records the epoch it
        was derived under and treats entries from an older epoch as
        dead — re-placing a directory can never serve a lookup from
        the wrong server.  Stale marks do *not* bump the epoch (they
        change a replica's freshness, not the membership).
        """
        return self._epoch

    @staticmethod
    def _require_directory(directory: Entity) -> None:
        if not directory.is_context_object():
            raise SchemeError(
                f"only directories are placed on servers: {directory!r}")

    def _prune_stale(self, uid: int, keep: Iterable[Machine]) -> None:
        """Drop stale marks for machines no longer hosting *uid*.

        A stale mark is a property of a *replica's copy*; when a
        placement change drops the machine from the set, the mark must
        go with it — otherwise re-adding the machine later (via
        :meth:`place_replicated`) resurrects a mark about a copy that no
        longer exists, and failover skips a perfectly fresh replica.
        """
        kept = {id(machine) for machine in keep}
        self._stale = {(u, m) for u, m in self._stale
                       if u != uid or m in kept}

    def place(self, directory: Entity, machine: Machine) -> None:
        """Host *directory* on *machine* alone (replacing any previous
        placement, including a replica set or shard map)."""
        self._require_directory(directory)
        self._shard_maps.pop(directory.uid, None)
        self._replicas_of[directory.uid] = [machine]
        self._prune_stale(directory.uid, (machine,))
        self._epoch += 1

    def place_replicated(self, directory: Entity, primary: Machine,
                         *secondaries: Machine) -> None:
        """Host *directory* on a replica set: *primary* + secondaries.

        The primary is the write target (:meth:`~repro.nameservice.
        resolver.DistributedResolver.rebind` propagates from it);
        resolution tries replicas in order and fails over past dead or
        stale ones.  Replaces any previous placement and bumps the
        epoch; stale marks for machines leaving the set are dropped.
        """
        self._require_directory(directory)
        replicas = [primary]
        for machine in secondaries:
            if machine not in replicas:
                replicas.append(machine)
        self._shard_maps.pop(directory.uid, None)
        self._replicas_of[directory.uid] = replicas
        self._prune_stale(directory.uid, replicas)
        self._epoch += 1

    def place_subtree(self, root: ObjectEntity, machine: Machine) -> int:
        """Host *root* and every directory below it on *machine*.

        Follows every binding but the parent link; stops at
        directories already placed elsewhere (so a mounted foreign
        subtree keeps its own placement) and at sharded directories
        (their bindings have per-shard owners).  Returns
        the number of directories placed.  The epoch is bumped exactly
        **once** per call that changes any placement — re-placing a
        subtree is one membership change, not one per directory, so
        caches built mid-walk under epoch N stay valid for the final
        placement rather than dying N-at-a-time.
        """
        if not root.is_context_object():
            raise SchemeError(f"not a directory: {root!r}")
        placed = 0
        stack: list[ObjectEntity] = [root]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            if node.uid in self._shard_maps:
                continue
            existing = self._replicas_of.get(node.uid)
            if existing is not None and existing[0] is not machine:
                continue
            self._replicas_of[node.uid] = [machine]
            self._prune_stale(node.uid, (machine,))
            placed += 1
            context: Context = node.state
            for name_ in context.names():
                if name_ == PARENT:
                    continue
                child = context(name_)
                if child.is_context_object():
                    stack.append(child)  # type: ignore[arg-type]
        if placed:
            self._epoch += 1
        return placed

    # -- sharded placement ---------------------------------------------------

    def place_sharded(self, directory: Entity, *machines: Machine,
                      replicas: int = 1) -> ShardMap:
        """Split *directory*'s bindings across *machines* by consistent
        hashing of the binding name.

        With ``replicas=N`` every shard carries a replica set of N
        machines (ring neighbours of its primary), so the resolver's
        failover/stale-mark/anti-entropy machinery applies per shard —
        a crashed primary no longer takes its range dark.

        Replaces any replica-set placement (and its stale marks — a
        sharded directory's freshness is tracked per shard replica)
        and bumps the epoch once.  Returns the live :class:`ShardMap`.
        """
        self._require_directory(directory)
        shard_map = ShardMap(directory, machines,  # type: ignore[arg-type]
                             replicas=replicas)
        self._replicas_of.pop(directory.uid, None)
        self._prune_stale(directory.uid, ())
        self._shard_maps[directory.uid] = shard_map
        self._epoch += 1
        return shard_map

    def shard_map_of(self, directory: Entity) -> Optional[ShardMap]:
        return self._shard_maps.get(directory.uid)

    def shard_maps(self) -> list[ShardMap]:
        """Every live shard map, in directory-uid order (deterministic
        iteration for the split-policy scan)."""
        return [self._shard_maps[uid]
                for uid in sorted(self._shard_maps)]

    def placed_machines(self) -> Iterator[Machine]:
        """Every machine a replica set or a shard map names, in
        placement order (replica sets first; repeats included)."""
        for replicas in self._replicas_of.values():
            yield from replicas
        for shard_map in self._shard_maps.values():
            yield from shard_map.machines()

    def apply_split(self, plan: SplitPlan) -> Shard:
        """Commit a planned shard split and bump the epoch exactly
        once — the same signal a replica-membership change sends, so
        prefix-cache entries routed under the pre-split map die.

        Callers that migrate state (:func:`~repro.nameservice.writes.
        migrate_effects`) move the bindings *before* committing; an
        aborted migration never reaches this point and the epoch stays put.
        """
        for shard_map in self._shard_maps.values():
            if plan.shard in shard_map.shards:
                new = shard_map.apply_split(plan)
                self._epoch += 1
                return new
        raise SchemeError("split plan does not match a live shard map")

    # -- routing -------------------------------------------------------------

    def host_of(self, directory: Entity) -> Optional[Machine]:
        """The primary hosting machine, or None if unplaced.

        For a *sharded* directory there is no single host; this
        returns the first shard's machine as a documented
        representative (directory-level operations like answer hops
        need *a* server).  Binding routing must use
        :meth:`host_of_binding`.
        """
        replicas = self._replicas_of.get(directory.uid)
        if replicas:
            return replicas[0]
        shard_map = self._shard_maps.get(directory.uid)
        if shard_map is not None:
            return shard_map.shards[0].machine
        return None

    def replicas_of(self, directory: Entity) -> tuple[Machine, ...]:
        """All hosting machines, primary first (empty if unplaced).

        Empty for sharded directories — there is no replica set to
        fail over across; callers must route per binding.
        """
        return tuple(self._replicas_of.get(directory.uid, ()))

    def host_of_binding(self, directory: Entity,
                        component: Optional[str]) -> Optional[Machine]:
        """The machine serving *component*'s binding in *directory*.

        Sharded directory → the owning shard's machine; replica set →
        the primary; unplaced → None.  A ``None`` component (no
        binding in play, e.g. a bare enter) falls back to
        :meth:`host_of`.  A pure read: only the walk's router
        (:meth:`replicas_for_binding`) counts toward a shard's load,
        so the write path's fan-out cannot perturb the split window.
        """
        if not self._shard_maps:
            replicas = self._replicas_of.get(directory.uid)
            return replicas[0] if replicas else None
        shard = self.shard_of_binding(directory, component)
        if shard is not None:
            return shard.machine
        return self.host_of(directory)

    def replicas_for_binding(self, directory: Entity,
                             component: Optional[str]
                             ) -> tuple[Machine, ...]:
        """Candidate machines for *component*'s binding, preferred
        first.  Sharded → the owning shard's replica set (primary
        first — failover hops along it exactly as it does for a
        replicated directory); replicated → the replica set;
        unplaced → empty."""
        if not self._shard_maps:
            return tuple(self._replicas_of.get(directory.uid, ()))
        shard_map = self._shard_maps.get(directory.uid)
        if shard_map is not None:
            if component is None:
                return shard_map.shards[0].replicas
            shard = shard_map.owner_of(component)
            shard.load += 1
            return shard.replicas
        return tuple(self._replicas_of.get(directory.uid, ()))

    def serves(self, machine: Machine, directory: Entity,
               component: str) -> bool:
        """True if *machine* is a live copy of *component*'s binding:
        one of its replicas, and not marked stale — what a lookup
        server may answer from.  A pure read, like
        :meth:`shard_of_binding`: a walk-on step is not a routing hit."""
        shard = self.shard_of_binding(directory, component)
        replicas = (shard.replicas if shard is not None
                    else self._replicas_of.get(directory.uid, ()))
        return machine in replicas and not self.is_stale(directory,
                                                         machine)

    def shard_of_binding(self, directory: Entity,
                         component: Optional[str]):
        """The shard owning *component*'s binding — a **pure read**.

        Unlike :meth:`replicas_for_binding` this never bumps the
        shard's window load counter, so observers (the coherence
        auditor labels staleness samples per shard through here) and
        the write path cannot perturb the split policy's decisions.
        Returns ``None`` for unsharded directories or a ``None``
        component.
        """
        if component is None:
            return None
        shard_map = self._shard_maps.get(directory.uid)
        if shard_map is None:
            return None
        return shard_map.owner_of(component)

    def note_binding(self, directory: Entity, component: str) -> None:
        """Track a binding created in a sharded directory after its
        map was built (the rebind write discipline calls this)."""
        shard_map = self._shard_maps.get(directory.uid)
        if shard_map is not None:
            shard_map.add_member(component)

    def forget_binding(self, directory: Entity, component: str) -> None:
        """Stop tracking a binding removed from a sharded directory."""
        shard_map = self._shard_maps.get(directory.uid)
        if shard_map is not None:
            shard_map.remove_member(component)

    def note_binding_load(self, directory: Entity,
                          component: Optional[str]) -> None:
        """Record one routing hit against *component*'s owning shard
        without re-resolving the host.

        No caller since the batch route memo went; ``benchmarks/e2e``'s
        shim table names it and :meth:`ShardMap.note_load`, so both
        stay until a ``[benchmark]`` issue re-points the table.
        """
        shard_map = self._shard_maps.get(directory.uid)
        if shard_map is not None and component is not None:
            shard_map.note_load(component)

    # -- stale marks (anti-entropy bookkeeping) ------------------------------

    def mark_stale(self, directory: Entity, machine: Machine) -> None:
        """Record that *machine*'s copy of *directory* missed a write.

        A stale replica is skipped by failover resolution (it could
        answer with pre-write state) until anti-entropy on restart
        clears the mark.  *machine* may be a member of the directory's
        replica set or of any of its shards' replica sets (a sharded
        directory's freshness is tracked per shard replica under the
        same marks).  Raises otherwise.
        """
        if machine not in self._replicas_of.get(directory.uid, []):
            shard_map = self._shard_maps.get(directory.uid)
            if shard_map is None or not any(
                    machine in shard.replicas
                    for shard in shard_map.shards):
                raise SchemeError(
                    f"{machine.label} does not host {directory.label!r}")
        self._stale.add((directory.uid, id(machine)))

    def is_stale(self, directory: Entity, machine: Machine) -> bool:
        """True if *machine*'s copy of *directory* missed a write."""
        return (directory.uid, id(machine)) in self._stale

    def stale_uids_of(self, machine: Machine) -> list[int]:
        """Uids of directories whose copy on *machine* is stale."""
        mid = id(machine)
        return sorted(uid for uid, m in self._stale if m == mid)

    def clear_stale(self, directory_uid: int, machine: Machine) -> bool:
        """Drop one stale mark (anti-entropy synced that directory)."""
        key = (directory_uid, id(machine))
        if key in self._stale:
            self._stale.discard(key)
            return True
        return False

    def sync_source_for(self, directory_uid: int,
                        machine: Machine) -> Optional[Machine]:
        """The machine anti-entropy should copy *directory_uid*'s
        fresh state from, to resync a stale copy on *machine*.

        Replicated directory → the primary (historical behaviour; may
        be *machine* itself, in which case the caller clears the mark
        for free).  Sharded directory → the first live, non-stale
        fellow replica of a shard that has *machine* in its set —
        there is no global primary, but any fresh shard replica holds
        the range's state.  None if nothing can serve the sync (the
        mark must stay).
        """
        replicas = self._replicas_of.get(directory_uid)
        if replicas:
            return replicas[0]
        shard_map = self._shard_maps.get(directory_uid)
        if shard_map is None:
            return None
        for shard in shard_map.shards:
            if machine not in shard.replicas:
                continue
            for candidate in shard.replicas:
                if candidate is machine or not candidate.alive:
                    continue
                if (directory_uid, id(candidate)) in self._stale:
                    continue
                return candidate
        return None

    def stale_count(self) -> int:
        """Total stale (directory, replica) marks outstanding."""
        return len(self._stale)

    def __repr__(self) -> str:
        return (f"<DirectoryPlacement {len(self._replicas_of)} directories, "
                f"{len(self._shard_maps)} sharded, "
                f"{len(self._stale)} stale marks>")

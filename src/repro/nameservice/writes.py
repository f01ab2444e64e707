"""Every change a deployment makes to its replicas, as effects.

A name stays coherent only if every copy of its directory sees every
binding change.  Each operation that moves directory state between
replicas is written here once, as a sans-IO generator in the shape of
:func:`~repro.nameservice.walk.walk_effects` that yields message legs
(:class:`Leg`) and backoffs (:class:`~repro.nameservice.leases.Wait`)
for a driver to perform: a rebind (:func:`write_effects`, where the
TTL / INVALIDATE / LEASE contracts are kept), a shard split
(:func:`migrate_effects`, reading ``placement`` and
``migration_batch`` from its host) and a restart's anti-entropy
(:func:`sync_effects`, reading ``placement``).  All three run on the
kernel under :class:`~repro.nameservice.resolver.DistributedResolver`,
their host and the one kernel driver of every effect generator; the
rebind runs on a socket under :class:`~repro.transport.service.
NamingService`.

A rebind's *host* is its driver; the write reads from it the names of
:data:`HOST_PROTOCOL` and nothing else (a tier-1 test holds it to
that):

* the regime: ``cache_policy`` (the :class:`~repro.nameservice.cache.
  CachePolicy` copies are kept under), ``retry_policy`` (callback
  attempts per lease holder and the backoff between them; ``None`` =
  one attempt) and ``leases`` (the ``LEASE`` policy's
  :class:`~repro.nameservice.leases.LeaseManager`);
* the deployment: ``placement`` (``None`` for one server that holds
  every directory and no copies of its own), ``holders`` (the
  ``INVALIDATE`` registry: binding → holder ids) and
  ``holder_node(holder)``;
* ``call_back(holder, dep)`` — *holder* drops its copies through
  *dep*, and its lease on it;
* the commit's ``auditor`` and ``epoch``;
* ``now()``, ``rng`` and ``obs``.

A host without a placement is only ever asked for the ``LEASE``
names: behind one server every holder is remote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, NamedTuple, Optional, Union

from repro.model.entities import Entity, ObjectEntity
from repro.nameservice.cache import CachePolicy, binding_dep
from repro.nameservice.leases import Wait
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.sharding import SplitPlan
from repro.sim.network import Machine

__all__ = ["FANOUT", "HOST_PROTOCOL", "Leg", "WriteReport",
           "commit_binding", "write_effects", "migrate_effects",
           "sync_effects"]

#: Every attribute :func:`write_effects` reads from its host (see the
#: module docstring).  Widening the protocol means adding a name here.
HOST_PROTOCOL = ("cache_policy", "retry_policy", "leases", "placement",
                 "holders", "holder_node", "call_back", "auditor", "epoch",
                 "now", "rng", "obs")


def commit_binding(directory: ObjectEntity, name_: str, entity: Entity, *,
                   now: float, epoch: int, auditor=None,
                   placement: Optional[DirectoryPlacement] = None) -> None:
    """Change ``σ(directory)(name_)`` and record that it changed.

    With a *placement*, a name new to a sharded directory is noted
    against its owning shard so a later split migrates it, and an
    unbound one is forgotten.  With an *auditor*, the write enters the
    authoritative history — commit time plus placement epoch, captured
    the instant σ changed.
    """
    context = directory.state
    old = context(name_) if auditor is not None else None
    was_bound = name_ in context
    context.bind(name_, entity)
    if placement is not None and was_bound != (name_ in context):
        (placement.forget_binding if was_bound
         else placement.note_binding)(directory, name_)
    if auditor is not None:
        auditor.record_write(directory, name_, old, entity, now, epoch)


class Leg(NamedTuple):
    """Effect: messages of one change, leaving *origin*.

    * ``"replicate"`` — *to* is a secondary replica; the driver
      resumes with whether the write reached it;
    * ``"invalidate"`` — *to* is the batch of holder ids, sent at once
      and settled together; resumed with one drop reason per holder
      (``None``: delivered);
    * ``"break"`` — *to* is a :class:`~repro.nameservice.leases.
      Lease`, *attempt* the callback's attempt number; resumed with
      whether the holder got the callback;
    * ``"migrate"`` / ``"sync"`` — one batch of a split's bindings / one
      anti-entropy copy, sent to *to*; resumed with whether it landed.
    """

    op: str
    origin: Any
    to: Any
    attempt: int = 1


#: The first effect of a write that fans out: the commit is done and
#: messages follow.  A driver that traces writes opens its span here.
FANOUT = Leg("fanout", None, None)


@dataclass
class WriteReport:
    """What one write's fan-out accomplished."""

    replicated: int = 0     #: secondaries the write reached
    stale_marked: int = 0   #: replicas that missed it, marked stale
    lost: int = 0           #: INVALIDATE: holders left uninvalidated
    notified: int = 0       #: LEASE: callbacks delivered
    broken: int = 0         #: LEASE: leases broken, callback undeliverable
    attempts: int = 0       #: LEASE: callback attempts, retries included
    skipped: int = 0        #: LEASE: holders skipped by an open breaker


Effects = Generator[Union[Leg, Wait], Any, WriteReport]


def write_effects(host: Any, directory: ObjectEntity, name_: str,
                  entity: Entity) -> Effects:
    """Change ``σ(directory)(name_)`` under the write discipline.

    After the commit, two fan-outs follow:

    * **Replication** — the write goes from the primary to every
      secondary replica, one leg each; a secondary it cannot reach
      (dead primary, dropped message) is marked **stale** in the
      placement so failover skips it until anti-entropy on restart.
    * **Invalidation** (``INVALIDATE``) — one batched leg drops the
      copies of every holder *whose message arrived*; a holder it
      misses stays registered, so the next rebind retries it.  Under
      ``LEASE`` the fan-out is a *callback break*: up to
      ``retry_policy.max_attempts`` legs per holder with a backoff
      between them, stopped early by the holder's circuit breaker,
      and an undeliverable callback *breaks* the lease so the stale
      copy expires by term.  Under TTL, stale copies live out their
      window; under NONE there is nothing to keep coherent.

    A crashed owning host raises nothing: no message can leave it, so
    every remote holder counts as a loss (or a broken lease).  A write
    with nothing to fan out yields nothing; one that fans out yields
    :data:`FANOUT` first.  Returns the :class:`WriteReport`.
    """
    placement = host.placement
    commit_binding(directory, name_, entity, now=host.now(),
                   epoch=host.epoch, auditor=host.auditor,
                   placement=placement)
    report = WriteReport()
    # Sharded directory: the write fans out across the owning *shard's*
    # replica set (a pure shard read — a write must not perturb the
    # split policy's load window).  Unsharded: the directory's.
    replicas: tuple = ()
    forced_stale: tuple = ()
    if placement is not None:
        replicas = placement.replicas_of(directory)
        shard = (placement.shard_of_binding(directory, name_)
                 if not replicas else None)
        if shard is not None:
            # A shard has no global primary: any live replica can
            # originate the propagation, and every dead replica missed
            # the write — including a dead ``replicas[0]`` and the sole
            # copy of a degree-1 shard (which then has no sync source:
            # the range stays dark until the operator re-places it).
            forced_stale = tuple(m for m in shard.replicas if not m.alive)
            replicas = tuple(m for m in shard.replicas if m.alive)
    policy = host.cache_policy
    if policy not in (CachePolicy.INVALIDATE, CachePolicy.LEASE) \
            and len(replicas) < 2 and not forced_stale:
        return report
    yield FANOUT
    obs = host.obs
    for machine in forced_stale:
        placement.mark_stale(directory, machine)
    report.stale_marked = len(forced_stale)
    for machine in replicas[1:]:
        if (yield Leg("replicate", replicas[0], machine)):
            report.replicated += 1
        else:
            placement.mark_stale(directory, machine)
            report.stale_marked += 1
    if obs.enabled:
        if report.replicated:
            obs.metrics.counter("resolver_replication_messages_total",
                                ).inc(report.replicated)
        if report.stale_marked:
            obs.metrics.counter("resolver_replica_stale_marked_total",
                                ).inc(report.stale_marked)
            if obs.tracer.admit():
                obs.tracer.event(
                    "failover", "replica.marked-stale", host.now(),
                    attrs={"directory": directory.label,
                           "count": report.stale_marked})

    dep = binding_dep(directory, name_)
    # Per-binding routing: coherence traffic leaves the server owning
    # the changed binding (a sharded directory's shard machine, not a
    # directory-wide primary).  A holder there, or any holder of an
    # unplaced binding, is called back in place.
    origin = (placement.host_of_binding(directory, name_)
              if placement is not None else None)

    def local(holder: int) -> bool:
        return placement is not None and (
            origin is None or host.holder_node(holder) is origin)

    if policy is CachePolicy.INVALIDATE:
        def lost(holder: int, reason: str) -> None:
            report.lost += 1
            host.holders.setdefault(dep, {})[holder] = None
            if obs.enabled:
                obs.metrics.counter(
                    "resolver_invalidation_losses_total").inc()
                if obs.tracer.admit():
                    obs.tracer.event(
                        "cache", "invalidation.lost", host.now(),
                        attrs={"machine": host.holder_node(holder).label,
                               "reason": reason})

        batch = []
        for holder in host.holders.pop(dep, {}):
            if local(holder):
                host.call_back(holder, dep)
            elif not origin.alive:
                lost(holder, f"host {origin.label} down")
            else:
                batch.append(holder)
        if batch:
            reasons = yield Leg("invalidate", origin, batch)
            for holder, reason in zip(batch, reasons):
                if reason is None:
                    host.call_back(holder, dep)
                else:
                    lost(holder, reason)
    elif policy is CachePolicy.LEASE:
        leases = host.leases
        retry = host.retry_policy
        attempts = 1 if retry is None else retry.max_attempts
        for lease in leases.holders_of(dep, host.now()):
            holder = lease.machine_id
            breaker = leases.breaker_for(lease)
            called_back = False
            if not breaker.allow(host.now()):
                report.skipped += 1
            else:
                for attempt in range(1, attempts + 1):
                    report.attempts += 1
                    if local(holder):
                        # Released exactly as a delivered ack releases it.
                        host.call_back(holder, dep)
                        leases.record_ack(holder, dep, host.now())
                        called_back = True
                    elif origin is None or origin.alive:
                        called_back = yield Leg("break", origin, lease,
                                                attempt)
                    now = host.now()
                    if called_back:
                        breaker.record_success(now)
                        break
                    # The breaker is asked before the backoff, as the
                    # walk's retry asks it: a tripped one costs no wait.
                    breaker.record_failure(now)
                    if attempt == attempts or not breaker.allow(now):
                        break
                    yield Wait(retry.backoff(attempt, host.rng))
            if called_back:
                report.notified += 1
            else:
                report.broken += 1
                leases.break_lease(lease, host.now())
    return report


def migrate_effects(host: Any, plan: SplitPlan) -> Generator[Leg, bool, bool]:
    """Split a shard by *plan*, **commit-last**: ⌈moved /
    ``host.migration_batch``⌉ batches (minimum one: an empty range
    still hands off ownership) go to ``plan.machine``, and only when
    all land does :meth:`~repro.nameservice.placement.
    DirectoryPlacement.apply_split` commit the map and bump the epoch,
    once.  A lost batch aborts with the old map and epoch intact, so
    no route points at a half-migrated shard and every binding keeps
    exactly one live owner range.  The new shard's secondaries
    (``plan.targets[1:]``) are the source's replicas, which already
    hold the bindings.  Returns True if the split committed.
    """
    batches = max(1, -(-len(plan.moved) // host.migration_batch))
    for _index in range(batches):
        if not (yield Leg("migrate", plan.shard.machine, plan.machine)):
            return False
    host.placement.apply_split(plan)
    return True


def sync_effects(host: Any, machine: Machine,
                 stale: list) -> Generator[Leg, bool, int]:
    """Anti-entropy for *machine*: sync each directory uid in *stale*
    from :meth:`~repro.nameservice.placement.DirectoryPlacement.
    sync_source_for`, one leg each.  A source that is *machine* itself
    clears the mark for free; a lost leg, or no source, leaves it for
    a later restart.  Returns the number of marks cleared.
    """
    placement = host.placement
    cleared = 0
    for uid in stale:
        source = placement.sync_source_for(uid, machine)
        if source is None:
            continue  # no live fresh source — stays stale
        if source is not machine \
                and not (yield Leg("sync", source, machine)):
            continue  # unreachable source — stays stale
        if placement.clear_stale(uid, machine):
            cleared += 1
    return cleared

"""The write path: commit → replicate → invalidate / lease-break.

In the paper's model a cached or replicated binding that missed a
rebind *is* incoherence, so this module is the one place the TTL /
INVALIDATE / LEASE contracts are kept.  :func:`write_effects` is that
discipline, written once as a sans-IO generator in the shape of
:func:`~repro.nameservice.walk.walk_effects`: it commits
(:func:`commit_binding`), decides who must hear of the write and what
a lost message costs, and yields the message legs (:class:`Leg`) and
backoffs (:class:`~repro.nameservice.leases.Wait`) for a driver to
perform.  Two drivers run it: :class:`WritePath` pumps the simulator
kernel for :class:`~repro.nameservice.resolver.DistributedResolver`,
and :class:`~repro.transport.service.NamingService` sends frames and
awaits acks on a real socket.

The *host* argument is the driver; the write reads these names from
it and nothing else:

* the regime: ``policy`` (the :class:`~repro.nameservice.cache.
  CachePolicy` copies are kept under), ``retry_policy`` (callback
  attempts per lease holder and the backoff between them; ``None`` =
  one attempt) and ``leases`` (the ``LEASE`` policy's
  :class:`~repro.nameservice.leases.LeaseManager`);
* the deployment: ``placement`` (``None`` for one server that holds
  every directory and no copies of its own), ``holders`` (the
  ``INVALIDATE`` registry: binding → holder ids) and
  ``node_of(holder)``;
* ``call_back(holder, dep)`` — *holder* drops its copies through
  *dep*, and its lease on it;
* the commit's ``auditor`` and ``epoch``;
* ``now()``, ``rng`` and ``obs``.

A host without a placement is only ever asked for the ``LEASE``
names: behind one server every holder is remote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Generator, NamedTuple, Optional,
                    Union)

from repro.model.entities import Entity, ObjectEntity
from repro.nameservice.cache import CachePolicy, DepKey, binding_dep
from repro.nameservice.leases import LeaseManager, LeaseTable, Wait
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.retry import RetryPolicy
from repro.sim.kernel import Simulator
from repro.sim.network import Machine
from repro.sim.process import SimProcess

__all__ = ["FANOUT", "Leg", "WriteReport", "commit_binding",
           "write_effects", "WritePath"]


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
    """Effect: messages of one write, leaving *origin*.

    * ``"replicate"`` — *to* is a secondary replica; the driver
      resumes with whether the write reached it;
    * ``"invalidate"`` — *to* is the batch of holder ids, sent at once
      and settled together; resumed with one drop reason per holder
      (``None``: delivered);
    * ``"break"`` — *to* is a :class:`~repro.nameservice.leases.
      Lease`, *attempt* the callback's attempt number; resumed with
      whether the holder got the callback.
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
    policy = host.policy
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
            origin is None or host.node_of(holder) is origin)

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
                        attrs={"machine": host.node_of(holder).label,
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


class WritePath:
    """The kernel driver of :func:`write_effects`, and its host.

    Args:
        simulator: The kernel carrying replication and coherence
            traffic.
        placement: Directory → machine placement (replicated and
            sharded directories included).
        policy: The coherence policy copies are kept under.
        retry_policy: Break-callback retry discipline (``LEASE``).
        lease_term: Term of ``LEASE`` grants, in virtual time.
        breaker_threshold / breaker_cooldown: Tuning of the per-holder
            callback circuit breakers.
        speaker: ``machine → process`` speaking for a machine on the
            write path — its live process while the machine is up
            (spawned on demand), its last process or ``None`` while it
            is down.  A holder always has one: it read through it.
        drop_copies: ``(machine id, dep) → count`` — drop the copies a
            holder keeps through one binding; returns how many cached
            prefixes went with it.
    """

    def __init__(self, simulator: Simulator,
                 placement: DirectoryPlacement, policy: CachePolicy, *,
                 retry_policy: Optional[RetryPolicy],
                 lease_term: float,
                 speaker: Callable[[Machine], Optional[SimProcess]],
                 drop_copies: Callable[[int, DepKey], int],
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0):
        self._sim = simulator
        self.placement = placement
        self.obs = simulator.obs
        self.rng = simulator.rng
        self.policy = policy
        self.retry_policy = retry_policy
        self._speaker = speaker
        self._drop_copies = drop_copies
        #: LEASE: the one server-side manager of the deployment.
        self.leases: Optional[LeaseManager] = None
        if policy is CachePolicy.LEASE:
            self.leases = LeaseManager(
                term=lease_term, breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown, obs=self.obs)
        #: LEASE: one client-side table per holder machine.
        self.lease_tables: dict[int, LeaseTable] = {}
        # Holder machines by id (leases and the registry key on ids).
        self._machines: dict[int, Machine] = {}
        #: INVALIDATE registry: binding → machines holding a copy
        #: (insertion-ordered so fan-outs are deterministic per seed).
        #: Under LEASE the manager's holder index plays this part.
        self.holders: dict[DepKey, dict[int, None]] = {}
        self.replication_messages = 0
        self.invalidation_messages = 0
        self.invalidation_losses = 0
        if self.obs.enabled:
            self._m_invalidation_msgs = self.obs.metrics.counter(
                "resolver_invalidation_messages_total")

    # -- host ----------------------------------------------------------------

    def now(self) -> float:
        return self._sim.clock.now

    @property
    def auditor(self):
        return self.obs.auditor

    @property
    def epoch(self) -> int:
        return self.placement.epoch

    def node_of(self, holder: int) -> Machine:
        return self._machines[holder]

    def call_back(self, holder: int, dep: DepKey) -> None:
        """*holder* drops its copies through *dep* and its lease on it
        (the simulated holder's half of a delivered callback)."""
        table = self.lease_tables.get(holder)
        if table is not None:
            table.revoke(dep, self._sim.clock.now)
        dropped = self._drop_copies(holder, dep)
        obs = self.obs
        if dropped and obs.enabled and obs.tracer.admit():
            obs.tracer.event(
                "cache", "prefix.invalidated", self._sim.clock.now,
                attrs={"machine": self._machines[holder].label,
                       "count": dropped})

    # -- holders -----------------------------------------------------------

    def lease_table_of(self, machine: Machine) -> LeaseTable:
        """The (lazily created) client-side lease table of a machine."""
        table = self.lease_tables.get(id(machine))
        if table is None:
            table = LeaseTable(machine.label, obs=self.obs)
            self.lease_tables[id(machine)] = table
            self._machines[id(machine)] = machine
        return table

    def note_copies(self, machine: Machine, deps: tuple) -> None:
        """Record that *machine* just cached copies depending on *deps*.

        ``INVALIDATE`` registers it as a holder of each; ``LEASE``
        grants it a lease on each (grants piggyback on the read that
        filled the cache, so no grant messages are modelled and
        renewals are re-reads).
        """
        if self.policy is CachePolicy.INVALIDATE:
            self._machines[id(machine)] = machine
            for dep in deps:
                self.holders.setdefault(dep, {})[id(machine)] = None
        elif self.policy is CachePolicy.LEASE:
            now = self._sim.clock.now
            epoch = self.placement.epoch
            table = self.lease_table_of(machine)
            for dep in deps:
                self.leases.grant(id(machine), dep, now, epoch,
                                  machine_label=machine.label)
                table.grant(dep, now, self.leases.term, epoch)

    # -- the write ---------------------------------------------------------

    def rebind(self, directory: ObjectEntity, name_: str,
               entity: Entity) -> int:
        """Run :func:`write_effects` on the kernel, traced under one
        ``rebind`` span: each leg is messages pumped to settlement, a
        wait is virtual time passing.  Returns the number of
        invalidation / callback / ack messages sent."""
        sim = self._sim
        obs = self.obs
        sent_before = self.invalidation_messages
        steps = write_effects(self, directory, name_, entity)
        span = None
        outcome: Any = None
        try:
            while True:
                leg = steps.send(outcome)
                outcome = None
                if type(leg) is Wait:
                    sim.run(until=sim.clock.now + leg.delay)
                elif leg.op == "fanout":
                    if obs.enabled:
                        span = obs.tracer.begin(
                            "rebind", f"{directory.label}/{name_}",
                            sim.clock.now, parent=None,
                            attrs={"directory": directory.label,
                                   "component": name_})
                elif leg.op == "replicate":
                    # A dead primary propagates nothing; a downed
                    # secondary that never ran a process has nothing to
                    # deliver to.  Either way this replica missed it.
                    primary = self._speaker(leg.origin)
                    receiver = (self._speaker(leg.to) if primary is not None
                                and primary.alive else None)
                    outcome = False
                    if receiver is not None:
                        message = self._send(primary, receiver,
                                             {"ns": "replicate"}, span)
                        sim.run_until_settled(message)
                        self.replication_messages += 1
                        outcome = not message.dropped
                elif leg.op == "invalidate":
                    sender = self._speaker(leg.origin)
                    batch = [self._send(sender,
                                        self._speaker(self._machines[h]),
                                        {"ns": "invalidate"}, span)
                             for h in leg.to]
                    self.invalidation_messages += len(batch)
                    sim.run_until_settled(batch)
                    outcome = [m.drop_reason if m.dropped else None
                               for m in batch]
                else:
                    outcome = self._break(leg, span)
        except StopIteration as done:
            report: WriteReport = done.value
        self.invalidation_losses += report.lost + report.broken
        sent = self.invalidation_messages - sent_before
        if span is not None:
            if report.broken:
                obs.metrics.counter(
                    "resolver_invalidation_losses_total").inc(report.broken)
            self._m_invalidation_msgs.inc(sent)
            if not span.muted:
                span.attrs["messages"] = sent
                span.attrs["replicated"] = report.replicated
                span.attrs["stale_marked"] = report.stale_marked
            obs.tracer.end(span, sim.clock.now)
        return sent

    def _break(self, leg: Leg, span) -> bool:
        """One break callback: delivered, the holder revokes its lease,
        drops its copies and acks; an ack that arrives releases the
        lease server-side."""
        sim = self._sim
        obs = self.obs
        lease = leg.to
        machine = self._machines[lease.machine_id]
        sender = self._speaker(leg.origin)
        receiver = self._speaker(machine)
        message = self._send(sender, receiver,
                             {"lease": {"op": "break", "dep": lease.dep}},
                             span)
        self.invalidation_messages += 1
        sim.run_until_settled(message)
        delivered = not message.dropped
        if obs.enabled:
            if obs.tracer.admit():
                obs.tracer.event(
                    "lease", "lease.callback", sim.clock.now,
                    attrs={"machine": machine.label,
                           "dep": repr(lease.dep),
                           "attempt": leg.attempt,
                           "delivered": delivered})
            obs.metrics.counter(
                "lease_callbacks_total",
                {"delivered": str(delivered).lower()}).inc()
        if delivered:
            self.call_back(lease.machine_id, lease.dep)
            ack = self._send(receiver, sender,
                             {"lease": {"op": "ack", "dep": lease.dep}},
                             span)
            self.invalidation_messages += 1
            sim.run_until_settled(ack)
            if not ack.dropped:
                self.leases.record_ack(lease.machine_id, lease.dep,
                                       sim.clock.now)
        return delivered

    def _send(self, sender: SimProcess, receiver: SimProcess,
              payload: dict, span):
        message = sender.send(receiver, payload=payload)
        if span is not None:
            message.trace_id = span.trace_id
            if not span.muted:
                message.parent_span_id = span.span_id
        return message

"""The write path: commit → replicate → invalidate / lease-break.

In the paper's model a cached or replicated binding that missed a
rebind *is* incoherence, so this module is the one place the TTL /
INVALIDATE / LEASE contracts are kept.  :func:`commit_binding` is the
commit step every substrate shares (the socket server's fan-out runs
over real frames); :class:`WritePath` is the whole discipline on the
simulator, which :class:`~repro.nameservice.resolver.
DistributedResolver` delegates to.  What depends on the caller comes
in as two callables — which process speaks for a machine, and how a
holder's copies are dropped — so a socket speaker can drive the same
discipline.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.model.entities import Entity, ObjectEntity
from repro.nameservice.cache import CachePolicy, DepKey, binding_dep
from repro.nameservice.leases import (Lease, LeaseManager, LeaseTable,
                                      callback_fanout)
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.retry import RetryPolicy
from repro.sim.kernel import Simulator
from repro.sim.network import Machine
from repro.sim.process import SimProcess

__all__ = ["commit_binding", "WritePath"]


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


class WritePath:
    """The write discipline over placed directories, on the simulator.

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
        drop_copies: ``(machine id, directory, name) → count`` — drop
            the copies a holder keeps of one binding; returns how many
            cached prefixes went with it.
    """

    def __init__(self, simulator: Simulator,
                 placement: DirectoryPlacement, policy: CachePolicy, *,
                 retry_policy: Optional[RetryPolicy],
                 lease_term: float,
                 speaker: Callable[[Machine], Optional[SimProcess]],
                 drop_copies: Callable[[int, ObjectEntity, str], int],
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0):
        self._sim = simulator
        self._placement = placement
        self._obs = simulator.obs
        self.policy = policy
        self.retry_policy = retry_policy
        self._speaker = speaker
        self._drop_copies = drop_copies
        #: LEASE: the one server-side manager of the deployment.
        self.leases: Optional[LeaseManager] = None
        if policy is CachePolicy.LEASE:
            self.leases = LeaseManager(
                term=lease_term, breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown, obs=self._obs)
        #: LEASE: one client-side table per holder machine.
        self.lease_tables: dict[int, LeaseTable] = {}
        # Holder machines by id (leases and the registry key on ids).
        self._machines: dict[int, Machine] = {}
        # INVALIDATE registry: binding → machines holding a copy
        # (insertion-ordered so fan-outs are deterministic per seed).
        # Under LEASE the manager's holder index plays this part.
        self._holders: dict[DepKey, dict[int, None]] = {}
        self.replication_messages = 0
        self.invalidation_messages = 0
        self.invalidation_losses = 0
        if self._obs.enabled:
            self._m_invalidation_msgs = self._obs.metrics.counter(
                "resolver_invalidation_messages_total")

    # -- holders -----------------------------------------------------------

    def lease_table_of(self, machine: Machine) -> LeaseTable:
        """The (lazily created) client-side lease table of a machine."""
        table = self.lease_tables.get(id(machine))
        if table is None:
            table = LeaseTable(machine.label, obs=self._obs)
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
                self._holders.setdefault(dep, {})[id(machine)] = None
        elif self.policy is CachePolicy.LEASE:
            now = self._sim.clock.now
            epoch = self._placement.epoch
            table = self.lease_table_of(machine)
            for dep in deps:
                self.leases.grant(id(machine), dep, now, epoch,
                                  machine_label=machine.label)
                table.grant(dep, now, self.leases.term, epoch)

    # -- the write ---------------------------------------------------------

    def rebind(self, directory: ObjectEntity, name_: str,
               entity: Entity) -> int:
        """Change ``σ(directory)(name_)`` under the write discipline.

        Two fan-outs follow the commit, both traced under one
        ``rebind`` span:

        * **Replication** — the write is propagated from the primary
          to every secondary replica (one message each); a secondary
          the propagation cannot reach (dead primary, dropped message)
          is marked **stale** in the placement so failover skips it
          until anti-entropy on restart.
        * **Invalidation** (``INVALIDATE``) — one batched fan-out
          drops the copies of every holder *whose message arrived*;
          a lost message leaves that holder stale for an unbounded
          time.  Under ``LEASE`` the fan-out is a *callback break*:
          retried per holder, acked on delivery, escalated to a lease
          break when undeliverable, so the stale copy expires by the
          lease term.  Under TTL, stale copies live out their window;
          under NONE there is nothing to keep coherent.

        A crashed owning host raises nothing: no message can leave it,
        so every remote holder counts as a loss (or a broken lease).

        Returns the number of invalidation/callback messages sent.
        """
        placement = self._placement
        obs = self._obs
        commit_binding(directory, name_, entity, now=self._sim.clock.now,
                       epoch=placement.epoch, auditor=obs.auditor,
                       placement=placement)
        # Sharded directory: the write fans out across the owning
        # *shard's* replica set (pure shard read — a write must not
        # perturb the split policy's load window).  Unsharded: the
        # directory's replica set.
        replicas = placement.replicas_of(directory)
        forced_stale: tuple = ()
        if not replicas:
            shard = placement.shard_of_binding(directory, name_)
            if shard is not None:
                # A shard has no global primary: any live replica can
                # originate the propagation, and every dead replica
                # missed the write — including a dead ``replicas[0]``
                # and the sole copy of a degree-1 shard (which then
                # has no sync source: the range stays dark until the
                # operator re-places it).
                forced_stale = tuple(m for m in shard.replicas
                                     if not m.alive)
                replicas = tuple(m for m in shard.replicas if m.alive)
        coherent = self.policy in (CachePolicy.INVALIDATE,
                                   CachePolicy.LEASE)
        if not coherent and len(replicas) < 2 and not forced_stale:
            return 0
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "rebind", f"{directory.label}/{name_}",
                self._sim.clock.now, parent=None,
                attrs={"directory": directory.label,
                       "component": name_})
        replicated, stale_marked = self._replicate(
            directory, replicas, forced_stale, span)
        sent = 0
        if self.policy is CachePolicy.INVALIDATE:
            sent = self._invalidate(directory, name_, span)
        elif self.policy is CachePolicy.LEASE:
            sent = self._break_leases(directory, name_, span)
        if span is not None:
            self._m_invalidation_msgs.inc(sent)
            if not span.muted:
                span.attrs["messages"] = sent
                span.attrs["replicated"] = replicated
                span.attrs["stale_marked"] = stale_marked
            obs.tracer.end(span, self._sim.clock.now)
        return sent

    def _send(self, sender: SimProcess, receiver: SimProcess,
              payload: dict, span):
        message = sender.send(receiver, payload=payload)
        if span is not None:
            message.trace_id = span.trace_id
            if not span.muted:
                message.parent_span_id = span.span_id
        return message

    def _replicate(self, directory: ObjectEntity, replicas: tuple,
                   forced_stale: tuple, span) -> tuple[int, int]:
        """Propagate a committed write from ``replicas[0]`` to the
        rest; returns ``(replicated, stale-marked)`` counts."""
        obs = self._obs
        replicated = 0
        for machine in forced_stale:
            self._placement.mark_stale(directory, machine)
        stale_marked = len(forced_stale)
        if len(replicas) > 1:
            primary = self._speaker(replicas[0])
            for machine in replicas[1:]:
                # A dead primary propagates nothing; a downed
                # secondary that never ran a process has nothing to
                # deliver to.  Either way this replica missed it.
                receiver = None
                if primary is not None and primary.alive:
                    receiver = self._speaker(machine)
                if receiver is not None:
                    message = self._send(primary, receiver,
                                         {"ns": "replicate"}, span)
                    self._sim.run_until_settled(message)
                    self.replication_messages += 1
                    if not message.dropped:
                        replicated += 1
                        continue
                self._placement.mark_stale(directory, machine)
                stale_marked += 1
        if obs.enabled:
            if replicated:
                obs.metrics.counter(
                    "resolver_replication_messages_total",
                ).inc(replicated)
            if stale_marked:
                obs.metrics.counter(
                    "resolver_replica_stale_marked_total",
                ).inc(stale_marked)
                if obs.tracer.admit():
                    obs.tracer.event(
                        "failover", "replica.marked-stale",
                        self._sim.clock.now,
                        attrs={"directory": directory.label,
                               "count": stale_marked})
        return replicated, stale_marked

    def _drop(self, machine_id: int, directory: ObjectEntity,
              name_: str, span) -> None:
        dropped = self._drop_copies(machine_id, directory, name_)
        if span is not None and dropped and self._obs.tracer.admit():
            self._obs.tracer.event(
                "cache", "prefix.invalidated", self._sim.clock.now,
                attrs={"machine": self._machines[machine_id].label,
                       "count": dropped})

    def _invalidate(self, directory: ObjectEntity, name_: str,
                    span) -> int:
        """INVALIDATE fan-out: one batch, one bounded drain.  An
        undeliverable message is counted in :attr:`invalidation_losses`
        and the holder stays registered so a later rebind retries."""
        obs = self._obs
        dep = binding_dep(directory, name_)
        holders = self._holders.pop(dep, {})
        # Per-binding routing: the invalidation originates at the
        # server that owns the changed binding (for a sharded
        # directory, its shard's machine — not some directory-wide
        # primary).
        host = self._placement.host_of_binding(directory, name_)

        def lost(machine_id: int, reason: str) -> None:
            self.invalidation_losses += 1
            self._holders.setdefault(dep, {})[machine_id] = None
            if obs.enabled:
                obs.metrics.counter(
                    "resolver_invalidation_losses_total").inc()
                if obs.tracer.admit():
                    obs.tracer.event(
                        "cache", "invalidation.lost", self._sim.clock.now,
                        attrs={"machine": self._machines[machine_id].label,
                               "reason": reason})

        fanout: list[tuple[int, object]] = []
        for machine_id in holders:
            machine = self._machines[machine_id]
            if host is None or machine is host:
                # Local holder: no message needed, drop directly.
                self._drop(machine_id, directory, name_, span)
                continue
            sender = self._speaker(host)
            if sender is None or not sender.alive:
                # No message can leave a crashed host.
                lost(machine_id, f"host {host.label} down")
                continue
            fanout.append((machine_id, self._send(
                sender, self._speaker(machine),
                {"ns": "invalidate"}, span)))
        self.invalidation_messages += len(fanout)
        if fanout:
            self._sim.run_until_settled([m for _mid, m in fanout])
        for machine_id, message in fanout:
            if message.dropped:
                lost(machine_id, message.drop_reason)
            else:
                self._drop(machine_id, directory, name_, span)
        return len(fanout)

    def _break_leases(self, directory: ObjectEntity, name_: str,
                      span) -> int:
        """LEASE fan-out: break the promise at every live holder.

        Each callback is one message with bounded retries (the shared
        retry/breaker machinery of :func:`callback_fanout`); a
        delivered callback revokes the holder's lease, drops its
        copies and is acked back; an unreachable holder's lease is
        *broken* and counted in :attr:`invalidation_losses`.
        """
        obs = self._obs
        sim = self._sim
        dep = binding_dep(directory, name_)
        holders = self.leases.holders_of(dep, sim.clock.now)
        if not holders:
            return 0
        # Break callbacks fan out from the owning shard's machine for
        # sharded directories (per-binding routing, as in rebind).
        host = self._placement.host_of_binding(directory, name_)
        sender = self._speaker(host) if host is not None else None
        sent = 0

        def called_back(lease: Lease) -> None:
            self.lease_tables[lease.machine_id].revoke(dep, sim.clock.now)
            self._drop(lease.machine_id, directory, name_, span)

        def deliver(lease: Lease, attempt: int) -> bool:
            nonlocal sent
            machine = self._machines[lease.machine_id]
            if host is None or machine is host:
                called_back(lease)
                return True
            if sender is None or not sender.alive:
                return False  # nobody left to send the callback
            receiver = self._speaker(machine)
            message = self._send(
                sender, receiver,
                {"lease": {"op": "break", "dep": dep}}, span)
            sent += 1
            self.invalidation_messages += 1
            sim.run_until_settled(message)
            if obs.enabled:
                if obs.tracer.admit():
                    obs.tracer.event(
                        "lease", "lease.callback", sim.clock.now,
                        attrs={"machine": machine.label, "dep": repr(dep),
                               "attempt": attempt,
                               "delivered": not message.dropped})
                obs.metrics.counter(
                    "lease_callbacks_total",
                    {"delivered": str(not message.dropped).lower()}
                ).inc()
            if message.dropped:
                return False
            called_back(lease)
            ack = self._send(receiver, sender,
                             {"lease": {"op": "ack", "dep": dep}}, span)
            sent += 1
            self.invalidation_messages += 1
            sim.run_until_settled(ack)
            if not ack.dropped:
                self.leases.record_ack(lease.machine_id, dep,
                                       sim.clock.now)
            return True

        report = callback_fanout(
            holders,
            now=lambda: sim.clock.now,
            rng=sim.rng,
            deliver=deliver,
            wait=lambda delay: sim.run(until=sim.clock.now + delay),
            retry_policy=self.retry_policy,
            breaker_for=lambda lease: self.leases.breaker_for_machine(
                lease.machine_id,
                label="lease-cb:" + lease.machine_label),
            on_broken=lambda lease: self.leases.break_lease(
                lease, sim.clock.now))
        self.invalidation_losses += report.broken
        if obs.enabled and report.broken:
            obs.metrics.counter(
                "resolver_invalidation_losses_total").inc(report.broken)
        return sent

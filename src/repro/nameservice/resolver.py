"""Distributed compound-name resolution with measured cost.

:class:`DistributedResolver` performs the section-2 recursion over
*placed* directories: each step whose directory is hosted on a machine
other than where the previous step ran costs a message round-trip
through the simulator kernel (so latencies, traces and server load are
all observable).  The recursion itself — components, prefix cache,
replica candidates, retry, failover, degraded steps — is
:func:`repro.nameservice.walk.walk_effects`, shared with the
message-driven :class:`~repro.nameservice.protocol.AsyncNameClient`;
this class is its host (routing, servers, breakers, caches) and its
synchronous driver.  One interpreter, ``DistributedResolver._drive``,
runs every effect generator on the kernel — the walk and its retry,
and the rebind, split and restart-sync effects of
:mod:`repro.nameservice.writes`: an ask becomes kernel hops pumped to
delivery, a wait runs the kernel, and each write-side leg is one
handler and one message counter of a single table.  The class keeps
the write side's holders, leases and counters too.  Two classic
interaction styles are supported:

* ``ITERATIVE`` — the client asks each directory's server in turn
  (every remote step is a client↔server round trip);
* ``RECURSIVE`` — the request is forwarded server-to-server and only
  the final answer returns to the client (one hop per transfer plus
  one reply).

Two mechanisms make resolution cheap at scale (both extensions,
DNS/AFS-style, measured by ablations A5 and A7):

* a per-machine **prefix cache** (:class:`~repro.nameservice.cache.
  PrefixCache`): repeated resolutions skip the walk up to the deepest
  live cached prefix, under the NONE/TTL/INVALIDATE/LEASE coherence
  policies, with :meth:`DistributedResolver.rebind` as the write
  discipline that keeps INVALIDATE and LEASE exact;
* a **batch API** (:meth:`DistributedResolver.resolve_many`) that
  sorts names by shared prefix, dedupes common steps within the batch,
  and coalesces queries to the same server into one round trip.

A third mechanism makes resolution *survive faults* (ablation A8):
with a :class:`~repro.nameservice.retry.RetryPolicy` the walk retries
dropped hops with exponential backoff and seeded jitter over virtual
time, keeps a per-server :class:`~repro.nameservice.retry.
CircuitBreaker`, and **fails over** to the next live replica of a
directory (:meth:`~repro.nameservice.placement.DirectoryPlacement.
place_replicated`) instead of failing the resolution.  Without a
policy the same walk runs its one-candidate, one-attempt case, faults
included: the primary alone, asked once, its breaker fed.  Under
both, a lookup that loses a leg it cannot recover answers ``⊥E``,
flagged by ``cost.failed``.  When *no*
authoritative replica is reachable, the policy-gated ``serve_stale``
mode answers from the client's possibly-stale prefix cache and tags
the result **weakly coherent** (``cost.weak``) — degraded answers are
never silently passed off as coherent.

The resolver is semantics-preserving: with caching off its result is
always identical to :func:`repro.model.resolution.resolve` on the same
context — the distribution changes *cost*, never *meaning*.  With
caching on, coherence is weakened only in the bounded way the cache
policy allows (TTL staleness windows; nothing after an INVALIDATE
delivery; explicitly-tagged weak answers in ``serve_stale`` mode).
(Property-tested.)

When the simulator carries an :class:`~repro.obs.Instrumentation`,
every resolution becomes a typed span tree (`repro.obs`): a
``resolution`` (or ``batch``) root, one ``hop`` span per message leg
carrying trace context into the kernel, ``step`` instants per
component consumed, ``cache`` instants per prefix probe, ``retry`` /
``failover`` / ``circuit`` / ``stale`` instants for the
fault-tolerance layer, and ``rebind`` spans whose replication and
invalidation fan-outs parent their deliveries.  Span message/step
counts reconcile exactly with the returned :class:`ResolutionCost`
(tested), so the trace *is* the cost accounting, hop by hop.
"""

from __future__ import annotations

import enum
import operator
from typing import Optional, Sequence

from repro.errors import SchemeError
from repro.model.context import Context
from repro.model.entities import Entity, ObjectEntity, UNDEFINED_ENTITY
from repro.model.names import CompoundName, NameLike
from repro.nameservice.cache import CachePolicy, DepKey, PrefixCache
from repro.nameservice.leases import LeaseManager, LeaseTable, Wait
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.retry import (BreakerState, CircuitBreaker,
                                     RetryPolicy)
from repro.nameservice.sharding import Shard
from repro.nameservice.walk import (LOST, STALE, Ask, ResolutionCost,
                                    retry_effects, walk_effects)
from repro.nameservice.writes import (Leg, migrate_effects, sync_effects,
                                     write_effects)
from repro.sim.kernel import Simulator
from repro.sim.network import Machine
from repro.sim.process import SimProcess

__all__ = ["ResolutionStyle", "DistributedResolver"]


def _answered_on_arrival(_server: SimProcess, _message) -> None:
    """A directory server's handler: the walk has already read what
    the leg asked for, so a delivered message is done with."""


class ResolutionStyle(enum.Enum):
    """Who chases the referrals."""

    ITERATIVE = "iterative"
    RECURSIVE = "recursive"

    def __str__(self) -> str:
        return self.value

    @property
    def leg(self) -> str:
        """What a lookup leg is called on the wire and in traces: the
        client's ``query``, or a server-to-server ``forward``."""
        return "query" if self is ResolutionStyle.ITERATIVE else "forward"


class DistributedResolver:
    """Resolves names against placed directories, through the kernel.

    Args:
        simulator: The kernel carrying the resolution traffic.
        placement: Directory → machine placement (possibly replicated).
        cache_policy: Coherence policy for the per-machine prefix
            caches (``NONE`` disables prefix caching entirely).
        cache_ttl: Expiry window for ``TTL`` prefix entries, in
            virtual time.
        retry_policy: When set, dropped hops are retried with backoff
            and seeded jitter, a per-server circuit breaker skips
            servers that keep dropping, and the walk fails over across
            a directory's replica set.  ``None`` (the default) is
            fail-fast, exactly ``RetryPolicy(max_attempts=1)`` on the
            primary alone: one ask, breaker included; a lost leg (or a
            stale or unreachable primary) fails the lookup, which
            answers ``⊥E`` flagged by ``cost.failed``.
        serve_stale: Policy gate for degraded reads — when no
            authoritative replica of a directory is reachable, answer
            the step from the client's possibly-stale prefix cache and
            tag the resolution weakly coherent.  Requires a cache
            policy other than ``NONE`` and a retry policy
            (:meth:`cache_of` opens the gate only with both).  The
            ``LEASE`` policy implies this gate (its *grace mode*).
        breaker_threshold / breaker_cooldown: Circuit-breaker tuning
            (consecutive drops to trip; virtual-time cooldown before
            half-opening).
        lease_term: Virtual-time term of ``LEASE``-policy grants; the
            bound on claimed-coherent staleness is this term plus one
            delivery delay.
    """

    def __init__(self, simulator: Simulator,
                 placement: DirectoryPlacement,
                 cache_policy: CachePolicy = CachePolicy.NONE,
                 cache_ttl: float = 10.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 serve_stale: bool = False,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 lease_term: float = 30.0):
        self._sim = simulator
        self._placement = placement
        self.obs = simulator.obs
        self.rng = simulator.rng
        self._servers: dict[int, SimProcess] = {}
        self.cache_policy = cache_policy
        self.cache_ttl = cache_ttl
        self.retry_policy = retry_policy
        self.serve_stale = serve_stale
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.lease_term = lease_term
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._m_messages = metrics.counter("resolver_messages_total")
            self._m_latency = metrics.histogram(
                "resolver_resolution_latency")
            self._m_res_messages = metrics.histogram(
                "resolver_resolution_messages",
                buckets=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0))
            self._m_load = metrics.counter_family(
                "resolver_server_load_total", "server")
            self._m_resolutions = metrics.counter_family(
                "resolver_resolutions_total", "style")
            self._m_outcomes = metrics.counter_family(
                "resolver_resolution_outcomes_total", "outcome")
            self._m_steps = metrics.counter_family(
                "resolver_steps_total", "kind")
            self._m_invalidation_msgs = metrics.counter(
                "resolver_invalidation_messages_total")
        self._prefix_caches: dict[int, PrefixCache] = {}
        # Per-server-process circuit breakers, keyed by process uid.
        self._breakers: dict[int, CircuitBreaker] = {}
        #: The LEASE policy's server-side manager (``None`` otherwise).
        self.leases: Optional[LeaseManager] = None
        if cache_policy is CachePolicy.LEASE:
            self.leases = LeaseManager(
                term=lease_term, breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown, obs=self.obs)
        #: LEASE: one client-side table per holder machine.
        self.lease_tables: dict[int, LeaseTable] = {}
        # Holder machines by id (leases and the registry key on ids).
        self._holder_machines: dict[int, Machine] = {}
        #: INVALIDATE registry: binding → machines holding a copy
        #: (insertion-ordered so fan-outs are deterministic per seed).
        #: Under LEASE the manager's holder index plays this part.
        self.holders: dict[DepKey, dict[int, None]] = {}
        #: Replica-propagation messages sent by :meth:`rebind`.
        self.replication_messages = 0
        #: Invalidation / lease-callback / ack messages sent.
        self.invalidation_messages = 0
        #: Undeliverable invalidations plus broken leases.
        self.invalidation_losses = 0
        # Per-server load, keyed by process uid — labels are not
        # identities (two machines may share one), so counters never
        # collide; `load` aggregates by label for reporting only.
        self._load: dict[int, int] = {}
        self._server_labels: dict[int, str] = {}
        self.anti_entropy_messages = 0
        # Sharding: the live split policy (wired by the deployment as
        # ``resolver.shard_manager = ShardManager(resolver, pool=…)``)
        # and migration accounting.
        self.shard_manager = None
        self.migration_messages = 0
        self.shard_splits = 0
        self.shard_split_aborts = 0
        for machine in placement.placed_machines():
            self.server_for(machine)

    @property
    def placement(self) -> DirectoryPlacement:
        """The placement this resolver routes against."""
        return self._placement

    def server_for(self, machine: Machine) -> SimProcess:
        """The directory-server process of a machine: the one spawn site.

        The resolver's build spawns one on every machine the placement
        names, so a down placed machine is addressed like any other and
        the message is dropped.  Later this spawns on an up machine with
        none yet (a client's, a split target, a placement made after
        build) and respawns a server that died with its machine once
        the machine is back up.  The walk reads a leg's binding the
        moment it lands, so a server leaves nothing to queue.
        """
        server = self._servers.get(id(machine))
        if server is None or (not server.alive and machine.alive):
            server = self._sim.spawn(machine,
                                     label=f"dirserver@{machine.label}")
            server.on_message(_answered_on_arrival)
            self._servers[id(machine)] = server
            self._server_labels[server.uid] = server.label
        return server

    def breaker_for(self, server: SimProcess) -> CircuitBreaker:
        breaker = self._breakers.get(server.uid)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                label=server.label, obs=self.obs)
            self._breakers[server.uid] = breaker
        return breaker

    def breaker_allows(self, machine: Machine) -> bool:
        """Whether *machine*'s breaker would admit a request — a
        **pure read** for policy decisions (the split-target choice).

        This never spawns a server, and unlike
        :meth:`CircuitBreaker.allow` it never flips an open
        breaker to half-open — probing is the failover path's job, not
        a placement scan's.  A machine with no server (or no breaker)
        has no recorded failures, so it is allowed.
        """
        server = self._servers.get(id(machine))
        if server is None:
            return True
        breaker = self._breakers.get(server.uid)
        if breaker is None or breaker.state is not BreakerState.OPEN:
            return True
        return (self._sim.clock.now - breaker.opened_at
                >= breaker.cooldown)

    # -- load reporting ----------------------------------------------------

    @property
    def load(self) -> dict[str, int]:
        """Per-server load report, keyed by server label — for
        **reporting only**.

        Counters are kept per server *process*; labels are not
        identities (two servers may share one, and a respawned server
        is a new process under the old label), so this label-summed
        view is ambiguous.  Anything that *decides* off load — shard
        splitting, queue models, failover scoring — must key on uid
        via :meth:`load_by_uid` or :meth:`load_of_machine`.
        """
        report: dict[str, int] = {}
        for uid, count in self._load.items():
            label = self._server_labels[uid]
            report[label] = report.get(label, 0) + count
        return report

    def load_by_uid(self) -> dict[int, int]:
        """Per-server load keyed by server-process uid — the
        collision-free view placement decisions must use (a snapshot;
        diff two snapshots for a window)."""
        return dict(self._load)

    def load_of_machine(self, machine: Machine) -> int:
        """Steps served by *machine*'s current server process (0 if
        no server ever ran there; a crashed-and-respawned server
        counts only its current incarnation)."""
        server = self._servers.get(id(machine))
        if server is None:
            return 0
        return self._load.get(server.uid, 0)

    def charge(self, server: SimProcess) -> None:
        """Account one directory step served by *server*."""
        self._load[server.uid] = self._load.get(server.uid, 0) + 1
        if self.obs.enabled:
            self._m_load.labels(server.label).inc()

    # -- prefix caching ----------------------------------------------------

    def cache_of(self, home: SimProcess) -> Optional[PrefixCache]:
        """The (lazily created) prefix cache of *home*'s machine —
        ``None`` under ``NONE``, which is having no cache."""
        policy = self.cache_policy
        if policy is CachePolicy.NONE:
            return None
        machine = home.machine
        cache = self._prefix_caches.get(id(machine))
        if cache is None:
            # The degraded serve is part of the fault-tolerance layer:
            # asked for or implied by LEASE, it needs a retry policy.
            cache = PrefixCache(
                machine, policy, self._placement, ttl=self.cache_ttl,
                serve_stale=(self.retry_policy is not None
                             and (self.serve_stale
                                  or policy is CachePolicy.LEASE)),
                lease_table=(self.lease_table_of(machine)
                             if policy is CachePolicy.LEASE else None),
                note_copies=self.note_copies, obs=self.obs)
            self._prefix_caches[id(machine)] = cache
        return cache

    def lease_stats(self) -> dict[str, int]:
        """Server-side plus aggregated client-side lease counters."""
        totals = {"grants": 0, "renewals": 0, "revocations": 0,
                  "expirations": 0, "grace_hits": 0, "revalidations": 0}
        for table in self.lease_tables.values():
            for key, value in table.stats().items():
                if key in totals:
                    totals[key] += value
        if self.leases is not None:
            for key, value in self.leases.stats().items():
                totals[f"server_{key}"] = value
        return totals

    def cache_stats(self) -> dict[str, int]:
        """Aggregate hit/miss/invalidation/expiry/stale counts over
        every machine's prefix cache."""
        totals = {"hits": 0, "misses": 0, "invalidations": 0,
                  "expirations": 0, "stale_hits": 0}
        for cache in self._prefix_caches.values():
            for key, value in cache.stats().items():
                totals[key] += value
        return totals

    # -- messaging helpers -------------------------------------------------

    def _post(self, sender: SimProcess, receiver: SimProcess, payload: dict,
              span, cost: ResolutionCost, settle: bool = True):
        """The one place a resolver message leaves a server: *sender*
        sends *payload* to *receiver*, stamped with *span*'s trace
        context and counted on *cost*, and the kernel runs until it is
        delivered or dropped — unless *settle* is False, for a batch
        sent at once that settles together.  Returns the message, or
        ``None``: a dead sender sends nothing."""
        if not sender.alive:
            return None
        message = self._sim.send(sender, receiver, payload)
        if span is not None:
            message.trace_id = span.trace_id
            if not span.muted:
                message.parent_span_id = span.span_id
        cost.messages += 1
        if settle:
            self._sim.run_until_settled(message)
        return message

    def _hop(self, sender: SimProcess, receiver: SimProcess,
             cost: ResolutionCost, what: str) -> bool:
        """One message leg under a ``hop`` span, pumped through the
        kernel only as far as its own delivery.

        Returns True if the leg was delivered.  A lost leg is the
        caller's to account: the walk's degraded step, or
        :meth:`_hop_retried` for a leg between fixed endpoints.
        """
        if sender is receiver:
            return True
        obs = self.obs
        before = self._sim.clock.now
        span = None
        if obs.enabled:
            span = obs.tracer.begin("hop", what, before)
            if not span.muted:
                span.attrs = {"from": sender.label, "to": receiver.label,
                              "messages": 1}
        message = self._post(sender, receiver, {"ns": what}, span, cost)
        cost.latency += self._sim.clock.now - before
        if span is not None:
            if message is None:  # a failed zero-message hop
                if not span.muted:
                    span.attrs["messages"] = 0
                    span.fail(f"sender {sender.label} down")
            else:
                if message.dropped:
                    span.fail(message.drop_reason)
                self._m_messages.inc()
            obs.tracer.end(span, self._sim.clock.now)
        return message is not None and not message.dropped

    def _hop_retried(self, sender: SimProcess, receiver: SimProcess,
                     cost: ResolutionCost, what: str) -> bool:
        """A hop that honours the retry policy (no failover — the
        endpoints are fixed, e.g. the answer leg home); a leg still
        lost after every ask the retry policy allows fails the walk."""
        if self._hop(sender, receiver, cost, what):
            return True
        leg = Ask(receiver, what)
        leg.origin = sender
        if self._drive(retry_effects(self, cost, leg), cost) is not LOST:
            return True
        cost.failed_hops += 1
        if self.obs.enabled and self.obs.tracer.current is not None:
            policy = self.retry_policy
            attempts = 1 if policy is None else policy.max_attempts
            self.obs.tracer.current.fail(f"hop {what} lost after "
                                         f"{attempts} attempts")
        return False

    # -- the walk's host (see repro.nameservice.walk) ----------------------

    #: The walk stands at the server that answered: its next steps
    #: there cost nothing (batch coalescing depends on this).
    parks = True
    node_of = staticmethod(operator.attrgetter("machine"))

    def now(self) -> float:
        return self._sim.clock.now

    def replicas(self, directory: ObjectEntity,
                 component: Optional[str]) -> Sequence[Machine]:
        """For sharded directories the serving machines are
        per-binding (the owning shard), not per-directory, so routing
        needs to know what will be asked."""
        return self._placement.replicas_for_binding(directory, component)

    def target_on(self, directory: ObjectEntity, machine: Machine):
        if self._placement.is_stale(directory, machine):
            return STALE
        return self.server_for(machine)

    # -- the one kernel interpreter ---------------------------------------

    #: :meth:`_drive`'s ``Leg`` ops: op → (handler name, looked up on
    #: the class at each call; the counter its messages add to).
    _LEG_OPS = {"replicate": ("_copy", "replication_messages"),
                "invalidate": ("_call_back_all", "invalidation_messages"),
                "break": ("_break", "invalidation_messages"),
                "migrate": ("_migrate", "migration_messages"),
                "sync": ("_copy", "anti_entropy_messages")}

    def _drive(self, steps, cost: ResolutionCost,
               home: Optional[SimProcess] = None, span=None):
        """Run any effect generator on the kernel; returns its result.
        An ``Ask`` is hops (:meth:`_ask`, *home* the client's server),
        a ``Wait`` runs the kernel, charged to *cost* as latency, and a
        ``Leg`` goes under *span* to its :attr:`_LEG_OPS` handler, and
        the messages it counts on *cost* are added to the op's counter."""
        reply = None
        try:
            while True:
                effect = steps.send(reply)
                if effect.__class__ is Ask:
                    reply = self._ask(effect, home, cost)
                elif effect.__class__ is Wait:
                    before = self._sim.clock.now
                    self._sim.run(until=before + effect.delay)
                    cost.latency += self._sim.clock.now - before
                    reply = None
                else:
                    handler, counter = self._LEG_OPS[effect.op]
                    sent = cost.messages
                    reply = getattr(self, handler)(effect, cost, span)
                    setattr(self, counter,
                            getattr(self, counter) + cost.messages - sent)
        except StopIteration as done:
            return done.value

    def _ask(self, leg: Ask, home: SimProcess, cost: ResolutionCost):
        """One ask as a kernel hop.  A walk step's first ask leaves the
        server the walk is parked at — one referral back to *home*
        (iterative) however many candidate queries follow, or a forward
        from there (recursive); a re-sent leg between fixed endpoints
        comes with its origin set and answers True when delivered."""
        if leg.origin is None:
            if leg.what == "query":
                if leg.at is not home:
                    self._hop_retried(leg.at, home, cost, "referral")
                leg.origin = home
            else:
                leg.origin = leg.at if leg.at.alive else home
        if not self._hop(leg.origin, leg.target, cost, leg.what):
            return LOST
        directory = leg.directory
        return True if directory is None else directory.state(leg.component)

    # -- observability -----------------------------------------------------

    def _begin_resolution(self, name_: CompoundName, style: ResolutionStyle,
                          client: SimProcess, parent):
        """Open one name's ``resolution`` span under *parent* (None:
        a new trace) in instrumented runs; its name and attrs are
        rendered only if it records."""
        span = self.obs.tracer.begin(
            "resolution", "", self._sim.clock.now, parent=parent)
        if not span.muted:
            span.name = str(name_) or "<empty>"
            span.attrs = {"style": str(style),
                          "policy": str(self.cache_policy),
                          "client": client.label}
        return span

    def _settle(self, span, context: Context, name_: CompoundName,
                entity: Entity, cost: ResolutionCost,
                style: ResolutionStyle) -> None:
        """One name's walk is done: close its ``resolution`` span and
        publish its metrics (instrumented runs), show the answer to the
        coherence auditor and count the walk toward the split policy —
        per walk, not per batch, so a hot batch can trigger a split
        while it is still running."""
        if span is not None:
            if not span.muted:
                span.attrs.update(messages=cost.messages, steps=cost.steps,
                                  cached_steps=cost.cached_steps,
                                  resolved=entity.is_defined(),
                                  coherence=cost.coherence)
            self.obs.tracer.end(span, self._sim.clock.now)
            self._m_resolutions.labels(style.value).inc()
            self._m_outcomes.labels("failed" if cost.failed
                                    else cost.coherence).inc()
            self._m_latency.observe(cost.latency)
            self._m_res_messages.observe(cost.messages)
            steps = self._m_steps
            for kind, amount in (("local", cost.local_steps),
                                 ("remote", cost.remote_steps),
                                 ("cached", cost.cached_steps)):
                if amount:
                    steps.labels(kind).inc(amount)
        auditor = self.obs.auditor
        if auditor is not None:
            auditor.observe_resolution(
                context, name_, entity, now=self._sim.clock.now,
                policy=self.cache_policy.value, weak=cost.weak,
                failed=cost.failed, latency=cost.latency,
                ttl=self.cache_ttl, lease_term=self.lease_term,
                placement=self._placement)
        if self.shard_manager is not None:
            self.shard_manager.on_resolution()

    # -- API ---------------------------------------------------------------

    def resolve(self, client: SimProcess, context: Context,
                name_: NameLike,
                style: ResolutionStyle = ResolutionStyle.ITERATIVE,
                ) -> tuple[Entity, ResolutionCost]:
        """Resolve *name_* in *context* on behalf of *client*.

        The context's own bindings (including the root binding) are
        consulted locally — a process's context is kernel state on its
        own machine; only steps into *placed* directories can be
        remote.  With a cache policy active, the walk starts at the
        deepest live cached prefix instead of the root.

        Under faults, a walk that lost a leg it could not recover (one
        ask fail-fast, every replica under a policy, or the answer leg
        home) answers ``⊥E`` with ``cost.failed`` set, and a
        stale-served answer carries ``cost.weak``.
        """
        name_ = CompoundName.coerce(name_)
        cost = ResolutionCost()
        client_server = self.server_for(client.machine)
        span = (self._begin_resolution(name_, style, client, None)
                if self.obs.enabled else None)
        entity, at = self._drive(
            walk_effects(self, cost, context, name_, client_server,
                         client_server, style.leg),
            cost, client_server)
        self._hop_retried(at, client_server, cost, "answer")
        if cost.failed:
            entity = UNDEFINED_ENTITY  # a lost leg loses the answer
        self._settle(span, context, name_, entity, cost, style)
        return entity, cost

    def resolve_many(self, client: SimProcess, context: Context,
                     names: Sequence[NameLike],
                     style: ResolutionStyle = ResolutionStyle.ITERATIVE,
                     ) -> list[tuple[Entity, ResolutionCost]]:
        """Resolve a batch of names, amortizing shared work.

        Names are processed sorted by shared prefix; every directory
        step is paid at most once per batch (a batch-local memo layered
        over the prefix cache), and consecutive queries served by the
        same server are coalesced into its one visit — the walk parks
        at each server instead of returning home between names, and a
        single answer hop closes the batch.

        Returns one ``(entity, cost)`` per input name, **in input
        order**, entity-for-entity identical to what sequential
        :meth:`resolve` calls would yield (property-tested).  Messages
        are charged to the name that first needed them; aggregate with
        :meth:`ResolutionCost.merge`.
        """
        coerced = [CompoundName.coerce(n) for n in names]
        if not coerced:
            return []
        order = sorted(range(len(coerced)),
                       key=lambda i: (not coerced[i].rooted,
                                      coerced[i].parts, i))
        client_server = self.server_for(client.machine)
        obs = self.obs
        batch_span = None
        if obs.enabled:
            batch_span = obs.tracer.begin(
                "batch", f"resolve_many[{len(coerced)}]",
                self._sim.clock.now, parent=None,
                attrs={"names": len(coerced), "style": str(style),
                       "policy": str(self.cache_policy),
                       "client": client.label})
        results: list = [None] * len(coerced)
        memo: dict = {}
        at = client_server
        for i in order:
            cost = ResolutionCost()
            span = (self._begin_resolution(coerced[i], style, client,
                                           batch_span)
                    if obs.enabled else None)
            entity, at = self._drive(
                walk_effects(self, cost, context, coerced[i],
                             client_server, at, style.leg, memo),
                cost, client_server)
            if cost.failed:
                entity = UNDEFINED_ENTITY
            results[i] = (entity, cost)
            self._settle(span, context, coerced[i], entity, cost, style)
        # One answer hop closes the whole batch, charged to the last
        # name processed (its span parents under the batch span); if it
        # is lost, so is that name's answer.
        last_cost = results[order[-1]][1]
        if not self._hop_retried(at, client_server, last_cost, "answer"):
            results[order[-1]] = (UNDEFINED_ENTITY, last_cost)
        if batch_span is not None:
            if not batch_span.muted:
                batch_span.attrs["messages"] = sum(
                    cost.messages for _entity, cost in results)
            obs.tracer.end(batch_span, self._sim.clock.now)
        return results

    # -- writes: the host and driver of write_effects ----------------------

    @property
    def auditor(self):
        return self.obs.auditor

    @property
    def epoch(self) -> int:
        return self._placement.epoch

    def holder_node(self, holder: int) -> Machine:
        return self._holder_machines[holder]

    def call_back(self, holder: int, dep: DepKey) -> None:
        """*holder* drops its copies through *dep* and its lease on it
        (the simulated holder's half of a delivered callback)."""
        now = self._sim.clock.now
        table = self.lease_tables.get(holder)
        if table is not None:
            table.revoke(dep, now)
        cache = self._prefix_caches.get(holder)
        dropped = 0 if cache is None else cache.invalidate_through(dep)
        obs = self.obs
        if dropped and obs.enabled and obs.tracer.admit():
            obs.tracer.event(
                "cache", "prefix.invalidated", now,
                attrs={"machine": self._holder_machines[holder].label,
                       "count": dropped})

    def lease_table_of(self, machine: Machine) -> LeaseTable:
        """The (lazily created) client-side lease table of a machine."""
        table = self.lease_tables.get(id(machine))
        if table is None:
            table = LeaseTable(machine.label, obs=self.obs)
            self.lease_tables[id(machine)] = table
            self._holder_machines[id(machine)] = machine
        return table

    def note_copies(self, machine: Machine, deps: tuple) -> None:
        """Record that *machine* just cached copies depending on *deps*.

        ``INVALIDATE`` registers it as a holder of each; ``LEASE``
        grants it a lease on each (grants piggyback on the read that
        filled the cache, so no grant messages are modelled and
        renewals are re-reads).
        """
        if self.cache_policy is CachePolicy.INVALIDATE:
            self._holder_machines[id(machine)] = machine
            for dep in deps:
                self.holders.setdefault(dep, {})[id(machine)] = None
        elif self.cache_policy is CachePolicy.LEASE:
            now = self._sim.clock.now
            epoch = self._placement.epoch
            table = self.lease_table_of(machine)
            for dep in deps:
                self.leases.grant(id(machine), dep, now, epoch,
                                  machine_label=machine.label)
                table.grant(dep, now, self.leases.term, epoch)

    def rebind(self, directory: ObjectEntity, name_: str,
               entity: Entity) -> int:
        """Change ``σ(directory)(name_)`` under the write discipline —
        commit, replicate, then invalidate or break the leases on every
        cached prefix that consumed the binding — by running
        :func:`~repro.nameservice.writes.write_effects` on the kernel
        under one ``rebind`` span: each leg is messages pumped to
        settlement, a wait is virtual time passing.  All binding writes
        to placed directories must come through here.  Returns the
        number of invalidation / callback / ack messages sent."""
        steps = write_effects(self, directory, name_, entity)
        try:
            next(steps)  # FANOUT: the commit is done, messages follow
        except StopIteration:
            return 0  # nothing to fan out
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "rebind", f"{directory.label}/{name_}", self._sim.clock.now,
                parent=None, attrs={"directory": directory.label,
                                    "component": name_})
        sent_before = self.invalidation_messages
        report = self._drive(steps, ResolutionCost(), span=span)
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
            obs.tracer.end(span, self._sim.clock.now)
        return sent

    # -- the write-side legs (see _LEG_OPS) --------------------------------

    def _copy(self, leg: Leg, cost: ResolutionCost, span) -> bool:
        """``replicate`` / ``sync``: one copy of directory state from
        *origin*'s server to *to*'s; whether it landed.  A dead sender
        is refused before *to*'s server is looked up, so the leg spawns
        no server there."""
        sender = self.server_for(leg.origin)
        if not sender.alive:
            return False
        message = self._post(sender, self.server_for(leg.to),
                             {"ns": leg.op}, span, cost)
        return not message.dropped

    def _call_back_all(self, leg: Leg, cost: ResolutionCost, span) -> list:
        """``invalidate``: one message to every holder in *to* (the
        write sends none from a dead origin), settled together; one
        drop reason per holder (``None``: delivered)."""
        sender = self.server_for(leg.origin)
        batch = [self._post(sender,
                            self.server_for(self._holder_machines[holder]),
                            {"ns": "invalidate"}, span, cost, settle=False)
                 for holder in leg.to]
        self._sim.run_until_settled(batch)
        return [m.drop_reason if m.dropped else None for m in batch]

    def _break(self, leg: Leg, cost: ResolutionCost, span) -> bool:
        """``break``: one callback.  Delivered, the holder revokes its
        lease, drops its copies and acks; an ack that arrives releases
        the lease server-side.  (Only a live origin calls back.)"""
        sim = self._sim
        obs = self.obs
        lease = leg.to
        machine = self._holder_machines[lease.machine_id]
        sender = self.server_for(leg.origin)
        receiver = self.server_for(machine)
        message = self._post(sender, receiver,
                             {"lease": {"op": "break", "dep": lease.dep}},
                             span, cost)
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
            ack = self._post(receiver, sender,
                             {"lease": {"op": "ack", "dep": lease.dep}},
                             span, cost)
            if not ack.dropped:
                self.leases.record_ack(lease.machine_id, lease.dep,
                                       sim.clock.now)
        return delivered

    def _migrate(self, leg: Leg, cost: ResolutionCost, _span) -> bool:
        """``migrate``: one batch of a split's bindings, a retried hop
        from the source shard's server to the target's."""
        return self._hop_retried(self.server_for(leg.origin),
                                 self.server_for(leg.to), cost, "migrate")

    # -- shard splits / migration ------------------------------------------

    #: Bindings moved per migration message.
    migration_batch = 100_000

    def split_shard(self, directory: ObjectEntity, shard: Shard,
                    machine: Machine) -> bool:
        """Split *shard* of a sharded directory onto *machine*: run
        :func:`~repro.nameservice.writes.migrate_effects` on the
        kernel, each migration batch a retried hop from the source
        shard's server to the target's, so traces, failure injection
        and the retry/breaker machinery all apply to rebalancing
        traffic.  A dead endpoint drops the migration, which aborts
        the split.  Returns True if the split committed.
        """
        shard_map = self._placement.shard_map_of(directory)
        if shard_map is None:
            raise SchemeError(
                f"directory {directory.label!r} is not sharded")
        plan = shard_map.plan_split(shard, machine)
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "shard", f"split:{directory.label}", self._sim.clock.now,
                parent=None,
                attrs={"directory": directory.label,
                       "source": shard.machine.label,
                       "target": machine.label,
                       "split_at": plan.split_at,
                       "moved": len(plan.moved),
                       "replicas": len(plan.targets)})
        committed = False
        cost = ResolutionCost()  # migration accounting only
        # The one read of spawn history left: a split may name a target
        # outside the deployment (an unplaced pool machine), and one
        # that is down and never ran a server cannot be addressed, so
        # the split aborts without a message.
        if machine.alive or id(machine) in self._servers:
            committed = self._drive(migrate_effects(self, plan), cost)
        if committed:
            self.shard_splits += 1
        else:
            self.shard_split_aborts += 1
        if obs.enabled:
            obs.metrics.counter(
                "resolver_shard_splits_total",
                {"outcome": "committed" if committed else "aborted"}
            ).inc()
            if cost.messages:
                obs.metrics.counter(
                    "resolver_migration_messages_total"
                ).inc(cost.messages)
            if span is not None:
                if not span.muted:
                    span.attrs["messages"] = cost.messages
                    span.attrs["committed"] = committed
                    span.attrs["shards"] = len(shard_map)
                    if not committed:
                        span.fail("migration undeliverable — split aborted")
                obs.tracer.end(span, self._sim.clock.now)
        return committed

    # -- restart / anti-entropy --------------------------------------------

    def handle_restart(self, machine: Machine) -> int:
        """Respawn hook (``injector.on_restart(resolver.
        handle_restart)``): respawn the machine's server (fresh
        process, fresh breaker), then run :func:`~repro.nameservice.
        writes.sync_effects` for its stale replicas, one message per
        sync (:attr:`anti_entropy_messages`).  Returns the number of
        directories synced."""
        self.server_for(machine)
        stale = self._placement.stale_uids_of(machine)
        if not stale:
            return 0
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "anti_entropy", machine.label, self._sim.clock.now,
                parent=None, attrs={"machine": machine.label,
                                    "stale": len(stale)})
        cost = ResolutionCost()  # anti-entropy accounting only
        synced = self._drive(sync_effects(self, machine, stale), cost,
                             span=span)
        if obs.enabled:
            if synced:
                obs.metrics.counter(
                    "resolver_anti_entropy_syncs_total").inc(synced)
            if span is not None:
                if not span.muted:
                    span.attrs["synced"] = synced
                    span.attrs["messages"] = cost.messages
                obs.tracer.end(span, self._sim.clock.now)
        return synced


# Nothing calls this name: benchmarks/e2e/spec.py wraps it by this name
# for its ``leases`` layer and its tests require the name to exist.  It
# is bound to the kernel write driver, which runs the fan-out.
callback_fanout = DistributedResolver.rebind

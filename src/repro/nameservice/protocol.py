"""An asynchronous name-lookup protocol over the transport seam.

:class:`AsyncNameClient` is the message-driven driver of the one walk
(:mod:`repro.nameservice.walk`) — the same generator
:class:`DistributedResolver` pumps synchronously.  Each
:class:`~repro.nameservice.walk.Ask` the walk yields becomes one
request message to a :class:`NameLookupServer` plus a timeout timer,
each :class:`~repro.nameservice.leases.Wait` a backoff timer; replies
and timeouts resume the walk.  A request names one binding and carries
the unresolved suffix (``rest``); the server answers the binding and
keeps walking the suffix for as long as it serves the directory it
just reached, so the reply is a *trail* — one entity per component
consumed — and a path one server holds costs one round trip, not one
per component.  What stays here is what belongs to
messages: request ids, per-request sequence numbers, timers and the
late-reply count.  The protocol speaks through :mod:`repro.transport`
and nothing else — client and server are each built over a
:class:`~repro.transport.base.Transport`, one constructor apiece: on
:class:`~repro.transport.sim.SimTransport` it runs in virtual time on
the kernel; on :class:`~repro.transport.aio.AsyncioTransport` the
identical code serves lookups over real TCP sockets with wall-clock
timeouts.  Nothing here runs the substrate — the caller pumps
:meth:`Simulator.run` (or the asyncio loop), so lookups interleave
naturally with any other traffic, and failures (crashed servers,
partitions, refused connections) surface as timeouts rather than
hangs.

Correctness property (tested): with no failures, an async lookup
completes with exactly the entity the section-2 recursion yields
locally.  Under a crashed server or a partition, the lookup fails
cleanly after its retries instead of returning a wrong entity —
incoherence is never silently introduced by the transport.

Retry, backoff and failover are the walk's: a timed-out request is
re-asked up to ``max_retries`` more times — after exponential backoff
with seeded jitter under a :class:`~repro.nameservice.retry.
RetryPolicy`, at once without one — and when a directory's replica
stops answering, the next one in the router's candidate list is asked.
Backoff waits are spent on the *transport's* clock — virtual time on
the simulator, wall seconds on asyncio — with jitter drawn from the
transport's seeded RNG either way.  Replies that arrive after their
request already timed out are counted (``async_late_replies_total`` /
:attr:`AsyncNameClient.late_replies`) rather than silently dropped — a
reply racing its own retry is normal under latency spikes, and the
counter makes the race visible; one that arrives during the backoff
*before* the re-send is simply the answer.  After a machine restart,
:meth:`NameLookupServer.respawn` re-registers the dead server process
with its handler (wire it as a
:meth:`~repro.sim.failures.FailureInjector.on_restart` hook).

On an instrumented transport (`repro.obs`), each lookup is one
``lookup`` span labelled with the transport kind (``sim`` /
``asyncio``); its request and reply messages carry the span's trace
context, so deliveries/drops land in the right trace even though many
lookups interleave.  Completions, failures and retries are counted in
``async_lookups_total{outcome=...}`` and
``async_lookup_retries_total``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SchemeError
from repro.model.context import Context
from repro.model.entities import Entity, ObjectEntity, UNDEFINED_ENTITY
from repro.model.names import CompoundName, NameLike
from repro.nameservice.leases import LeaseTable, Wait
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.walk import (DOWN, LOST, STALE, Ask, ResolutionCost,
                                    walk_effects)
from repro.obs.instrument import NO_OBS
from repro.sim.network import Machine
from repro.transport.base import Endpoint, Timer, Transport
from repro.transport.framing import MAX_REST

__all__ = ["LookupOutcome", "PlacementRouter", "NameLookupServer",
           "AsyncNameClient"]

#: Callback invoked at completion: (outcome).
Completion = Callable[["LookupOutcome"], None]


@dataclass
class LookupOutcome:
    """Result of one asynchronous lookup."""

    name: CompoundName
    entity: Entity = UNDEFINED_ENTITY
    failed: bool = False
    reason: str = ""
    #: Step timeouts that fired (each one a lost attempt).
    retries: int = 0
    #: The walk's own accounting — steps, re-asks (``cost.retries``),
    #: failovers — in the units the synchronous resolver reports.
    cost: ResolutionCost = field(default_factory=ResolutionCost)

    @property
    def ok(self) -> bool:
        return not self.failed and self.entity.is_defined()

    @property
    def steps(self) -> int:
        return self.cost.steps

    @property
    def failovers(self) -> int:
        return self.cost.failovers


class PlacementRouter:
    """Routes lookup steps via :class:`DirectoryPlacement` (sim side).

    The router seam answers the walk's two routing questions
    (:mod:`repro.nameservice.walk`): :meth:`replicas` — the candidate
    machines for a binding, empty meaning "read it in place" — and
    :meth:`target_on` — whom to ask on one of them.  The client's own
    machine is its own target (a directory hosted there is read
    locally); any other machine's is its :class:`NameLookupServer`,
    addressed at whatever process it runs *when the request leaves*,
    so a re-ask after a backoff reaches a server that respawned
    meanwhile.
    """

    def __init__(self, placement: DirectoryPlacement,
                 servers: dict[int, "NameLookupServer"],
                 local_machine: Machine):
        self.placement = placement
        self.servers = servers
        self.local_machine = local_machine

    def replicas(self, directory: ObjectEntity, component: str):
        return self.placement.replicas_for_binding(directory, component)

    def target_on(self, directory: ObjectEntity, host: Machine) -> Any:
        if self.placement.is_stale(directory, host):
            return STALE
        if host is self.local_machine:
            return host
        server = self.servers.get(id(host))
        if server is not None:
            return server
        if host.alive:
            raise SchemeError(f"no lookup server on {host.label}")
        return DOWN


class NameLookupServer:
    """A directory server: answers lookup requests, a step at a time.

    One per machine; installs a message handler on a dedicated
    endpoint.  A request carries the directory object, the component
    to look up and the components after it (``rest``); the reply
    carries the ``trail``: the entity bound there and then one more
    per component of ``rest`` for as long as the entity just reached
    is a directory this server serves — ``⊥E`` last if the chain hit
    an unbound name.  :attr:`requests_served`, the request metric and
    the auditor count *steps*, chained or not.

    Args:
        transport: The :class:`~repro.transport.base.Transport` to
            serve on; an endpoint is created on *node*.
        node: The hosting node (sim: a
            :class:`~repro.sim.network.Machine`, where a server
            process is spawned; a real transport may ignore it).
        label: Endpoint label; defaults to ``lookupd@<machine>``.
        placement: What this server serves, by the source its clients'
            router reads: anything with ``serves(machine, directory,
            component)`` (a :class:`DirectoryPlacement`; the socket
            service's registry).  Without one the server cannot know
            what it hosts and answers one step per request.

    Attributes:
        auditor: Optional :class:`~repro.obs.audit.CoherenceAuditor`;
            when set, every served lookup is audited binding-level
            (:meth:`~repro.obs.audit.CoherenceAuditor.observe_lookup`)
            at the transport's clock under :attr:`audit_policy` — the
            hook the transport parity suite uses to compare coherence
            verdicts across substrates.
    """

    #: See class docstring; set after construction when auditing.
    auditor: Any = None
    audit_policy: str = "invalidate"

    def __init__(self, transport: Transport, node: Any = None,
                 label: str = "", placement: Any = None):
        self.transport = transport
        self.machine = node
        self.placement = placement
        if not label:
            node_label = getattr(node, "label", None)
            label = (f"lookupd@{node_label}" if node_label is not None
                     else "lookupd")
        self.endpoint: Endpoint = transport.endpoint(node, label)
        self.endpoint.on_message(self._handle)
        #: The backing simulator process (sim transport only).
        self.process = getattr(self.endpoint, "process", None)
        self.requests_served = 0
        self._obs = self.transport.obs
        if self._obs.enabled:
            self._m_requests = self._obs.metrics.counter(
                "lookup_server_requests_total",
                {"server": self.endpoint.label})

    @property
    def label(self) -> str:
        return self.endpoint.label

    def _handle(self, _endpoint: Endpoint, message: Any) -> None:
        payload = message.payload
        if not isinstance(payload, dict) or "lookup" not in payload:
            return
        request = payload["lookup"]
        directory: ObjectEntity = request["directory"]
        component: str = request["component"]
        # Without a placement the server cannot know what it hosts.
        placement = self.placement
        rest = iter(request["rest"] if placement is not None else ())
        trail: list[Entity] = []
        while True:
            self.requests_served += 1
            if self._obs.enabled:
                self._m_requests.inc()
            entity: Entity = UNDEFINED_ENTITY
            if directory.is_context_object():
                context: Context = directory.state
                entity = context(component)
            if self.auditor is not None and directory.is_defined():
                self.auditor.observe_lookup(
                    directory, component, entity,
                    now=self.transport.now(), policy=self.audit_policy)
            trail.append(entity)
            # §2: the rest of the name belongs with whoever holds the
            # context just reached — walk on while that is this server.
            component = next(rest, None)
            if component is None or not entity.is_context_object() \
                    or not placement.serves(self.machine, entity,
                                            component):
                break
            directory = entity
        reply = self.endpoint.send(message.sender, payload={"reply": {
            "request_id": request["request_id"],
            "seq": request.get("seq", 0),
            "trail": trail,
        }})
        # The reply continues the request's trace.
        reply.trace_id = message.trace_id
        reply.parent_span_id = message.parent_span_id

    def respawn(self) -> bool:
        """Re-register the server after its machine restarts.

        A machine crash kills the server process; a bare
        ``restart_machine`` used to leave the name service permanently
        dead on that host.  Called after the machine is back up (wire
        it as ``injector.on_restart(lambda _m: server.respawn(),
        machine=machine)``), this spawns a fresh process under the
        same label and re-installs the lookup handler, so in-flight
        clients fail over to the revived server on their next retry.
        Idempotent: a living server (or a still-down machine) is left
        alone.  Returns True if a fresh process was spawned.
        (Simulator transport only — real servers restart by
        reconnecting.)
        """
        if self.process is None:
            return False
        if self.process.alive or not self.machine.alive:
            return False
        self.endpoint = self.transport.endpoint(self.machine,
                                                self.process.label)
        self.process = self.endpoint.process
        self.endpoint.on_message(self._handle)
        if self._obs.enabled:
            self._obs.metrics.counter(
                "lookup_server_respawns_total",
                {"server": self.process.label}).inc()
        return True


@dataclass
class _Pending:
    request_id: int
    completion: Completion
    outcome: LookupOutcome
    steps: Any                     #: the lookup's walk_effects generator
    seq: int = 0                   #: requests sent; the last is awaited
    timer: Optional[Timer] = None  #: that request's timeout, or a backoff
    span: Optional[object] = None  #: the lookup's repro.obs span


class AsyncNameClient:
    """The client half: non-blocking compound-name resolution.

    Args:
        transport: The shared :class:`~repro.transport.base.Transport`
            (never run by the client).
        router: Who to ask for which step — ``replicas`` and
            ``target_on`` (sim: a :class:`PlacementRouter`).
        endpoint: The client's own endpoint (handler installed).
        timeout: Transport time to wait for each step's reply
            (virtual units on the simulator, wall seconds on asyncio).
        max_retries: Re-asks per replica of a step before the walk
            fails over to the next (or, out of replicas, fails the
            lookup).
        retry_policy: When set, each re-ask waits out an exponential
            backoff with seeded jitter (drawn from the transport's
            RNG — the kernel's on the simulator, so schedules stay
            deterministic per seed); ``None`` re-asks the instant the
            timeout fires.  :attr:`RetryPolicy.max_attempts` is
            ignored here — *max_retries* stays the attempt bound.
        lease_table: When set, the client participates in the lease
            callback protocol (:mod:`repro.nameservice.leases`): an
            incoming ``{"lease": {"op": "break", ...}}`` message
            revokes the named dependency from the table and is acked
            back to the sender (the ack continues the callback's
            trace context), counted in
            ``async_lease_callbacks_total``.

    Attributes:
        late_replies: Replies that arrived for an already-settled or
            already-retried step (mirrored in the
            ``async_late_replies_total`` metric).  They are discarded
            — the step's outcome is decided by timeout/retry — but
            counted, never silently dropped.
    """

    def __init__(self, transport: Transport, router: Any,
                 endpoint: Endpoint, *,
                 timeout: float = 5.0, max_retries: int = 2,
                 retry_policy: Optional[RetryPolicy] = None,
                 lease_table: Optional[LeaseTable] = None):
        self.transport = transport
        self.rng = transport.rng
        self.endpoint = endpoint
        self._home = endpoint.node
        self.router = router
        self.replicas = router.replicas
        self.target_on = router.target_on
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_policy = retry_policy
        self.lease_table = lease_table
        self.lease_callbacks = 0
        self.late_replies = 0
        self._pending: dict[int, _Pending] = {}
        self._ids = itertools.count(1)
        self._obs = transport.obs
        self.endpoint.on_message(self._on_message)

    # -- API ---------------------------------------------------------------

    def resolve(self, context: Context, name_: NameLike,
                completion: Completion) -> int:
        """Begin resolving *name_* in *context*; returns a request id.

        *completion* fires (from the transport's event loop) exactly
        once with the final :class:`LookupOutcome`.
        """
        name_ = CompoundName.coerce(name_)
        request_id = next(self._ids)
        outcome = LookupOutcome(name=name_)
        span = None
        if self._obs.enabled:
            # Not activated: many lookups interleave, so parenting by
            # an activation stack would cross-wire their traces.
            span = self._obs.tracer.begin(
                "lookup", str(name_) or "<empty>",
                self.transport.now(), parent=None, activate=False,
                attrs={"client": self.endpoint.label,
                       "transport": self.transport.kind})
        pending = _Pending(
            request_id, completion, outcome,
            walk_effects(self, outcome.cost, context, name_, self._home,
                         self._home, "lookup"), span=span)
        self._pending[request_id] = pending
        self._step(pending, None)
        return request_id

    def resolve_many(self, context: Context, names: list[NameLike],
                     completion: Callable[[list[LookupOutcome]], None],
                     ) -> list[int]:
        """Begin resolving a batch of names concurrently.

        All lookups are issued immediately, so their request/reply
        traffic interleaves in the transport and the batch completes
        in roughly one lookup's latency instead of the sum.
        *completion* fires exactly once, with one
        :class:`LookupOutcome` per input name in input order, after
        the last lookup settles.

        Returns the request ids, in input order.
        """
        outcomes: list[Optional[LookupOutcome]] = [None] * len(names)
        remaining = len(names)
        if remaining == 0:
            completion([])
            return []

        def finisher(index: int) -> Completion:
            def finish(outcome: LookupOutcome) -> None:
                nonlocal remaining
                outcomes[index] = outcome
                remaining -= 1
                if remaining == 0:
                    completion(outcomes)  # type: ignore[arg-type]
            return finish

        return [self.resolve(context, name_, finisher(index))
                for index, name_ in enumerate(names)]

    # -- the walk's host (see repro.nameservice.walk) ----------------------

    #: The walk never leaves the client, so every ask ships the
    #: unresolved suffix for its server to walk on; nothing is cached
    #: client-side, a lost directory ends the lookup (below), and no
    #: breaker guards a server.  The walk is built uninstrumented — its
    #: instants parent under the tracer's *active* span and lookups
    #: interleave — so the lookup span and the counters stay with this
    #: driver.
    parks = False
    obs = NO_OBS

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def now(self) -> float:
        return self.transport.now()

    def node_of(self, _target: Any) -> Any:
        return self._home  # the walk never leaves the client

    def cache_of(self, _home: Any) -> None:
        return None

    def breaker_for(self, _target: Any) -> None:
        return None

    def charge(self, _target: Any) -> None:
        pass

    # -- the walk's message-driven driver ----------------------------------

    def _step(self, pending: _Pending, reply: Any) -> None:
        """Resume the lookup's walk with *reply* and perform the
        effect it yields next: a request (plus its timeout timer) for
        an ask, a backoff timer for a wait.  A walk that returns
        settles the lookup — ``"timeout"`` if it lost a step (its
        answer is then ``⊥E``), else its entity."""
        try:
            effect = pending.steps.send(reply)
        except StopIteration as done:
            if pending.outcome.cost.failed:
                self._fail(pending, "timeout")
            else:
                self._finish(pending, done.value[0])
            return
        if effect.__class__ is Wait:
            pending.timer = self.transport.schedule(
                effect.delay, lambda: self._step(pending, None),
                note=f"lookup-backoff req#{pending.request_id}")
        else:
            self._send_request(pending, effect)

    def _send_request(self, pending: _Pending, ask: Ask) -> None:
        pending.seq += 1
        request = self.endpoint.send(ask.target, payload={"lookup": {
            "request_id": pending.request_id,
            "seq": pending.seq,
            "directory": ask.directory,
            "component": ask.component,
            "rest": ask.rest[:MAX_REST],
        }})
        if pending.span is not None:
            request.trace_id = pending.span.trace_id
            request.parent_span_id = pending.span.span_id
        pending.timer = self.transport.schedule(
            self.timeout, lambda: self._on_timeout(pending.request_id),
            note=f"lookup-timeout req#{pending.request_id}")

    def _on_message(self, _endpoint: Endpoint, message: Any) -> None:
        payload = message.payload
        if isinstance(payload, dict) and "lease" in payload:
            self._on_lease_message(message, payload["lease"])
            return
        if not isinstance(payload, dict) or "reply" not in payload:
            return
        reply = payload["reply"]
        pending = self._pending.get(reply["request_id"])
        if pending is None:
            # Late reply: the lookup already settled (typically a
            # timeout-failure) before the answer made it back.
            self._count_late_reply("settled")
            return
        if reply.get("seq") != pending.seq:
            # Late reply: a retry already superseded this attempt, so
            # this is the slow original (or a duplicate) finally
            # arriving.
            self._count_late_reply("superseded")
            return
        # The answer to the awaited request — in time, or during the
        # backoff before its re-send (the wait then ends early).
        pending.timer.cancel()
        self._step(pending, reply["trail"])

    def _on_lease_message(self, message: Any, body: dict) -> None:
        """Handle a server-initiated lease callback (break)."""
        if body.get("op") != "break" or self.lease_table is None:
            return
        now = self.transport.now()
        dep = body.get("dep")
        held = self.lease_table.revoke(dep, now)
        self.lease_callbacks += 1
        if self._obs.enabled:
            self._obs.metrics.counter(
                "async_lease_callbacks_total",
                {"held": str(held).lower()}).inc()
        ack = self.endpoint.send(message.sender, payload={"lease": {
            "op": "ack", "dep": dep, "held": held,
        }})
        # The ack continues the callback's trace.
        ack.trace_id = message.trace_id
        ack.parent_span_id = message.parent_span_id

    def _count_late_reply(self, kind: str) -> None:
        self.late_replies += 1
        if self._obs.enabled:
            self._obs.metrics.counter("async_late_replies_total",
                                      {"kind": kind}).inc()

    def _on_timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.outcome.retries += 1
        if self._obs.enabled:
            self._obs.metrics.counter("async_lookup_retries_total").inc()
        self._step(pending, LOST)

    # -- completion ------------------------------------------------------------------

    def _finish(self, pending: _Pending, entity: Entity) -> None:
        pending.outcome.entity = entity
        del self._pending[pending.request_id]
        self._observe_done(
            pending, "ok" if entity.is_defined() else "undefined")
        pending.completion(pending.outcome)

    def _fail(self, pending: _Pending, reason: str) -> None:
        pending.outcome.failed = True
        pending.outcome.reason = reason
        del self._pending[pending.request_id]
        if pending.span is not None:
            pending.span.fail(reason)
        self._observe_done(pending, "failed")
        pending.completion(pending.outcome)

    def abandon(self, request_id: int) -> bool:
        """Drop a lookup whose caller is gone: no completion fires, its
        timer and remaining re-asks die with it, and a reply that still
        arrives is a settled late reply.  False if already settled."""
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return False
        pending.timer.cancel()
        pending.steps.close()
        if pending.span is not None:
            pending.span.fail("abandoned")
        self._observe_done(pending, "abandoned")
        return True

    def _observe_done(self, pending: _Pending, outcome: str) -> None:
        if not self._obs.enabled:
            return
        span = pending.span
        if span is not None:
            if not span.muted:
                span.attrs.update(steps=pending.outcome.steps,
                                  retries=pending.outcome.retries)
            self._obs.tracer.end(span, self.transport.now())
        self._obs.metrics.counter("async_lookups_total",
                                  {"outcome": outcome}).inc()

    def outstanding(self) -> int:
        """Number of lookups still in flight."""
        return len(self._pending)

"""Naming over real sockets: server host + remote client glue.

:class:`NamingService` serves a namespace over an
:class:`~repro.transport.aio.AsyncioTransport`: the *unchanged*
:class:`~repro.nameservice.protocol.NameLookupServer` answers lookup
steps (told by the registry that it serves the whole tree, so it walks
a request's suffix to the end), and a small control endpoint (``ctl``)
answers hello/lease/rebind requests.  A rebind is the one write
discipline, :func:`~repro.nameservice.writes.write_effects`, run by the
transport seam's one effect interpreter
(:class:`~repro.nameservice.protocol.EffectDriver`, the lookup client's
too): a break leg is a callback frame plus an ack-timeout timer, a wait
a backoff timer, and the
:class:`~repro.nameservice.leases.LeaseManager`,
:class:`~repro.nameservice.retry.RetryPolicy` and
:class:`~repro.nameservice.retry.CircuitBreaker` objects are the ones
the simulator uses, read at the transport's wall clock.

:class:`RemoteNameClient` is the other half: it wraps the *unchanged*
:class:`~repro.nameservice.protocol.AsyncNameClient` with a
:class:`RemoteRouter` (every remote-directory step goes to a server
address; the shared walk fails over down the list), a proxy-cache codec,
and awaitable conveniences (:meth:`RemoteNameClient.resolve` turns
the completion-callback API into a coroutine).  Lease holders are
identified by connection session, so a multi-process demo
(``tools/serve_names.py``) gets real grant → rebind → break → ack
round trips over localhost.

The control vocabulary is plain JSON (the wire codec passes ``ctl``
payloads through untouched).  Every request carries an ``id`` that the
server echoes in its reply, whenever that reply is sent — a rebind
answers only when its fan-out ends, so replies do not arrive in request
order.  A request of the wrong shape is refused or dropped, never
raised into the connection's reader:

* ``{"ctl": {"op": "hello"}}`` → ``welcome`` with the root entity
  descriptor and the lookup endpoint's label;
* ``{"ctl": {"op": "lease-grant", "dep": [...]}}`` →
  ``lease-granted`` with the term (holder = the sending connection);
* ``{"ctl": {"op": "rebind", "path": [...], "label": ..,
  "dir": bool}}`` → break callbacks fan out to holders, then
  ``rebound`` reports the :class:`~repro.nameservice.writes.
  WriteReport`'s callback counts (or an ``error`` for a path that
  cannot be rebound);
* ``{"ctl": {"op": "stats"}}`` → server counters (requests served,
  frames, leases) for smoke checks.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import NameSyntaxError, SchemeError
from repro.model.context import Context, context_object
from repro.model.entities import Entity, ObjectEntity
from repro.model.names import ROOT_NAME
from repro.nameservice.cache import CachePolicy
from repro.nameservice.leases import LeaseManager, LeaseTable
from repro.nameservice.protocol import (AWAITED, AsyncNameClient,
                                        EffectDriver, NameLookupServer)
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.writes import write_effects
from repro.obs.instrument import Instrumentation
from repro.transport.aio import Address, AsyncioTransport
from repro.transport.base import Endpoint, Timer
from repro.transport.wire import (DirectoryRegistry, EntityProxyCache,
                                  RemoteEntity, WireCodec, describe_entity,
                                  remote_uid_of)

__all__ = ["RemoteRouter", "NamingService", "RemoteNameClient"]

CTL_LABEL = "ctl"


class RemoteRouter:
    """Client-side routing: remote-directory steps go to a server.

    Every step whose directory is a :class:`~repro.transport.wire.
    RemoteEntity` proxy has the server address list — primary first —
    as its replica candidates; steps through local contexts stay local
    (so a client may mix local bindings with the remote namespace).
    The walk (:mod:`repro.nameservice.walk`) fails over down the list
    when an address stops answering, making a replicated deployment
    survive a crashed replica exactly like the simulator's placement
    failover.
    """

    def __init__(self, addresses: Optional[list[Address]] = None):
        self.addresses: list[Address] = list(addresses or [])

    def replicas(self, directory: ObjectEntity,
                 component: str) -> list[Address]:
        if not isinstance(directory, RemoteEntity):
            return []
        if not self.addresses:
            raise SchemeError("RemoteRouter has no server addresses")
        return self.addresses

    def target_on(self, directory: ObjectEntity,
                  address: Address) -> Address:
        return address


def _dep_of(body: dict) -> Optional[tuple]:
    """*body*'s ``dep`` as a lease key, or None unless it is a list of
    strings and ints (a lease body's arrives decoded to a tuple)."""
    dep = body.get("dep")
    if isinstance(dep, (list, tuple)) and all(type(part) in (str, int)
                                              for part in dep):
        return tuple(dep)
    return None


@dataclass(eq=False)
class _Write:
    """One rebind in flight: its effects, whom to answer, and the timer
    (a backoff or an ack timeout) it waits on."""

    steps: Any
    reply_to: Any
    body: dict
    timer: Optional[Timer] = None


class NamingService(EffectDriver):
    """Serve a namespace root over asyncio TCP.

    The service is also the socket host of
    :func:`~repro.nameservice.writes.write_effects`: one server, no
    placement, leases for every holder.

    Args:
        root: The namespace root (a context object); the whole
            reachable tree is registered for wire decoding.
        seed: Seeds the transport RNG (fan-out backoff jitter).
        obs: Instrumentation (spans/metrics on the wall clock).
        lease_term: Server-side lease term, wall seconds.
        retry_policy: Break-callback retry discipline (``None`` = one
            attempt, no backoff).
        ack_timeout: Wall seconds to await each break callback's ack.
        auditor: Optional :class:`~repro.obs.audit.CoherenceAuditor`;
            wired onto the lookup server (every served step audited)
            and fed ``record_write`` on every control-plane rebind.
    """

    cache_policy = CachePolicy.LEASE
    placement = None
    holders = holder_node = call_back = None   # read only with a placement

    def __init__(self, root: Entity, *, seed: int = 0,
                 obs: Optional[Instrumentation] = None,
                 lease_term: float = 30.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 ack_timeout: float = 1.0,
                 auditor: Any = None):
        self.root = root
        self.registry = DirectoryRegistry()
        self.registry.register_tree(root)
        self.transport = AsyncioTransport(
            seed=seed, obs=obs, codec=WireCodec(registry=self.registry))
        self.now = self.transport.now
        self.rng = self.transport.rng
        self.obs = self.transport.obs
        self.server = NameLookupServer(self.transport,
                                       placement=self.registry)
        if auditor is not None:
            self.server.auditor = auditor
        self.auditor = auditor
        self.leases = LeaseManager(term=lease_term, obs=obs)
        self.retry_policy = retry_policy
        self.ack_timeout = ack_timeout
        self.epoch = 0
        self.rebinds = 0
        #: Acks no break callback awaited (late or unsolicited).
        self.late_acks = 0
        # Live lease-holding sessions: session id → reply address,
        # forgotten when the session's connection closes.
        self._holders: dict[int, Any] = {}
        self.transport.on_connection_closed = (
            lambda session: self._holders.pop(session, None))
        # Rebinds in flight; those awaiting each (dep, session)'s ack.
        self._writes: set[_Write] = set()
        self._awaiting: dict[tuple, list[_Write]] = {}
        self.ctl = self.transport.endpoint(label=CTL_LABEL)
        self.ctl.on_message(self._on_ctl)
        self.address: Optional[Address] = None

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Address:
        """Bind and listen; returns the lookup endpoint's address."""
        bound = await self.transport.listen(host, port)
        self.address = Address(bound.host, bound.port,
                               self.server.endpoint.label)
        return self.address

    async def aclose(self) -> None:
        """Stop in-flight rebinds (a fan-out may be mid-backoff), then
        close the transport."""
        for write in self._writes:
            write.timer.cancel()
            write.steps.close()
        self._writes.clear()
        self._awaiting.clear()
        await self.transport.aclose()

    # -- control plane -----------------------------------------------------

    def _on_ctl(self, endpoint: Endpoint, message: Any) -> None:
        payload = message.payload
        if not isinstance(payload, dict):
            return
        if "lease" in payload:  # ack riding back on the ctl label
            body = payload["lease"]
            if body.get("op") == "ack":
                self._on_ack(message.sender, body)
            return
        body = payload.get("ctl")
        if not isinstance(body, dict):
            return
        op = body.get("op")
        if op == "hello":
            self._reply(message.sender, body, {
                "op": "welcome",
                "root": describe_entity(self.root),
                "lookup": self.server.endpoint.label,
            })
        elif op == "lease-grant":
            self._grant(message.sender, body)
        elif op == "rebind":
            self._rebind(message.sender, body)
        elif op == "stats":
            self._reply(message.sender, body, {
                "op": "stats-reply",
                "requests_served": self.server.requests_served,
                "rebinds": self.rebinds,
                "leases": self.leases.stats(),
                "frames_delivered": self.transport.frames_delivered,
                "frames_dropped": self.transport.frames_dropped,
            })

    def _reply(self, sender: Any, request: dict, reply: dict) -> None:
        """Answer one control request, echoing its ``id``: the caller
        matches replies by it, never by arrival order."""
        reply["id"] = request.get("id")
        self.ctl.send(sender, payload={"ctl": reply})

    def _grant(self, sender: Any, body: dict) -> None:
        dep = _dep_of(body)
        if dep is None:
            return
        session = sender.session_id
        self._holders[session] = sender
        now = self.transport.now()
        lease = self.leases.grant(session, dep, now, self.epoch,
                                  machine_label=f"conn#{session}")
        self._reply(sender, body, {
            "op": "lease-granted", "dep": list(dep),
            "term": self.leases.term, "epoch": lease.epoch,
        })

    def _rebind(self, reply_to: Any, body: dict) -> None:
        """Rebind a path server-side: commit under the write
        discipline, then run its fan-out; ``rebound`` reports its
        callback counts when it settles."""
        path = body.get("path")

        def refuse(error: str) -> None:
            self._reply(reply_to, body, {
                "op": "rebound", "path": path, "error": error})

        if not isinstance(path, list) or not path \
                or not all(isinstance(c, str) for c in path):
            return refuse("path must be a non-empty list of names")
        parent: Entity = self.root
        for component in path[:-1]:
            parent = parent.state(component)
            if not parent.is_context_object():
                return refuse(f"not a directory at {component!r}")
        component = path[-1]
        label = body.get("label", component)
        if not isinstance(label, str):
            return refuse("label must be a string")
        new = (context_object if body.get("dir") else ObjectEntity)(label)
        write = _Write(write_effects(self, parent, component, new),
                       reply_to, body)
        try:
            next(write.steps)  # FANOUT: under LEASE every write fans out
        except NameSyntaxError as error:
            return refuse(str(error))
        self.registry.register(new)  # committed: make it decodable
        self.rebinds += 1
        self._writes.add(write)
        self._resume(write, None)

    def _perform(self, write: _Write, leg: Any) -> Any:
        """A break leg (behind no placement, nothing else is sent): a
        callback frame to the holder's live session, awaiting its ack
        under ``(dep, session)`` for :attr:`ack_timeout` seconds."""
        lease = leg.to
        holder = self._holders.get(lease.machine_id)
        if holder is None or holder.conn.closed:
            return False
        key = (lease.dep, lease.machine_id)
        self._awaiting.setdefault(key, []).append(write)
        self.ctl.send(holder, payload={"lease": {
            "op": "break", "dep": lease.dep,
        }})
        write.timer = self.transport.schedule(
            self.ack_timeout, lambda: self._ack_missed(key, write))
        return AWAITED

    def _ack_missed(self, key: tuple, write: _Write) -> None:
        self._awaiting[key].remove(write)
        if not self._awaiting[key]:
            del self._awaiting[key]
        self._resume(write, False)

    def _on_ack(self, sender: Any, body: dict) -> None:
        """One ack answers every write awaiting its ``(dep, session)``
        — overlapping breaks of one lease included — and is recorded
        once; an ack nobody awaits is counted in :attr:`late_acks`."""
        dep = _dep_of(body)
        if dep is None:
            return
        session = sender.session_id
        writes = self._awaiting.pop((dep, session), None)
        if writes is None:
            self.late_acks += 1
            return
        self.leases.record_ack(session, dep, self.transport.now())
        for write in writes:
            write.timer.cancel()
            self._resume(write, True)

    def _settle(self, write: _Write, report: Any) -> None:
        self._writes.discard(write)
        self._reply(write.reply_to, write.body, {
            "op": "rebound", "path": write.body["path"],
            "notified": report.notified, "broken": report.broken,
            "attempts": report.attempts, "skipped": report.skipped,
        })


class RemoteNameClient:
    """A socket-speaking name client around the unchanged protocol.

    Args:
        addresses: Server ``(host, port)`` pairs (or
            :class:`~repro.transport.aio.Address`), primary first;
            lookups fail over down the list.
        seed: Seeds the transport RNG (retry backoff jitter).
        obs: Instrumentation.
        timeout: Per-step reply timeout, wall seconds.
        retry_policy: Asks per server address of a step and the
            backoff between them; the default re-asks at once, three
            attempts in all.  ``None`` asks the primary address once
            and never fails over.
        label: This client's endpoint label.
    """

    def __init__(self, addresses: list, *, seed: int = 0,
                 obs: Optional[Instrumentation] = None,
                 timeout: float = 2.0,
                 retry_policy: Optional[RetryPolicy] = RetryPolicy(
                     max_attempts=3, base_backoff=0.0),
                 label: str = "client"):
        self._server_hosts = [(address[0], int(address[1]))
                              for address in addresses]
        self.proxies = EntityProxyCache()
        self.transport = AsyncioTransport(
            seed=seed, obs=obs, codec=WireCodec(proxies=self.proxies))
        self.endpoint = self.transport.endpoint(label=label)
        self.lease_table = LeaseTable(label, obs=obs)
        self.start = Context(label=f"{label}-start")
        self.router = RemoteRouter()
        self.client = AsyncNameClient(
            self.transport, self.router, self.endpoint,
            timeout=timeout, retry_policy=retry_policy,
            lease_table=self.lease_table)
        self.root: Optional[Entity] = None
        self._ctl_ids = itertools.count(1)
        self._ctl_waiters: dict[int, asyncio.Future] = {}
        #: Control replies nobody was waiting for any more (the call
        #: timed out or was cancelled); dropped, like a late lookup
        #: reply (``client.late_replies``).
        self.late_ctl_replies = 0
        # Route ctl replies to our futures; everything else to the
        # protocol client's handler (installed by its constructor).
        protocol_handler = self.endpoint._handler

        def dispatch(endpoint: Endpoint, envelope: Any) -> None:
            payload = envelope.payload
            if isinstance(payload, dict) and "ctl" in payload:
                self._on_ctl_reply(payload["ctl"])
                return
            protocol_handler(endpoint, envelope)

        self.endpoint.on_message(dispatch)

    # -- control-plane round trips ----------------------------------------

    def _ctl_address(self, index: int = 0) -> Address:
        host, port = self._server_hosts[index]
        return Address(host, port, CTL_LABEL)

    def _on_ctl_reply(self, body: dict) -> None:
        call_id = body.get("id")
        future = (self._ctl_waiters.pop(call_id, None)
                  if isinstance(call_id, int) else None)
        if future is None or future.done():
            self.late_ctl_replies += 1
        else:
            future.set_result(body)

    async def _ctl_call(self, request: dict, timeout: float = 5.0,
                        index: int = 0) -> dict:
        """One control round trip: the reply is the one carrying this
        request's id, however many calls are in flight."""
        call_id = next(self._ctl_ids)
        future = asyncio.get_running_loop().create_future()
        self._ctl_waiters[call_id] = future
        self.endpoint.send(self._ctl_address(index),
                           payload={"ctl": {**request, "id": call_id}})
        deadline = self._deadline(future, timeout)
        try:
            return await future
        finally:
            # Timed out or cancelled: a reply that still comes is late.
            deadline.cancel()
            self._ctl_waiters.pop(call_id, None)

    def _deadline(self, future: asyncio.Future, timeout: float) -> Timer:
        """Fail *future* with :class:`asyncio.TimeoutError` unless it
        settles within *timeout* wall seconds: one transport timer,
        which the awaiting caller cancels on its way out."""
        return self.transport.schedule(
            timeout, lambda: future.done()
            or future.set_exception(asyncio.TimeoutError()))

    async def connect(self, timeout: float = 5.0) -> Entity:
        """Hello every server; install the root proxy; returns it."""
        addresses = []
        for index in range(len(self._server_hosts)):
            welcome = await self._ctl_call({"op": "hello"}, timeout,
                                           index=index)
            host, port = self._server_hosts[index]
            addresses.append(Address(host, port, welcome["lookup"]))
            if self.root is None:
                self.root = self.proxies.proxy(welcome["root"])
        self.router.addresses = addresses
        self.start.bind(ROOT_NAME, self.root)
        return self.root

    async def resolve(self, name: Any, timeout: float = 30.0):
        """Awaitable resolution: returns the final
        :class:`~repro.nameservice.protocol.LookupOutcome`."""
        future = asyncio.get_running_loop().create_future()
        request_id = self.client.resolve(
            self.start, name,
            lambda outcome: future.done() or future.set_result(outcome))
        deadline = self._deadline(future, timeout)
        try:
            return await future
        finally:
            # Timed out or cancelled: nobody is left to hear the answer.
            deadline.cancel()
            self.client.abandon(request_id)

    async def lease(self, dep: tuple, timeout: float = 5.0) -> dict:
        """Take a lease on *dep*; installs the client-side grant."""
        granted = await self._ctl_call(
            {"op": "lease-grant", "dep": list(dep)}, timeout)
        self.lease_table.grant(tuple(granted["dep"]),
                               self.transport.now(), granted["term"],
                               granted["epoch"])
        return granted

    async def rebind(self, path: list, label: str = "",
                     directory: bool = False,
                     timeout: float = 30.0) -> dict:
        """Ask the server to rebind *path*; returns the fan-out
        counts after break callbacks settle."""
        return await self._ctl_call(
            {"op": "rebind", "path": list(path), "label": label,
             "dir": directory}, timeout)

    async def stats(self, timeout: float = 5.0) -> dict:
        return await self._ctl_call({"op": "stats"}, timeout)

    async def aclose(self) -> None:
        await self.transport.aclose()

    def dep_for(self, directory: Entity, component: str) -> tuple:
        """The lease dependency key for one binding: the simulator's
        :func:`~repro.nameservice.cache.binding_dep` key, with the
        server's uid for proxies, so the write path keys it alike."""
        return ("d", remote_uid_of(directory), component)

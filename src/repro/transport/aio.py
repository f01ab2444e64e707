"""AsyncioTransport: the naming protocol on real TCP sockets.

The second implementation of the seam (:mod:`repro.transport.base`):
endpoints are named mailboxes multiplexed over real asyncio TCP
connections, frames are length-prefixed JSON
(:mod:`repro.transport.framing`), payloads cross through a
:class:`~repro.transport.wire.WireCodec`, and timers run on the wall
clock — so the *identical* lookup/retry/lease client code backs off
in real seconds.

Topology model:

* A **serving** transport calls :meth:`AsyncioTransport.listen`; each
  accepted connection gets a reader task that reassembles frames and
  dispatches them to the addressed endpoint.
* A **connecting** transport sends to ``(host, port, label)``
  addresses; connections are pooled per ``(host, port)`` and opened
  lazily on first send (frames queue while the dial is in flight).
* Replies travel back over the *same* connection: a received
  envelope's ``sender`` is a :class:`ConnAddress` bound to the live
  connection, so clients never need to listen.

Failure semantics mirror the simulator's: a frame toward a dead or
unreachable peer is *dropped* (counted in ``frames_dropped``), and
the protocol's timeout/retry machinery — unchanged — turns the loss
into a backoff and resend.  ``send`` never blocks and never raises
for network reasons.

Like the simulator, ``send`` returns the envelope before the bytes
leave, so callers attach trace context exactly as they do on the
kernel: envelopes queue until the next loop tick, when one flush
serializes them all and issues one ``write`` per connection.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.instrument import NO_OBS, Instrumentation
from repro.transport.base import Endpoint, Handler, Timer, Transport
from repro.transport.framing import FrameDecoder, FrameError, encode_frame
from repro.transport.wire import WireCodec, WireError

__all__ = ["Address", "ConnAddress", "AsyncioEnvelope",
           "AsyncioEndpoint", "AsyncioTransport"]


class Address(tuple):
    """A dialable endpoint address: ``(host, port, label)``."""

    __slots__ = ()

    def __new__(cls, host: str, port: int, label: str):
        return super().__new__(cls, (host, int(port), label))

    @property
    def host(self) -> str:
        return self[0]

    @property
    def port(self) -> int:
        return self[1]

    @property
    def label(self) -> str:
        return self[2]

    def __repr__(self) -> str:
        return f"{self[0]}:{self[1]}/{self[2]}"


class ConnAddress:
    """A reply address: an endpoint label reachable over a live
    connection (how a server answers a non-listening client)."""

    __slots__ = ("conn", "label")

    def __init__(self, conn: "_Connection", label: str):
        self.conn = conn
        self.label = label

    @property
    def session_id(self) -> int:
        """The connection's transport-unique id — a stable stand-in
        for "which client machine" (e.g. lease holder identity)."""
        return self.conn.session_id

    def __repr__(self) -> str:
        return f"<ConnAddress {self.label!r} via conn#{self.conn.session_id}>"


class AsyncioEnvelope:
    """One in-flight payload (see :class:`repro.transport.base.Envelope`)."""

    __slots__ = ("payload", "sender", "trace_id", "parent_span_id")

    def __init__(self, payload: Any, sender: Any = None):
        self.payload = payload
        self.sender = sender
        self.trace_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None


#: Bytes asked of the socket per read.  asyncio's selector transport
#: allocates its whole ``recv()`` buffer anew for every read, 256 KiB
#: by default: above glibc's mmap threshold, so unless the heap happens
#: to hold a hole that large (import order decides) each read is an
#: mmap, two page faults and a munmap — a third of a loopback lookup's
#: CPU.  Frames are a few hundred bytes; 64 KiB always comes off the heap.
_READ_SIZE = 65536


class _Connection:
    """One TCP connection: reader task + framed writes."""

    _ids = itertools.count(1)

    def __init__(self, transport: "AsyncioTransport",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 peer_key: Optional[tuple[str, int]] = None):
        self.transport = transport
        self.reader = reader
        self.writer = writer
        if hasattr(writer.transport, "max_size"):  # selector loops only
            writer.transport.max_size = _READ_SIZE
        self.peer_key = peer_key
        self.session_id = next(_Connection._ids)
        self.closed = False
        self.decoder = FrameDecoder()
        self.reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(_READ_SIZE)
                if not data:
                    break
                for frame in self.decoder.feed(data):
                    self.transport._dispatch(frame, self)
        except (ConnectionError, FrameError, asyncio.CancelledError):
            pass
        finally:
            self._mark_closed()

    def write(self, frames: list[bytes]) -> bool:
        """All of *frames* in one ``write`` — or (False) none of them,
        dropped and counted."""
        if not (self.closed or self.writer.is_closing()):
            try:
                self.writer.write(b"".join(frames))
                return True
            except (ConnectionError, RuntimeError):
                self._mark_closed()
        self.transport.frames_dropped += len(frames)
        return False

    def _mark_closed(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.transport._forget_connection(self)
        try:
            self.writer.close()
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    async def aclose(self) -> None:
        self._mark_closed()
        self.reader_task.cancel()
        try:
            await self.reader_task
        except asyncio.CancelledError:  # pragma: no cover
            pass


class _Peer:
    """Outbound state toward one (host, port): a connection or a dial
    in flight with frames queued behind it."""

    __slots__ = ("conn", "queue", "dialing")

    def __init__(self) -> None:
        self.conn: Optional[_Connection] = None
        self.queue: list[bytes] = []
        self.dialing = False


class _Timer:
    """What :meth:`AsyncioTransport.schedule` returns: one deadline in a
    :class:`_TimerLane`, which holds its action only until it settles."""

    __slots__ = ("when", "seq", "lane")

    def __init__(self, when: float, seq: int, lane: "_TimerLane"):
        self.when, self.seq, self.lane = when, seq, lane

    def cancel(self) -> None:
        lane, self.lane = self.lane, None
        if lane is not None:
            del lane.timers[self]
            if not lane.timers:
                lane.handle.cancel()
                lane.drop()


class _TimerLane:
    """The pending timers of one delay on one loop.  With one delay, the
    order they were set in is deadline order, so their dict is a sorted
    FIFO, served by one loop handle armed at the head's deadline (a
    cancelled head leaves it armed; the pass it wakes re-arms at the new
    head).  An emptied lane cancels its handle and leaves ``lanes``."""

    __slots__ = ("lanes", "loop", "delay", "timers", "added", "handle")

    def __init__(self, lanes: dict, loop: asyncio.AbstractEventLoop,
                 delay: float):
        self.lanes, self.loop, self.delay = lanes, loop, delay
        self.timers: dict[_Timer, Callable[[], None]] = {}
        self.added = 0  #: timers ever set here; a timer's seq is its rank
        self.handle: Optional[asyncio.TimerHandle] = None

    def add(self, action: Callable[[], None]) -> _Timer:
        timer = _Timer(self.loop.time() + self.delay, self.added, self)
        self.added += 1
        self.timers[timer] = action
        if self.handle is None:
            self.handle = self.loop.call_at(timer.when, self.fire)
        return timer

    def drop(self) -> None:
        if self.lanes.get(self.delay) is self:
            del self.lanes[self.delay]

    def fire(self) -> None:
        """Run, in order, each timer due and set before this pass; one an
        action sets waits for a later pass, whatever its delay."""
        loop, timers, limit = self.loop, self.timers, self.added
        now = max(loop.time(), self.handle.when())
        while timers:
            timer = next(iter(timers))
            if timer.when > now or timer.seq >= limit:
                self.handle = loop.call_at(timer.when, self.fire)
                return
            action = timers.pop(timer)
            timer.lane = None
            try:
                action()
            except (SystemExit, KeyboardInterrupt):
                raise
            except BaseException as exc:  # as asyncio's handles: report, go on
                loop.call_exception_handler({"exception": exc, "message":
                                             f"Exception in timer {action!r}"})
        self.drop()


class AsyncioEndpoint(Endpoint):
    """A named mailbox on an :class:`AsyncioTransport`."""

    def __init__(self, transport: "AsyncioTransport", label: str):
        self.transport = transport
        self.label = label
        self._handler: Optional[Handler] = None

    def on_message(self, handler: Handler) -> None:
        self._handler = handler

    def send(self, target: Any, payload: Any = None) -> AsyncioEnvelope:
        envelope = AsyncioEnvelope(payload)
        self.transport._post(self, target, envelope)
        return envelope

    @property
    def node(self) -> Any:
        return (self.transport.host, self.transport.port)

    def _deliver(self, envelope: AsyncioEnvelope) -> None:
        if self._handler is not None:
            self._handler(self, envelope)

    def __repr__(self) -> str:
        return f"<AsyncioEndpoint {self.label!r}>"


class AsyncioTransport(Transport):
    """The real-socket substrate behind the transport seam.

    Args:
        seed: Seeds :attr:`rng` (backoff jitter) — schedules are
            reproducible per seed even though delivery timing is not.
        obs: Instrumentation; spans/metrics get wall-clock times.
        codec: The :class:`~repro.transport.wire.WireCodec` applied to
            every payload (default: pass-through for JSON-framable
            payloads; servers pass one wired to their registry,
            clients one wired to their proxy cache).

    Counters (plain ints, mirroring the kernel's message totals):
    ``frames_sent``, ``frames_delivered``, ``frames_dropped``.
    """

    kind = "asyncio"

    def __init__(self, *, seed: int = 0,
                 obs: Optional[Instrumentation] = None,
                 codec: Optional[WireCodec] = None):
        self.rng = random.Random(seed)
        self.obs = obs if obs is not None else NO_OBS
        self.codec = codec if codec is not None else WireCodec()
        self.host: str = "127.0.0.1"
        self.port: Optional[int] = None
        self._endpoints: dict[str, AsyncioEndpoint] = {}
        self._peers: dict[tuple[str, int], _Peer] = {}
        self._accepted: list[_Connection] = []
        self._server: Optional[asyncio.AbstractServer] = None
        #: Pending timers by delay (see :class:`_TimerLane`).
        self._lanes: dict[float, _TimerLane] = {}
        #: Envelopes sent since the last flush: (route, to, frm, envelope).
        self._outbox: list[tuple] = []
        #: Called with the session id of every connection that closes,
        #: so a server can drop the state it keeps per session.
        self.on_connection_closed: Optional[Callable[[int], None]] = None
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0

    # -- Transport contract ------------------------------------------------

    def now(self) -> float:
        """Wall-clock seconds (monotonic — same clock asyncio timers
        fire on, so deadlines and ``now()`` agree)."""
        return time.monotonic()

    def schedule(self, delay: float, action: Callable[[], None],
                 note: str = "") -> Timer:
        if delay < 0:
            raise SimulationError("cannot schedule in the past")
        loop = asyncio.get_running_loop()
        lane = self._lanes.get(delay)
        if lane is None or lane.loop is not loop:  # none, or a dead loop's
            lane = self._lanes[delay] = _TimerLane(self._lanes, loop, delay)
        return lane.add(action)

    def endpoint(self, node: Any = None,
                 label: str = "") -> AsyncioEndpoint:
        if not label:
            label = f"endpoint-{len(self._endpoints) + 1}"
        existing = self._endpoints.get(label)
        if existing is not None:
            return existing
        endpoint = AsyncioEndpoint(self, label)
        self._endpoints[label] = endpoint
        return endpoint

    # -- lifecycle ---------------------------------------------------------

    async def listen(self, host: str = "127.0.0.1",
                     port: int = 0) -> Address:
        """Start accepting connections; returns the bound address
        (with the endpoint label left empty)."""
        self._server = await asyncio.start_server(
            self._on_accept, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return Address(self.host, self.port, "")

    async def aclose(self) -> None:
        """Close the listener and every connection (both directions)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        conns = [peer.conn for peer in self._peers.values()
                 if peer.conn is not None]
        conns.extend(self._accepted)
        self._peers.clear()
        self._accepted = []
        for conn in conns:
            await conn.aclose()

    async def _on_accept(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        self._accepted.append(_Connection(self, reader, writer))

    # -- outbound ----------------------------------------------------------

    def _post(self, sender: AsyncioEndpoint, target: Any,
              envelope: AsyncioEnvelope) -> None:
        """Queue the envelope for this loop tick's flush, so the
        caller may attach trace context after ``send`` returns — the
        same contract the simulator's ``send`` gives its callers."""
        if isinstance(target, ConnAddress):
            route, label = target.conn, target.label
        elif isinstance(target, AsyncioEndpoint):
            route, label = None, target.label
        elif isinstance(target, tuple) and len(target) == 3:
            route, label = (target[0], int(target[1])), target[2]
        else:
            raise SimulationError(
                f"AsyncioEndpoint cannot address {target!r}")
        self.frames_sent += 1
        if not self._outbox:
            asyncio.get_running_loop().call_soon(self._flush)
        self._outbox.append((route, label, sender.label, envelope))

    def _flush(self) -> None:
        """Serialize every envelope queued since the last tick and
        write each connection's frames at once."""
        outbox, self._outbox = self._outbox, []
        batches: dict[Any, list[bytes]] = {}
        for route, label, sender, envelope in outbox:
            frame = {"to": label, "frm": sender,
                     "p": self.codec.encode(envelope.payload)}
            if envelope.trace_id is not None \
                    or envelope.parent_span_id is not None:
                frame["t"] = [envelope.trace_id, envelope.parent_span_id]
            if route is None:
                # Loopback: still round-trip the codec, so in-process
                # endpoints see exactly the wire's visible payloads.
                self._dispatch(frame, None)
                continue
            try:
                batches.setdefault(route, []).append(encode_frame(frame))
            except FrameError:  # oversized: lost like any other frame
                self.frames_dropped += 1
        for route, frames in batches.items():
            if isinstance(route, tuple):
                self._send_dialed(route, frames)
            else:
                route.write(frames)

    def _send_dialed(self, key: tuple[str, int],
                     frames: list[bytes]) -> None:
        peer = self._peers.get(key)
        if peer is None:
            peer = self._peers[key] = _Peer()
        if peer.conn is not None:
            peer.conn.write(frames)
            return
        peer.queue.extend(frames)
        if not peer.dialing:
            peer.dialing = True
            asyncio.get_running_loop().create_task(self._dial(key, peer))

    async def _dial(self, key: tuple[str, int], peer: _Peer) -> None:
        try:
            reader, writer = await asyncio.open_connection(*key)
        except OSError:
            # Unreachable peer: the queued frames are lost exactly as
            # a partitioned simulator message would be — the caller's
            # timeout/retry machinery owns recovery.
            self.frames_dropped += len(peer.queue)
            peer.queue = []
            peer.dialing = False
            return
        peer.conn = _Connection(self, reader, writer, peer_key=key)
        peer.dialing = False
        queued, peer.queue = peer.queue, []
        peer.conn.write(queued)

    def _forget_connection(self, conn: _Connection) -> None:
        if conn.peer_key is not None:
            peer = self._peers.get(conn.peer_key)
            if peer is not None and peer.conn is conn:
                peer.conn = None
        if conn in self._accepted:
            self._accepted.remove(conn)
        if self.on_connection_closed is not None:
            self.on_connection_closed(conn.session_id)

    # -- inbound -----------------------------------------------------------

    def _dispatch(self, frame: Any, conn: Optional[_Connection]) -> None:
        """Deliver one inbound frame to the endpoint it addresses
        (*conn* is ``None`` for a loopback frame, whose sender is the
        local endpoint itself).

        Frames come from outside the program: one that is not an
        envelope for a live endpoint, or whose payload the codec
        rejects, is dropped and counted — it must never raise into
        the connection's reader and take every pipelined request on
        that connection down with it.
        """
        endpoint = None
        if isinstance(frame, dict) and isinstance(frame.get("to"), str):
            endpoint = self._endpoints.get(frame["to"])
        if endpoint is not None:
            try:
                payload = self.codec.decode(frame.get("p"))
            except WireError:
                endpoint = None
        if endpoint is None:
            self.frames_dropped += 1
            return
        sender = frame.get("frm", "")
        envelope = AsyncioEnvelope(
            payload,
            sender=(ConnAddress(conn, sender) if conn is not None
                    else self._endpoints.get(sender)))
        trace = frame.get("t")
        if isinstance(trace, list) and len(trace) == 2:
            envelope.trace_id, envelope.parent_span_id = trace
        self.frames_delivered += 1
        endpoint._deliver(envelope)

    def __repr__(self) -> str:
        where = (f"{self.host}:{self.port}" if self.port is not None
                 else "not listening")
        return (f"<AsyncioTransport {where} sent={self.frames_sent} "
                f"delivered={self.frames_delivered} "
                f"dropped={self.frames_dropped}>")

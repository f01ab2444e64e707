"""AsyncioTransport: real sockets behind the same seam.

Covers the substrate mechanics (loopback, sockets, reply addresses,
trace context, drop-on-unreachable, wall-clock timers); the protocol
running over it end-to-end is ``test_service.py``/``test_parity.py``.
"""

from __future__ import annotations

import asyncio
import socket
import weakref

import pytest

from repro.errors import SimulationError
from repro.transport import aio
from repro.transport.aio import Address, AsyncioTransport
from repro.transport.base import Transport
from repro.transport.framing import FrameDecoder, FrameError


def free_port() -> int:
    """A port nothing is listening on (bound once, then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run(coroutine):
    return asyncio.run(coroutine)


class TestBasics:
    def test_is_a_transport(self):
        transport = AsyncioTransport()
        assert isinstance(transport, Transport)
        assert transport.kind == "asyncio"

    def test_now_is_wall_clock(self):
        async def scenario():
            transport = AsyncioTransport()
            before = transport.now()
            await asyncio.sleep(0.02)
            return transport.now() - before
        assert run(scenario()) >= 0.015

    def test_endpoint_registry_by_label(self):
        transport = AsyncioTransport()
        a = transport.endpoint(label="a")
        assert transport.endpoint(label="a") is a
        assert transport.endpoint(label="b") is not a
        anonymous = transport.endpoint()
        assert anonymous.label  # auto-named

    def test_schedule_rejects_negative_delay(self):
        async def scenario():
            with pytest.raises(SimulationError):
                AsyncioTransport().schedule(-1.0, lambda: None)
        run(scenario())

    def test_timers_fire_and_cancel_on_wall_clock(self):
        async def scenario():
            transport = AsyncioTransport()
            fired = []
            transport.schedule(0.01, lambda: fired.append("a"))
            timer = transport.schedule(0.01, lambda: fired.append("b"))
            timer.cancel()
            await asyncio.sleep(0.05)
            return fired
        assert run(scenario()) == ["a"]


def live_handles(loop: asyncio.AbstractEventLoop) -> list:
    return [handle for handle in loop._scheduled if not handle.cancelled()]


class TestTimerLanes:
    """``schedule`` keeps one FIFO per delay, each behind one loop
    handle; ``Timer.cancel`` and the deadline contract are unchanged."""

    def test_one_delay_fires_in_the_order_set(self):
        async def scenario():
            transport = AsyncioTransport()
            fired = []
            for i in range(6):
                transport.schedule(0.01, lambda i=i: fired.append(i))
            await asyncio.sleep(0.05)
            return fired
        assert run(scenario()) == [0, 1, 2, 3, 4, 5]

    def test_mixed_delays_fire_by_deadline(self):
        async def scenario():
            transport = AsyncioTransport()
            fired = []
            for delay, tag in ((0.03, "c"), (0.01, "a"), (0.0, "now"),
                               (0.02, "b"), (0.01, "a2")):
                transport.schedule(delay, lambda tag=tag: fired.append(tag))
            await asyncio.sleep(0.06)
            return fired
        assert run(scenario()) == ["now", "a", "a2", "b", "c"]

    def test_a_timer_never_fires_early(self):
        """A cancelled head leaves the lane armed at its deadline; the
        pass it wakes re-arms at the next head instead of firing it."""
        async def scenario():
            transport = AsyncioTransport()
            fired = []
            head = transport.schedule(0.02, lambda: fired.append("head"))
            await asyncio.sleep(0.01)
            due = transport.now() + 0.02
            transport.schedule(0.02, lambda: fired.append(transport.now()))
            head.cancel()
            await asyncio.sleep(0.05)
            return fired, due
        (when,), due = run(scenario())
        assert when >= due

    def test_cancel_is_a_no_op_after_the_first(self):
        async def scenario():
            transport = AsyncioTransport()
            fired = []
            early = transport.schedule(0.01, lambda: fired.append("early"))
            kept = transport.schedule(0.01, lambda: fired.append("kept"))
            early.cancel()
            early.cancel()                # twice, before it was due
            await asyncio.sleep(0.03)
            kept.cancel()                 # after it fired
            kept.cancel()
            transport.schedule(0.01, lambda: fired.append("later"))
            await asyncio.sleep(0.03)
            return fired
        assert run(scenario()) == ["kept", "later"]

    def test_a_raising_action_goes_to_the_loop_and_the_pass_goes_on(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(
                lambda _loop, context: errors.append(context))
            transport = AsyncioTransport()
            fired = []
            transport.schedule(0.01, lambda: fired.append("before"))
            transport.schedule(0.01, lambda: 1 / 0)
            transport.schedule(0.01, lambda: fired.append("after"))
            transport.schedule(0.02, lambda: fired.append("next lane"))
            await asyncio.sleep(0.05)
            return fired, errors
        fired, errors = run(scenario())
        assert fired == ["before", "after", "next lane"]
        [context] = errors
        assert isinstance(context["exception"], ZeroDivisionError)
        assert "Exception in timer" in context["message"]

    @pytest.mark.parametrize("delay", [0.0, 0.01])
    def test_a_timer_an_action_sets_waits_for_a_later_pass(self, delay):
        """One set from inside a pass, with the lane's own delay or
        delay 0, fires after the loop has moved on: after a callback
        the action queued with ``call_soon``, never inside its pass —
        even on a clock too coarse to have moved since the pass began."""
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = AsyncioTransport()
            fired = []
            started = loop.time()

            def setter():
                fired.append("setter")
                loop.time = lambda: started   # a clock that did not move
                try:
                    transport.schedule(delay, lambda: fired.append("same"))
                    transport.schedule(0, lambda: fired.append("zero"))
                finally:
                    del loop.time
                loop.call_soon(lambda: fired.append("tick"))
            transport.schedule(delay, setter)
            transport.schedule(delay, lambda: fired.append("tail"))
            await asyncio.sleep(delay + 0.03)
            return fired
        fired = run(scenario())
        assert fired[:3] == ["setter", "tail", "tick"]
        assert sorted(fired[3:]) == ["same", "zero"]

    def test_a_settled_timer_lets_go_of_its_action(self):
        """A timer the caller still holds does not keep what its action
        closes over alive once it fired or was cancelled."""
        async def scenario():
            transport = AsyncioTransport()

            class Record:
                pass
            held = []
            for fire in (False, True):
                record = Record()
                timer = transport.schedule(0, lambda record=record: None)
                held.append((timer, weakref.ref(record)))
                del record
                if fire:
                    await asyncio.sleep(0.01)
                else:
                    timer.cancel()
            return [ref() for _timer, ref in held]
        assert run(scenario()) == [None, None]

    def test_a_negative_delay_raises_and_sets_nothing(self):
        async def scenario():
            transport = AsyncioTransport()
            with pytest.raises(SimulationError):
                transport.schedule(-1, lambda: None)
            assert transport._lanes == {}
            assert not live_handles(asyncio.get_running_loop())
        run(scenario())

    def test_one_handle_per_delay_and_none_once_all_are_cancelled(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = AsyncioTransport()
            timers = [transport.schedule(delay, lambda: None)
                      for delay in (2.0, 30.0, 2.0, 2.0, 0.5)]
            assert len(live_handles(loop)) == 3
            for timer in timers:
                timer.cancel()
            assert not live_handles(loop)
            assert transport._lanes == {}
        run(scenario())


class TestLoopback:
    def test_local_send_round_trips_codec(self):
        async def scenario():
            transport = AsyncioTransport()
            a = transport.endpoint(label="a")
            b = transport.endpoint(label="b")
            got = []
            b.on_message(lambda _e, env: got.append(env))
            envelope = a.send(b, payload={"n": 1})
            envelope.trace_id = "T"       # attached after send returns
            envelope.parent_span_id = "S"
            await asyncio.sleep(0)        # one loop tick to deliver
            await asyncio.sleep(0)
            (env,) = got
            assert env.payload == {"n": 1}
            assert (env.trace_id, env.parent_span_id) == ("T", "S")
            # The sender address is a valid reply target.
            reply_got = []
            a.on_message(lambda _e, env2: reply_got.append(env2.payload))
            b.send(env.sender, payload="reply")
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert reply_got == ["reply"]
        run(scenario())


class TestSockets:
    def test_request_reply_over_tcp(self):
        async def scenario():
            server = AsyncioTransport()
            serving = server.endpoint(label="svc")

            def answer(endpoint, envelope):
                endpoint.send(envelope.sender,
                              payload={"echo": envelope.payload,
                                       "from": endpoint.label})
            serving.on_message(answer)
            bound = await server.listen()

            client = AsyncioTransport()
            asker = client.endpoint(label="asker")
            replies = asyncio.Queue()
            asker.on_message(
                lambda _e, env: replies.put_nowait(env))
            asker.send(Address(bound.host, bound.port, "svc"),
                       payload=[1, 2])
            env = await asyncio.wait_for(replies.get(), 5)
            assert env.payload == {"echo": [1, 2], "from": "svc"}
            # The server saw a ConnAddress sender with a session id.
            assert env.sender.label == "svc"
            assert server.frames_delivered == 1
            assert client.frames_delivered == 1
            await client.aclose()
            await server.aclose()
        run(scenario())

    def test_trace_context_crosses_the_wire(self):
        async def scenario():
            server = AsyncioTransport()
            seen = asyncio.Queue()
            server.endpoint(label="svc").on_message(
                lambda _e, env: seen.put_nowait(
                    (env.trace_id, env.parent_span_id)))
            bound = await server.listen()
            client = AsyncioTransport()
            sender = client.endpoint(label="c")
            envelope = sender.send(
                Address(bound.host, bound.port, "svc"), payload="x")
            envelope.trace_id = "trace-9"
            envelope.parent_span_id = "span-4"
            assert await asyncio.wait_for(seen.get(), 5) == \
                ("trace-9", "span-4")
            await client.aclose()
            await server.aclose()
        run(scenario())

    def test_unreachable_peer_drops_frames(self):
        """Sends toward a dead port are dropped (counted), never
        raised — the protocol's timeout owns recovery."""
        async def scenario():
            transport = AsyncioTransport()
            endpoint = transport.endpoint(label="c")
            dead = Address("127.0.0.1", free_port(), "svc")
            endpoint.send(dead, payload="lost-1")
            endpoint.send(dead, payload="lost-2")
            for _ in range(50):
                if transport.frames_dropped == 2:
                    break
                await asyncio.sleep(0.01)
            assert transport.frames_dropped == 2
            assert transport.frames_sent == 2
            await transport.aclose()
        run(scenario())

    def test_unknown_endpoint_label_drops(self):
        async def scenario():
            server = AsyncioTransport()
            server.endpoint(label="svc").on_message(lambda _e, _env: None)
            bound = await server.listen()
            client = AsyncioTransport()
            client.endpoint(label="c").send(
                Address(bound.host, bound.port, "no-such-label"),
                payload="x")
            for _ in range(50):
                if server.frames_dropped:
                    break
                await asyncio.sleep(0.01)
            assert server.frames_dropped == 1
            await client.aclose()
            await server.aclose()
        run(scenario())

    def test_connection_pooled_per_peer(self):
        async def scenario():
            server = AsyncioTransport()
            hits = asyncio.Queue()
            server.endpoint(label="svc").on_message(
                lambda _e, env: hits.put_nowait(env.sender.session_id))
            bound = await server.listen()
            client = AsyncioTransport()
            endpoint = client.endpoint(label="c")
            target = Address(bound.host, bound.port, "svc")
            for index in range(3):
                endpoint.send(target, payload=index)
            sessions = {await asyncio.wait_for(hits.get(), 5)
                        for _ in range(3)}
            assert len(sessions) == 1  # one connection, three frames
            await client.aclose()
            await server.aclose()
        run(scenario())


class _RawPeer:
    """A listening socket that keeps what arrives, so a test sees the
    frames as the wire carries them."""

    def __init__(self):
        self.decoder = FrameDecoder()
        self.frames: list = []

    async def start(self) -> Address:
        async def on_accept(reader, writer):
            try:
                while data := await reader.read(65536):
                    self.frames.extend(self.decoder.feed(data))
            finally:
                writer.close()
        self.server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
        host, port = self.server.sockets[0].getsockname()[:2]
        return Address(host, port, "svc")

    async def got(self, count: int) -> None:
        for _ in range(200):
            if len(self.frames) >= count:
                return
            await asyncio.sleep(0.01)
        raise AssertionError(f"only {len(self.frames)} frames arrived")

    async def aclose(self) -> None:
        self.server.close()
        await self.server.wait_closed()


class TestFlush:
    """One flush per loop tick: every envelope sent in the tick is
    serialized then, and each connection is written once."""

    def test_a_ticks_frames_leave_in_one_write_in_order(self, monkeypatch):
        async def scenario():
            peer = _RawPeer()
            target = await peer.start()
            transport = AsyncioTransport()
            endpoint = transport.endpoint(label="c")
            endpoint.send(target, payload="dial")   # opens the connection
            await peer.got(1)
            writes = []
            original = asyncio.StreamWriter.write
            monkeypatch.setattr(
                asyncio.StreamWriter, "write",
                lambda writer, data: (writes.append(data),
                                      original(writer, data))[1])
            for index in range(5):
                endpoint.send(target, payload=index)
            assert writes == []                     # nothing leaves in send
            await peer.got(6)
            assert len(writes) == 1
            assert [frame["p"] for frame in peer.frames[1:]] == [0, 1, 2, 3, 4]
            assert transport.frames_sent == 6
            # A lone frame leaves on the very next tick, as it always
            # did: batching holds nothing back.
            endpoint.send(target, payload="lone")
            await asyncio.sleep(0)
            assert len(writes) == 2
            await transport.aclose()
            await peer.aclose()
        run(scenario())

    def test_frames_queued_behind_a_dial_leave_in_one_write(self):
        async def scenario():
            peer = _RawPeer()
            target = await peer.start()
            transport = AsyncioTransport()
            endpoint = transport.endpoint(label="c")
            endpoint.send(target, payload="a")
            await asyncio.sleep(0)                  # flushed: dial in flight
            endpoint.send(target, payload="b")
            await peer.got(2)
            assert [frame["p"] for frame in peer.frames] == ["a", "b"]
            assert len(transport._peers) == 1
            await transport.aclose()
            await peer.aclose()
        run(scenario())

    def test_an_untraced_frame_carries_no_trace_field(self):
        async def scenario():
            peer = _RawPeer()
            target = await peer.start()
            transport = AsyncioTransport()
            endpoint = transport.endpoint(label="c")
            endpoint.send(target, payload="plain")
            traced = endpoint.send(target, payload="traced")
            traced.trace_id, traced.parent_span_id = "T", "S"
            await peer.got(2)
            assert peer.frames == [
                {"to": "svc", "frm": "c", "p": "plain"},
                {"to": "svc", "frm": "c", "p": "traced", "t": ["T", "S"]}]
            await transport.aclose()
            await peer.aclose()
        run(scenario())

    def test_an_untraced_frame_arrives_without_context(self):
        async def scenario():
            transport = AsyncioTransport()
            a = transport.endpoint(label="a")
            got = []
            transport.endpoint(label="b").on_message(
                lambda _e, env: got.append((env.trace_id,
                                            env.parent_span_id)))
            a.send(transport.endpoint(label="b"), payload=1)
            await asyncio.sleep(0)
            assert got == [(None, None)]
        run(scenario())

    def test_an_unaddressable_target_raises_at_send(self):
        async def scenario():
            transport = AsyncioTransport()
            endpoint = transport.endpoint(label="c")
            with pytest.raises(SimulationError):
                endpoint.send("nowhere", payload=1)
            assert transport.frames_sent == 0 and not transport._outbox
        run(scenario())

    def test_an_oversized_frame_is_dropped_alone(self, monkeypatch):
        async def scenario():
            peer = _RawPeer()
            target = await peer.start()
            transport = AsyncioTransport()
            endpoint = transport.endpoint(label="c")
            real = aio.encode_frame

            def encode(frame):
                if frame["p"] == "huge":
                    raise FrameError("too big")
                return real(frame)
            monkeypatch.setattr(aio, "encode_frame", encode)
            for payload in ("before", "huge", "after"):
                endpoint.send(target, payload=payload)
            await peer.got(2)
            assert [frame["p"] for frame in peer.frames] == ["before",
                                                             "after"]
            assert transport.frames_dropped == 1
            await transport.aclose()
            await peer.aclose()
        run(scenario())

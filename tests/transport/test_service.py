"""The socket naming service end-to-end, in-process.

The unchanged ``AsyncNameClient``/``NameLookupServer`` code resolving
real names over real localhost TCP: lookups, undefined names, lease
grant → rebind → break-callback → ack, and replica failover on the
resend path.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.model.context import Context, context_object
from repro.model.entities import ObjectEntity
from repro.model.names import ROOT_NAME
from repro.model.resolution import resolve as local_resolve
from repro.nameservice.retry import RetryPolicy
from repro.obs.instrument import Instrumentation
from repro.transport.framing import MAX_REST, encode_frame
from repro.transport.service import NamingService, RemoteNameClient
from repro.transport.wire import remote_uid_of

FAST_RETRY = RetryPolicy(max_attempts=3, base_backoff=0.02,
                         max_backoff=0.1)


def build_root(marker: str = "python3"):
    root = context_object("root")
    usr = context_object("usr")
    bin_ = context_object("bin")
    root.state.bind("usr", usr)
    usr.state.bind("bin", bin_)
    bin_.state.bind("python", ObjectEntity(marker))
    root.state.bind("etc", context_object("etc"))
    return root


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run(coroutine):
    return asyncio.run(coroutine)


async def start_pair(**client_kwargs):
    service = NamingService(build_root(), retry_policy=FAST_RETRY)
    address = await service.start()
    client = RemoteNameClient([(address.host, address.port)],
                              **{"retry_policy": FAST_RETRY,
                                 **client_kwargs})
    await client.connect()
    return service, client


class TestLookups:
    def test_resolves_over_localhost(self):
        async def scenario():
            service, client = await start_pair()
            try:
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok
                assert outcome.entity.label == "python3"
                assert outcome.steps == 4  # root + usr + bin + python
                assert service.server.requests_served == 3
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_one_round_trip_for_a_path_one_server_holds(self):
        """The request ships the unresolved suffix and the server walks
        it: three steps served, one request frame, one reply frame."""
        async def scenario():
            service, client = await start_pair()
            try:
                sent = client.transport.frames_sent
                delivered = client.transport.frames_delivered
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok and outcome.cost.remote_steps == 3
                assert outcome.cost.local_steps == 0
                assert client.transport.frames_sent == sent + 1
                assert client.transport.frames_delivered == delivered + 1
                assert service.server.requests_served == 3
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_missing_name_is_undefined_not_failed(self):
        async def scenario():
            service, client = await start_pair()
            try:
                sent = client.transport.frames_sent
                outcome = await client.resolve("/usr/bin/ghost")
                assert not outcome.ok and not outcome.failed
                assert not outcome.entity.is_defined()
                # Asked and answered: the trail ends in the unbound
                # name, the client does not ask for it again.
                assert client.transport.frames_sent == sent + 1
                assert service.server.requests_served == 3
                # A leaf in the middle of the name ends the chain there.
                outcome = await client.resolve("/usr/bin/python/x/y")
                assert not outcome.ok and not outcome.failed
                assert client.transport.frames_sent == sent + 2
                assert service.server.requests_served == 6
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_unregistered_directory_is_not_walked_into(self):
        """The server chains only through what its registry holds — the
        directories its clients could also ask it for by uid."""
        async def scenario():
            service, client = await start_pair()
            try:
                side = context_object("side")
                side.state.bind("door", ObjectEntity("door"))
                service.root.state("etc").state.bind("side", side)
                outcome = await client.resolve("/etc/side/door")
                # etc → side served in one chain; `side` is unknown to
                # the registry, so the next ask decodes to ⊥E: unbound.
                assert not outcome.ok and not outcome.failed
                service.registry.register_tree(side)
                outcome = await client.resolve("/etc/side/door")
                assert outcome.ok and outcome.entity.label == "door"
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_a_name_longer_than_the_cap_through_a_cycle(self):
        """`..` bindings make the namespace cyclic, so a name may be
        arbitrarily long: the client ships at most MAX_REST components
        per request, the walk finishes the rest with further asks, and
        the answer is the local model's."""
        async def scenario():
            root = build_root()
            usr = root.state("usr")
            usr.state.bind("..", root)
            service = NamingService(root, retry_policy=FAST_RETRY)
            address = await service.start()
            client = RemoteNameClient([(address.host, address.port)],
                                      retry_policy=FAST_RETRY)
            await client.connect()
            try:
                laps = MAX_REST          # 2 components each: > 2 frames
                name = "/" + "usr/../" * laps + "usr/bin/python"
                start = Context(label="local")
                start.bind(ROOT_NAME, root)
                expected = local_resolve(start, name)
                sent = client.transport.frames_sent
                outcome = await client.resolve(name)
                assert outcome.ok
                assert remote_uid_of(outcome.entity) == expected.uid
                steps = 2 * laps + 3
                assert outcome.cost.remote_steps == steps
                assert service.server.requests_served == steps
                assert client.transport.frames_sent - sent \
                    == -(-steps // (MAX_REST + 1))
                assert service.transport.frames_dropped == 0
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_proxies_are_stable_across_lookups(self):
        async def scenario():
            service, client = await start_pair()
            try:
                first = (await client.resolve("/usr/bin/python")).entity
                second = (await client.resolve("/usr/bin/python")).entity
                assert first is second
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_concurrent_lookups_interleave(self):
        async def scenario():
            service, client = await start_pair()
            try:
                outcomes = await asyncio.gather(
                    client.resolve("/usr/bin/python"),
                    client.resolve("/etc"),
                    client.resolve("/usr/bin/nope"))
                assert [o.ok for o in outcomes] == [True, True, False]
                assert client.client.outstanding() == 0
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())


class TestLeases:
    def test_rebind_breaks_lease_over_the_socket(self):
        async def scenario():
            service, client = await start_pair()
            try:
                root = client.root
                dep = client.dep_for(root, "usr")
                await client.lease(dep)
                now = client.transport.now()
                assert client.lease_table.fresh(dep, now)
                report = await client.rebind(["usr"], label="usr-v2",
                                             directory=True)
                assert report["notified"] == 1
                assert report["broken"] == 0
                assert client.client.lease_callbacks == 1
                assert not client.lease_table.fresh(
                    dep, client.transport.now())
                assert service.leases.stats()["acks"] == 1
                # The rebound directory is visible; the old subtree
                # is gone.
                fresh = await client.resolve("/usr")
                assert fresh.ok and fresh.entity.label == "usr-v2"
                stale = await client.resolve("/usr/bin/python")
                assert not stale.ok
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_departed_holder_breaks_not_hangs(self):
        """A holder that disconnected can't ack: the fan-out must
        break its lease after the retry budget, not wait forever."""
        async def scenario():
            service = NamingService(
                build_root(), ack_timeout=0.05,
                retry_policy=RetryPolicy(max_attempts=2,
                                         base_backoff=0.01,
                                         max_backoff=0.02))
            address = await service.start()
            holder = RemoteNameClient([(address.host, address.port)],
                                      retry_policy=FAST_RETRY,
                                      label="holder")
            await holder.connect()
            dep = holder.dep_for(holder.root, "usr")
            await holder.lease(dep)
            await holder.aclose()       # gone — break cannot deliver
            await asyncio.sleep(0.05)

            driver = RemoteNameClient([(address.host, address.port)],
                                      retry_policy=FAST_RETRY,
                                      label="driver")
            await driver.connect()
            try:
                report = await driver.rebind(["usr"], label="usr-v2",
                                             directory=True)
                assert report["notified"] == 0
                assert report["broken"] == 1
                assert service.leases.stats()["breaks"] == 1
            finally:
                await driver.aclose()
                await service.aclose()
        run(scenario())

    @pytest.mark.parametrize("retry", [None, FAST_RETRY],
                             ids=["no-policy", "retry"])
    def test_overlapping_rebinds_of_one_lease_share_its_ack(self, retry):
        """Two rebinds of one leased binding each send a break callback
        before the holder acks either: the holder's first ack answers
        both waits — no orphaned waiter breaks the lease or re-sends."""
        async def scenario():
            service = NamingService(build_root(), ack_timeout=0.5,
                                    retry_policy=retry)
            address = await service.start()
            holder, writer = (
                RemoteNameClient([(address.host, address.port)],
                                 retry_policy=FAST_RETRY, label=label)
                for label in ("holder", "writer"))
            await holder.connect()
            await writer.connect()
            await holder.lease(holder.dep_for(holder.root, "usr"))
            # The holder answers break callbacks only once two are in.
            handle = holder.endpoint._handler
            held = []

            def ack_in_pairs(endpoint, envelope):
                if "lease" not in envelope.payload:
                    return handle(endpoint, envelope)
                held.append(envelope)
                if len(held) == 2:
                    for callback in held:
                        handle(endpoint, callback)

            holder.endpoint.on_message(ack_in_pairs)
            try:
                reports = await asyncio.gather(
                    writer.rebind(["usr"]), writer.rebind(["usr"]))
                assert [(r["notified"], r["broken"]) for r in reports] \
                    == [(1, 0), (1, 0)]
                assert holder.client.lease_callbacks == 2
                assert service.leases.stats()["breaks"] == 0
                assert not service._awaiting
            finally:
                await holder.aclose()
                await writer.aclose()
                await service.aclose()
        run(scenario())


    def test_an_ack_answers_a_break_whose_overlap_timed_out(self):
        """Two rebinds break one lease 200 ms apart; the first one's
        ack wait runs out, then the holder acks: the second break, still
        waiting on the same ``(dep, session)``, is answered by it."""
        async def scenario():
            service = NamingService(build_root(), ack_timeout=0.3)
            address = await service.start()
            holder, writer = (
                RemoteNameClient([(address.host, address.port)],
                                 retry_policy=FAST_RETRY, label=label)
                for label in ("holder", "writer"))
            await holder.connect()
            await writer.connect()
            await holder.lease(holder.dep_for(holder.root, "usr"))
            handle = holder.endpoint._handler
            held = []
            holder.endpoint.on_message(
                lambda endpoint, envelope: held.append((endpoint, envelope))
                if "lease" in envelope.payload else handle(endpoint, envelope))

            async def callbacks(count):
                for _ in range(100):
                    if len(held) == count:
                        return
                    await asyncio.sleep(0.01)

            try:
                first = asyncio.ensure_future(writer.rebind(["usr"]))
                await callbacks(1)
                await asyncio.sleep(0.2)
                second = asyncio.ensure_future(writer.rebind(["usr"]))
                await callbacks(2)
                assert (await first)["broken"] == 1   # its wait ran out
                handle(*held[1])                      # the holder acks
                report = await second
                assert (report["notified"], report["broken"]) == (1, 0)
                assert service.late_acks == 0
                assert service.leases.stats()["acks"] == 1
                assert not service._awaiting
            finally:
                await holder.aclose()
                await writer.aclose()
                await service.aclose()
        run(scenario())


class TestWritePathRobustness:
    def test_malformed_rebind_path_is_refused_not_dropped(self):
        """A rebind whose path is missing, empty, not a list or ends in
        an unbindable name must answer ``rebound`` with an error at
        once — not die in a fire-and-forget task while the caller
        waits out its timeout."""
        async def scenario():
            service, client = await start_pair()
            try:
                for request in ({"op": "rebind"},
                                {"op": "rebind", "path": []},
                                {"op": "rebind", "path": "usr"},
                                {"op": "rebind", "path": [["usr"]]},
                                {"op": "rebind", "path": ["usr", "a/b"]}):
                    reply = await client._ctl_call(request, timeout=2.0)
                    assert "error" in reply, request
                assert service.rebinds == 0
                assert not service._writes
                # The namespace is untouched and the service still works.
                report = await client.rebind(["usr", "bin", "python"],
                                             label="python4")
                assert "error" not in report
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.entity.label == "python4"
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_aclose_cancels_a_rebind_in_mid_backoff(self):
        """The fan-out must not outlive the service: a rebind stuck
        retrying a silent holder is closed with its backoff timer, and
        no task or live timer handle is left."""
        async def scenario():
            service = NamingService(
                build_root(), ack_timeout=0.05,
                retry_policy=RetryPolicy(max_attempts=5,
                                         base_backoff=30.0,
                                         max_backoff=30.0))
            address = await service.start()
            client = RemoteNameClient([(address.host, address.port)],
                                      retry_policy=FAST_RETRY)
            await client.connect()
            await client.lease(client.dep_for(client.root, "usr"))
            # Never ack: the holder swallows break callbacks.
            client.endpoint.on_message(lambda endpoint, envelope: None)
            client.endpoint.send(client._ctl_address(), payload={"ctl": {
                "op": "rebind", "path": ["usr"], "label": "usr-v2",
                "dir": True}})
            for _ in range(100):
                if service._writes:
                    break
                await asyncio.sleep(0.01)
            (write,) = service._writes
            await asyncio.sleep(0.1)     # first attempt timed out
            assert not service._awaiting  # …now asleep in the backoff
            assert write.steps.gi_frame is not None
            await client.aclose()
            await asyncio.wait_for(service.aclose(), timeout=2.0)
            assert not service._writes and not service._awaiting
            assert write.steps.gi_frame is None
            loop = asyncio.get_running_loop()
            assert not [handle for handle in loop._scheduled
                        if not handle.cancelled()]
            assert asyncio.all_tasks() == {asyncio.current_task()}
        run(scenario())

    def test_closed_sessions_leave_the_holder_map(self):
        """``_holders`` is bounded by live sessions, not by every
        session that ever took a lease."""
        async def scenario():
            service = NamingService(build_root(),
                                    retry_policy=FAST_RETRY)
            address = await service.start()
            try:
                for index in range(5):
                    holder = RemoteNameClient(
                        [(address.host, address.port)],
                        retry_policy=FAST_RETRY, label=f"h{index}")
                    await holder.connect()
                    await holder.lease(
                        holder.dep_for(holder.root, "usr"))
                    assert len(service._holders) == 1
                    await holder.aclose()
                    for _ in range(100):
                        if not service._holders:
                            break
                        await asyncio.sleep(0.01)
                    assert not service._holders
            finally:
                await service.aclose()
        run(scenario())


#: Well-framed frames no handler can use: each must be dropped and
#: counted by the server, never kill the connection's reader task.
WRONG_SHAPES = {
    "lookup-empty": {"to": "lookupd", "frm": "client",
                     "p": {"lookup": {}}},
    "lookup-not-a-dict": {"to": "lookupd", "frm": "client",
                          "p": {"lookup": 7}},
    "directory-unhashable": {
        "to": "lookupd", "frm": "client",
        "p": {"lookup": {"request_id": 1, "seq": 1, "rest": [],
                         "directory": [1, 2], "component": "usr"}}},
    "component-missing": {
        "to": "lookupd", "frm": "client",
        "p": {"lookup": {"request_id": 1, "seq": 1, "directory": 1,
                         "rest": []}}},
    "frame-is-an-array": ["lookupd", "client"],
    "addressee-unhashable": {"to": ["lookupd"], "frm": "client", "p": 1},
    "rest-missing": {
        "to": "lookupd", "frm": "client",
        "p": {"lookup": {"request_id": 1, "seq": 1, "directory": 1,
                         "component": "usr"}}},
    "rest-over-long": {
        "to": "lookupd", "frm": "client",
        "p": {"lookup": {"request_id": 1, "seq": 1, "directory": 1,
                         "component": "usr",
                         "rest": [".."] * (MAX_REST + 1)}}},
    "rest-element-not-a-string": {
        "to": "lookupd", "frm": "client",
        "p": {"lookup": {"request_id": 1, "seq": 1, "directory": 1,
                         "component": "usr", "rest": ["bin", 7]}}},
}

#: Control frames no handler can use: each is dropped, or a rebind
#: refused, and neither reaches the lease tables or kills the reader.
WRONG_CTL = {
    "grant-without-dep": {"ctl": {"op": "lease-grant"}},
    "grant-dep-not-a-list": {"ctl": {"op": "lease-grant", "dep": 7}},
    "grant-dep-unhashable": {"ctl": {"op": "lease-grant", "dep": [[1]]}},
    "ack-dep-a-dict": {"lease": {"op": "ack", "dep": {"a": 1}}},
    "ack-dep-unhashable": {"lease": {"op": "ack", "dep": [[1]]}},
    "rebind-label-not-a-string": {"ctl": {"op": "rebind",
                                          "path": ["tmp"], "label": 7}},
    "rebind-through-a-leaf": {"ctl": {
        "op": "rebind", "path": ["usr", "bin", "python", "x"]}},
}

#: Replies no client can use, by what is wrong with the trail.
WRONG_TRAILS = {
    "missing": {"request_id": 1, "seq": 1},
    "empty": {"request_id": 1, "seq": 1, "trail": []},
    "not-a-list": {"request_id": 1, "seq": 1, "trail": {"uid": 1}},
    "null-in-the-middle": {"request_id": 1, "seq": 1,
                           "trail": [None, {"uid": 1, "dir": False}]},
    "descriptor-without-uid": {"request_id": 1, "seq": 1,
                               "trail": [{"label": "x"}]},
}


class TestHostilePeers:
    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_wrong_shaped_frame_is_dropped_connection_serves_on(
            self, shape):
        async def scenario():
            service, client = await start_pair(timeout=0.5,
                                               retry_policy=None)
            try:
                [peer] = client.transport._peers.values()
                conn = peer.conn
                dropped = service.transport.frames_dropped
                served = service.server.requests_served
                assert conn.write([encode_frame(WRONG_SHAPES[shape])])
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok and outcome.retries == 0
                assert service.transport.frames_dropped == dropped + 1
                assert service.server.requests_served == served + 3
                assert peer.conn is conn and not conn.closed
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    @pytest.mark.parametrize("shape", sorted(WRONG_CTL))
    def test_wrong_shaped_control_frame_leaves_the_reader_serving(
            self, shape):
        async def scenario():
            service, client = await start_pair(timeout=0.5,
                                               retry_policy=None)
            try:
                [peer] = client.transport._peers.values()
                conn = peer.conn
                [reader] = service.transport._accepted
                books = (service.leases.stats(), dict(service._holders))
                client.endpoint.send(client._ctl_address(),
                                     payload=WRONG_CTL[shape])
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok and outcome.retries == 0
                assert not reader.reader_task.done()
                assert peer.conn is conn and not conn.closed
                assert (service.leases.stats(),
                        dict(service._holders)) == books
                assert service.rebinds == 0 and not service._awaiting
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    @pytest.mark.parametrize("shape", sorted(WRONG_TRAILS))
    def test_wrong_shaped_trail_is_dropped_client_serves_on(self, shape):
        async def scenario():
            service, client = await start_pair(timeout=0.5,
                                               retry_policy=None)
            try:
                [conn] = service.transport._accepted
                assert conn.write([encode_frame({
                    "to": "client", "frm": "lookupd",
                    "p": {"reply": WRONG_TRAILS[shape]}})])
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok and outcome.retries == 0
                assert client.transport.frames_dropped == 1
                assert client.client.late_replies == 0
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_an_abandoned_lookup_stops(self):
        """A caller that gave up (timeout, cancellation) leaves nothing
        behind: no pending entry, no timer re-asking on its behalf, no
        task — and the lookup is counted as abandoned, its span failed."""
        async def scenario():
            service = NamingService(build_root(), retry_policy=FAST_RETRY)
            address = await service.start()
            obs = Instrumentation()
            client = RemoteNameClient(
                [(address.host, address.port)], obs=obs, timeout=0.02,
                retry_policy=RetryPolicy(max_attempts=51, base_backoff=0.0))
            await client.connect()
            # The server swallows lookups: every ask times out.
            service.server.endpoint.on_message(lambda _e, _env: None)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.resolve("/usr/bin/python", timeout=0.05)
                assert client.client.outstanding() == 0
                sent = client.transport.frames_sent
                assert sent >= 2                    # it was re-asking
                await asyncio.sleep(0.1)
                assert client.transport.frames_sent == sent
                assert obs.metrics.value_of(
                    "async_lookups_total", {"outcome": "abandoned"}) == 1.0
                [span] = obs.tracer.of_kind("lookup")
                assert span.status == "failed" and span.reason == "abandoned"
                assert span.end is not None

                task = asyncio.ensure_future(client.resolve("/usr"))
                await asyncio.sleep(0.01)
                assert client.client.outstanding() == 1
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert client.client.outstanding() == 0
                assert not client.client.abandon(1)  # settled: a no-op
                loop = asyncio.get_running_loop()
                await asyncio.sleep(0.05)
                assert not [handle for handle in loop._scheduled
                            if not handle.cancelled()]
                assert asyncio.all_tasks() - {asyncio.current_task()} \
                    == {c.reader_task
                        for c in (*service.transport._accepted,
                                  *(p.conn for p in
                                    client.transport._peers.values()))}
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_a_timed_out_control_call_does_not_poison_the_next(self):
        async def scenario():
            service, client = await start_pair()
            try:
                # A request the server never answers: its waiter gives
                # up, and must not stay behind to eat the reply of the
                # next call.
                with pytest.raises(asyncio.TimeoutError):
                    await client._ctl_call({"op": "no-such-op"},
                                           timeout=0.05)
                stats = await client.stats(timeout=1.0)
                assert stats["op"] == "stats-reply"
                assert not client._ctl_waiters
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())


async def start_with_silent_holder(*deps):
    """A service, a holder leasing ``(parent path, component)`` *deps*
    that then swallows every break callback, and a writer: a rebind of
    a leased binding answers only after the fan-out gave up (two
    50 ms ack waits and a 10 ms backoff)."""
    service = NamingService(
        build_root(), ack_timeout=0.05,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.01,
                                 max_backoff=0.01, jitter=0.0))
    address = await service.start()
    holder, writer = (
        RemoteNameClient([(address.host, address.port)],
                         retry_policy=FAST_RETRY, label=label)
        for label in ("holder", "writer"))
    await holder.connect()
    await writer.connect()
    for parent, component in deps:
        directory = (await holder.resolve(parent)).entity
        await holder.lease(holder.dep_for(directory, component))
    holder.endpoint.on_message(lambda endpoint, envelope: None)
    return service, holder, writer


class TestControlReplyMatching:
    """Control replies are matched to callers by request id: rebinds
    answer when their fan-outs end, not in request order."""

    def test_concurrent_rebinds_each_get_their_own_reply(self):
        async def scenario():
            service, holder, writer = await start_with_silent_holder(
                ("/usr", "bin"))
            try:
                slow, fast = await asyncio.gather(
                    writer.rebind(["usr", "bin"]), writer.rebind(["tmp"]))
                assert slow["path"] == ["usr", "bin"]
                assert (slow["broken"], slow["notified"]) == (1, 0)
                assert fast["path"] == ["tmp"]
                assert (fast["broken"], fast["notified"]) == (0, 0)
                assert writer.late_ctl_replies == 0
            finally:
                await holder.aclose()
                await writer.aclose()
                await service.aclose()
        run(scenario())

    def test_a_late_reply_does_not_resolve_the_next_call(self):
        async def scenario():
            service, holder, writer = await start_with_silent_holder(
                ("/usr", "bin"), ("/", "tmp"))
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await writer.rebind(["usr", "bin"], timeout=0.02)
                # The next call of the same op is still waiting when
                # the first one's reply lands.
                report = await writer.rebind(["tmp"], timeout=2.0)
                assert report["path"] == ["tmp"] and report["broken"] == 1
                assert writer.late_ctl_replies == 1
                assert not writer._ctl_waiters
            finally:
                await holder.aclose()
                await writer.aclose()
                await service.aclose()
        run(scenario())


class TestFailover:
    def test_resend_fails_over_to_live_replica(self):
        """Primary address is dead: each step's asks there time out,
        the walk fails over to the live replica, the lookup completes."""
        async def scenario():
            service = NamingService(build_root(),
                                    retry_policy=FAST_RETRY)
            address = await service.start()
            dead = ("127.0.0.1", free_port())
            client = RemoteNameClient(
                [dead, (address.host, address.port)],
                timeout=0.1, retry_policy=FAST_RETRY)
            # connect() must also try the replica list in order; the
            # dead primary would hang hello, so connect to the live
            # one directly and splice the dead address in front of
            # the router for the lookup path.
            live = RemoteNameClient([(address.host, address.port)],
                                    timeout=0.1, retry_policy=FAST_RETRY)
            await live.connect()
            live.router.addresses.insert(
                0, type(live.router.addresses[0])(
                    dead[0], dead[1], live.router.addresses[0].label))
            try:
                outcome = await live.resolve("/usr/bin/python",
                                             timeout=30)
                assert outcome.ok
                assert outcome.entity.label == "python3"
                assert outcome.retries >= 1
                assert outcome.failovers >= 1
                assert live.transport.frames_dropped >= 1
            finally:
                await live.aclose()
                await client.aclose()
                await service.aclose()
        run(scenario())

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

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.nameservice.retry import RetryPolicy
from repro.transport.service import NamingService, RemoteNameClient

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
                              retry_policy=FAST_RETRY, **client_kwargs)
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

    def test_missing_name_is_undefined_not_failed(self):
        async def scenario():
            service, client = await start_pair()
            try:
                outcome = await client.resolve("/usr/bin/ghost")
                assert not outcome.ok and not outcome.failed
                assert not outcome.entity.is_defined()
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
                    reply = await client._ctl_call(request, "rebound",
                                                   timeout=2.0)
                    assert "error" in reply, request
                assert service.rebinds == 0
                assert not service._rebind_tasks
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
        """The fan-out task must not outlive the service: a rebind
        stuck retrying a silent holder is cancelled and awaited."""
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
                if service._rebind_tasks:
                    break
                await asyncio.sleep(0.01)
            (task,) = service._rebind_tasks
            await asyncio.sleep(0.1)     # first attempt timed out
            assert not task.done()       # …now asleep in the backoff
            await client.aclose()
            await asyncio.wait_for(service.aclose(), timeout=2.0)
            assert task.cancelled()
            assert not service._rebind_tasks
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
        "p": {"lookup": {"request_id": 1, "seq": 1,
                         "directory": [1, 2], "component": "usr"}}},
    "component-missing": {
        "to": "lookupd", "frm": "client",
        "p": {"lookup": {"request_id": 1, "seq": 1, "directory": 1}}},
    "frame-is-an-array": ["lookupd", "client"],
    "addressee-unhashable": {"to": ["lookupd"], "frm": "client", "p": 1},
}


class TestHostilePeers:
    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_wrong_shaped_frame_is_dropped_connection_serves_on(
            self, shape):
        async def scenario():
            service, client = await start_pair(timeout=0.5,
                                               max_retries=0)
            try:
                [peer] = client.transport._peers.values()
                conn = peer.conn
                dropped = service.transport.frames_dropped
                assert conn.send_frame(WRONG_SHAPES[shape])
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok and outcome.retries == 0
                assert service.transport.frames_dropped == dropped + 1
                assert peer.conn is conn and not conn.closed
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_a_timed_out_control_call_does_not_poison_the_next(self):
        async def scenario():
            service, client = await start_pair()
            try:
                # A request the server never answers: its waiter gives
                # up, and must not stay queued to eat the reply of the
                # next call that awaits the same reply op.
                with pytest.raises(asyncio.TimeoutError):
                    await client._ctl_call({"op": "no-such-op"},
                                           "stats-reply", timeout=0.05)
                stats = await client.stats(timeout=1.0)
                assert stats["op"] == "stats-reply"
                assert not any(client._ctl_waiters.values())
            finally:
                await client.aclose()
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
                timeout=0.1, max_retries=3, retry_policy=FAST_RETRY)
            # connect() must also try the replica list in order; the
            # dead primary would hang hello, so connect to the live
            # one directly and splice the dead address in front of
            # the router for the lookup path.
            live = RemoteNameClient([(address.host, address.port)],
                                    timeout=0.1, max_retries=3,
                                    retry_policy=FAST_RETRY)
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

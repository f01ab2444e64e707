"""One write discipline on both of its drivers.

``repro.nameservice.writes.write_effects`` is the rebind — commit,
replicate, invalidate or break leases — and two drivers run it:
``DistributedResolver``, the one kernel driver of every effect
generator, on the simulator and ``NamingService`` on real sockets.
One ``LEASE`` rebind with two holders of the rebound binding, one that
acks and one that is gone, runs through each: on the kernel
the gone holder sits behind a partition, on the socket it is a client
that closed its connection.  Both drivers must report the same
notified / broken / attempts / skipped counts, and leave the lease
manager the same acks and breaks.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.nameservice import resolver as resolver_module
from repro.nameservice import writes
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.sim.kernel import Simulator
from repro.transport import service as service_module
from repro.transport.service import NamingService, RemoteNameClient

POLICIES = [RetryPolicy(max_attempts=2, base_backoff=0.01,
                        max_backoff=0.02), None]
CLIENT_RETRY = RetryPolicy(max_attempts=3, base_backoff=0.02,
                           max_backoff=0.1)


def build_root():
    root = context_object("root")
    usr = context_object("usr")
    root.state.bind("usr", usr)
    usr.state.bind("python", ObjectEntity("python3"))
    return root


def recorded_reports(monkeypatch) -> list:
    """Record the report of every write either driver runs."""
    reports = []
    original = writes.write_effects

    def recording(*args):
        report = yield from original(*args)
        reports.append(report)
        return report

    for module in (writes, resolver_module, service_module):
        monkeypatch.setattr(module, "write_effects", recording)
    return reports


def counts(report) -> dict:
    return {"notified": report.notified, "broken": report.broken,
            "attempts": report.attempts, "skipped": report.skipped}


def run_kernel_driver(retry_policy, reports) -> tuple[dict, dict]:
    sim = Simulator(seed=5)
    srv = sim.network("srv")
    lans = [sim.network("lan1"), sim.network("lan2")]
    server = sim.machine(srv, "server")
    root = build_root()
    placement = DirectoryPlacement()
    placement.place(root, server)
    placement.place(root.state("usr"), server)
    resolver = DistributedResolver(
        sim, placement, cache_policy=CachePolicy.LEASE,
        retry_policy=retry_policy, lease_term=1_000.0)
    context = ProcessContext(root)
    for index, lan in enumerate(lans):
        holder = sim.spawn(sim.machine(lan, f"holder{index}"), "holder")
        # The cached prefix "/usr" consumed the binding to be rebound.
        entity, _cost = resolver.resolve(holder, context, "/usr/python")
        assert entity.label == "python3"
    sim.partition(lans[1], srv)              # the second holder is gone
    resolver.rebind(root, "usr", context_object("usr-v2"))
    (report,) = reports
    return counts(report), resolver.leases.stats()


def run_socket_driver(retry_policy) -> tuple[dict, dict]:
    async def scenario():
        service = NamingService(build_root(), retry_policy=retry_policy,
                                ack_timeout=0.5)
        address = await service.start()
        clients = [RemoteNameClient([(address.host, address.port)],
                                    retry_policy=CLIENT_RETRY, label=label)
                   for label in ("holder0", "holder1", "writer")]
        try:
            for client in clients:
                await client.connect()
            for holder in clients[:2]:
                await holder.lease(holder.dep_for(holder.root, "usr"))
            await clients[1].aclose()        # the second holder is gone
            await asyncio.sleep(0.05)
            reply = await clients[2].rebind(["usr"], label="usr-v2",
                                            directory=True)
            return ({key: reply[key] for key in
                     ("notified", "broken", "attempts", "skipped")},
                    service.leases.stats())
        finally:
            for client in (clients[0], clients[2]):
                await client.aclose()
            await service.aclose()
    return asyncio.run(scenario())


@pytest.mark.parametrize("retry_policy", POLICIES,
                         ids=["two-attempts", "no-policy"])
def test_one_rebind_reports_alike_on_both_drivers(retry_policy,
                                                  monkeypatch):
    reports = recorded_reports(monkeypatch)
    kernel, kernel_books = run_kernel_driver(retry_policy, reports)
    socket_, socket_books = run_socket_driver(retry_policy)
    attempts = 1 if retry_policy is None else retry_policy.max_attempts
    assert kernel == {"notified": 1, "broken": 1,
                      "attempts": 1 + attempts, "skipped": 0}
    assert socket_ == kernel
    assert counts(reports[-1]) == socket_   # the socket's own report
    for books in (kernel_books, socket_books):
        assert (books["acks"], books["breaks"]) == (1, 1)

"""The write's host protocol is a checked list.

``writes.HOST_PROTOCOL`` names every attribute ``write_effects`` may
read from its host.  Both drivers are run here with a recording proxy
in the host's place — the kernel driver, ``DistributedResolver``, under
``NONE``, ``INVALIDATE`` and ``LEASE`` with the owning host up (one
holder behind a partition) and down, and ``NamingService`` through
``test_write_parity.py``'s socket scenario — and what the write read
must be inside the tuple.  Every host defines every name in it: the
resolver, the socket service and ``test_lease_fanout.py``'s scripted
host.  Widening the protocol therefore shows up as a diff of that
tuple, not as one more attribute a new driver discovers it needs.
"""

from __future__ import annotations

import re
from dataclasses import asdict

import pytest
from test_lease_fanout import ScriptedHost
from test_write_parity import POLICIES, run_socket_driver

from repro.nameservice import resolver, writes
from repro.nameservice.cache import CachePolicy
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.writes import HOST_PROTOCOL
from repro.transport import service
from repro.transport.service import NamingService
from repro.workloads.deployment import build_world

#: What the write read before the resolver became its kernel host.
REMOVED = {"policy", "node_of"}
RETRY = RetryPolicy(max_attempts=2, base_backoff=0.5, max_backoff=1.0)


class Recorder:
    """Stands in for a host: forwards every read, remembering its name."""

    def __init__(self, host, seen: set):
        self._host, self._seen = host, seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._host, name)


@pytest.fixture
def seen(monkeypatch):
    """Route both drivers' writes through a :class:`Recorder`; returns
    the names read and the hosts the recorder stood in for."""
    names: set = set()
    hosts: list = []

    def recording(host, *args):
        hosts.append(host)
        return writes.write_effects(Recorder(host, names), *args)

    for module in (resolver, service):
        monkeypatch.setattr(module, "write_effects", recording)
    return names, hosts


def run_kernel(policy: CachePolicy, host_up: bool):
    """Two clients hold copies through ``σ(svc)(app)``; then the owning
    host loses one of them to a partition, or crashes, and ``app`` is
    rebound."""
    world = build_world({
        "networks": ["srv", "lan1", "lan2"],
        "machines": [["host", "srv"], ["backup", "srv"],
                     ["c1", "lan1"], ["c2", "lan2"]],
        "parent_links": True,
        "paths": ["svc/", "svc/app/", "spare/", "svc/app/cfg",
                  "spare/cfg"],
        "place": [[path, "host", "backup"]
                  for path in ("svc", "svc/app", "spare")],
        "clients": [["c1", "p1"], ["c2", "p2"]],
        "resolver": {"cache_policy": policy.value,
                     "retry_policy": asdict(RETRY), "lease_term": 1_000.0},
    }, seed=3)
    subject = world.resolver
    for client in world.clients:
        entity, _cost = subject.resolve(client, world.context,
                                        "/svc/app/cfg")
        assert entity.is_defined()
    if host_up:
        world.simulator.partition(world.networks["lan2"],
                                  world.networks["srv"])
    else:
        world.injector.crash_machine(world.machines["host"])
    subject.rebind(world.tree.directory("svc"), "app",
                   world.tree.directory("spare"))
    return subject


@pytest.mark.parametrize("host_up", [True, False], ids=["up", "down"])
@pytest.mark.parametrize("policy", [CachePolicy.NONE, CachePolicy.INVALIDATE,
                                    CachePolicy.LEASE])
def test_the_kernel_driver_reads_only_the_protocol(seen, policy, host_up):
    names, hosts = seen
    assert hosts == [run_kernel(policy, host_up)]
    assert names <= set(HOST_PROTOCOL), names - set(HOST_PROTOCOL)


def test_the_socket_driver_reads_only_the_protocol(seen):
    names, hosts = seen
    run_socket_driver(POLICIES[0])
    (host,) = hosts
    assert isinstance(host, NamingService)
    assert names <= set(HOST_PROTOCOL), names - set(HOST_PROTOCOL)
    assert all(hasattr(host, name) for name in HOST_PROTOCOL)


def test_every_name_is_read_and_every_host_provides_it(seen):
    names, _hosts = seen
    for policy in (CachePolicy.NONE, CachePolicy.INVALIDATE,
                   CachePolicy.LEASE):
        for host_up in (True, False):
            subject = run_kernel(policy, host_up)
    assert all(hasattr(subject, name) for name in HOST_PROTOCOL)
    scripted = ScriptedHost([0], None, None)
    assert all(hasattr(scripted, name) for name in HOST_PROTOCOL)
    assert names == set(HOST_PROTOCOL), set(HOST_PROTOCOL) - names


def test_the_protocol_is_twelve_documented_names():
    assert len(HOST_PROTOCOL) == len(set(HOST_PROTOCOL)) == 12
    assert not REMOVED & set(HOST_PROTOCOL)
    listed = writes.__doc__.split("A rebind's *host*", 1)[1]
    for name in HOST_PROTOCOL:
        assert re.search(rf"``{name}(\(|``)", listed), name
    for name in REMOVED:
        assert f"``{name}" not in writes.__doc__, name

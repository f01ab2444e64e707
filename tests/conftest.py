"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.model.state import GlobalState
from repro.namespaces.tree import NamingTree
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.namespaces.unix import UnixSystem
from repro.transport.sim import SimTransport
from repro.workloads.scenarios import (
    build_pqid_population,
    build_rule_scenario,
)


@pytest.fixture
def sigma() -> GlobalState:
    return GlobalState()


@pytest.fixture
def small_tree(sigma: GlobalState) -> NamingTree:
    """A small naming tree:

    root ── etc ── passwd
         ├─ usr ── bin ── cc
         └─ home ── alice ── notes
    """
    tree = NamingTree("root", sigma=sigma, parent_links=True)
    tree.mkfile("etc/passwd")
    tree.mkfile("usr/bin/cc")
    tree.mkfile("home/alice/notes")
    return tree


@pytest.fixture
def unix_system() -> UnixSystem:
    unix = UnixSystem("testbox")
    unix.tree.mkfile("etc/passwd")
    unix.tree.mkfile("usr/bin/cc")
    unix.tree.mkfile("home/alice/notes")
    unix.tree.mkfile("home/bob/todo")
    return unix


@pytest.fixture
def rule_scenario():
    return build_rule_scenario(seed=7)


@pytest.fixture
def pqid_population():
    return build_pqid_population(seed=7)


class AsyncLookups:
    """The walk's message-driven driver over a deployment built for the
    synchronous one: a lookup server on each of *machines* (handed the
    placement, so it walks a request's suffix through what it hosts),
    one :class:`AsyncNameClient` (``.client``) on *client_machine*.
    Calling it resolves one name to its ``LookupOutcome``, running the
    kernel until the lookup settles."""

    def __init__(self, simulator, placement, client_machine, machines,
                 **client_options):
        self.simulator = simulator
        transport = SimTransport(simulator)
        servers = {id(machine): NameLookupServer(transport, machine,
                                                 placement=placement)
                   for machine in machines}
        self.client = AsyncNameClient(
            transport, PlacementRouter(placement, servers, client_machine),
            transport.adopt(simulator.spawn(client_machine, "async-client")),
            **client_options)

    def __call__(self, context, name_):
        outcomes: list = []
        self.client.resolve(context, name_, outcomes.append)
        self.simulator.run()
        [outcome] = outcomes
        return outcome


@pytest.fixture(scope="session")
def async_lookups() -> type[AsyncLookups]:
    """Session-scoped (it is only the class), so hypothesis-driven
    tests may take it too."""
    return AsyncLookups

"""Transport parity: one script, two substrates, identical behaviour.

The same seeded lookup/rebind/invalidate script runs over (a) the
simulator transport — placement forces every directory step through a
``NameLookupServer`` on a remote machine — and (b) the asyncio
transport — a real ``NamingService`` on a localhost socket.  The
*identical* protocol code must produce:

* identical resolution outcomes per lookup (defined-ness, failure
  flag, step count, resolved entity label, and the number of request
  messages it cost — both servers know what they serve, so both walk
  a request's suffix and a path one server holds is one round trip),
  and
* identical coherence-audit verdict counts from a
  ``CoherenceAuditor`` wired to each substrate's server — with zero
  violations on either (``observed`` equal: no step is audited twice
  or skipped, chained or not).

The script is generated from a seed so the suite covers a different
op mix per seed without losing reproducibility.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.model.context import Context, context_object
from repro.model.entities import Entity, ObjectEntity
from repro.model.names import ROOT_NAME
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.nameservice.writes import commit_binding
from repro.obs.audit import CoherenceAuditor
from repro.sim.kernel import Simulator
from repro.transport.service import NamingService, RemoteNameClient
from repro.transport.sim import SimTransport
from repro.transport.wire import remote_uid_of

SVC_NAMES = 8


def build_namespace() -> Entity:
    """The same tree both substrates serve (fresh entities each
    call; labels, not uids, are the cross-substrate identity)."""
    root = context_object("root")
    usr = context_object("usr")
    bin_ = context_object("bin")
    svc = context_object("svc")
    root.state.bind("usr", usr)
    root.state.bind("svc", svc)
    usr.state.bind("bin", bin_)
    bin_.state.bind("python", ObjectEntity("python3"))
    for index in range(SVC_NAMES):
        svc.state.bind(f"name-{index}", ObjectEntity(f"object-{index}"))
    return root


def make_script(seed: int) -> list[tuple]:
    """A seeded op list: ("lookup", path) | ("rebind", path, label,
    dir?).  Rebinds target known paths; lookups mix live, rebound-away
    and never-bound names."""
    rng = random.Random(seed)
    lookup_pool = (["/usr/bin/python", "/usr", "/usr/bin/ghost",
                    "/nope", "/svc"]
                   + [f"/svc/name-{i}" for i in range(SVC_NAMES)])
    script: list[tuple] = [("lookup", "/usr/bin/python")]
    rebinds = [(["svc", f"name-{rng.randrange(SVC_NAMES)}"],
                "rebound-leaf", False),
               (["usr", "bin"], "bin-v2", True),
               (["usr"], "usr-v2", True)]
    for rebind in rebinds:
        for _ in range(4):
            script.append(("lookup", rng.choice(lookup_pool)))
        script.append(("rebind", *rebind))
        for _ in range(4):
            script.append(("lookup", rng.choice(lookup_pool)))
    return script


def outcome_row(name: str, outcome, requests: int) -> tuple:
    return (name, outcome.ok, outcome.failed, outcome.reason,
            outcome.steps, outcome.cost.remote_steps, requests,
            outcome.entity.label if outcome.entity.is_defined() else None)


def placed_directories(root: Entity) -> list[Entity]:
    out, stack = [], [root]
    while stack:
        entity = stack.pop()
        if entity.is_context_object():
            out.append(entity)
            stack.extend(entity.state.bindings.values())
    return out


def run_script_sim(script, seed: int):
    """The script over SimTransport: every directory hosted remotely
    on one machine, whose server is handed the placement — so, like
    the socket service, it answers a whole path in one exchange."""
    auditor = CoherenceAuditor()
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    client_machine = simulator.machine(network, "client-m")
    server_machine = simulator.machine(network, "server-m")
    root = build_namespace()
    placement = DirectoryPlacement()
    for directory in placed_directories(root):
        placement.place(directory, server_machine)
    transport = SimTransport(simulator)
    server = NameLookupServer(transport, server_machine,
                              placement=placement)
    server.auditor = auditor
    servers = {id(server_machine): server}
    process = simulator.spawn(client_machine, "client")
    client = AsyncNameClient(
        transport, PlacementRouter(placement, servers, client_machine),
        transport.adopt(process))
    start = Context(label="start")
    start.bind(ROOT_NAME, root)
    rows = []
    for op in script:
        if op[0] == "lookup":
            outcomes = []
            sent = simulator.messages_sent
            client.resolve(start, op[1], outcomes.append)
            simulator.run()
            # Lookups are the only traffic: a request and its reply.
            rows.append(outcome_row(op[1], outcomes[0],
                                    (simulator.messages_sent - sent) // 2))
        else:
            # The write NamingService._rebind commits, by the same
            # function; new directories get placed so post-rebind
            # steps stay remote (and audited) exactly as they do over
            # the socket.
            _, path, label, directory = op
            parent = root
            for component in path[:-1]:
                parent = parent.state(component)
            new = context_object(label) if directory else ObjectEntity(label)
            commit_binding(parent, path[-1], new,
                           now=simulator.clock.now, epoch=0,
                           auditor=auditor)
            if directory:
                placement.place(new, server_machine)
    return rows, auditor


def run_script_asyncio(script, seed: int):
    """The same script over real localhost sockets."""
    auditor = CoherenceAuditor()

    async def scenario():
        service = NamingService(build_namespace(), seed=seed,
                                auditor=auditor)
        address = await service.start()
        client = RemoteNameClient([(address.host, address.port)],
                                  seed=seed)
        await client.connect()
        rows = []
        try:
            for op in script:
                if op[0] == "lookup":
                    sent = client.transport.frames_sent
                    outcome = await client.resolve(op[1])
                    rows.append(outcome_row(
                        op[1], outcome, client.transport.frames_sent - sent))
                else:
                    _, path, label, directory = op
                    await client.rebind(path, label=label,
                                        directory=directory)
        finally:
            await client.aclose()
            await service.aclose()
        return rows

    return asyncio.run(scenario()), auditor


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_same_script_same_outcomes_and_verdicts(seed):
    script = make_script(seed)
    sim_rows, sim_auditor = run_script_sim(script, seed)
    aio_rows, aio_auditor = run_script_asyncio(script, seed)

    assert aio_rows == sim_rows
    # One server holds every path: each lookup that left the client
    # cost exactly one request, however many steps it took.
    assert {row[6] for row in sim_rows} == {1}
    assert max(row[5] for row in sim_rows) == 3

    # Audit parity: every served step audited, identical verdict
    # tallies, zero violations on either substrate.
    assert sim_auditor.observed == aio_auditor.observed > 0
    assert sim_auditor.by_verdict == aio_auditor.by_verdict
    assert sim_auditor.writes == aio_auditor.writes == 3
    assert sim_auditor.by_verdict["violation"] == 0
    assert len(sim_auditor.violations) == 0
    assert len(aio_auditor.violations) == 0


def test_a_path_split_over_two_servers_is_one_round_trip_each():
    """The root directory on one server, ``/usr`` and below on another
    (SimTransport only — the socket router has no per-directory
    placement yet): ``/usr/bin/python`` is two round trips, the served
    steps split 1 + 2, and every step is audited exactly once."""
    auditor = CoherenceAuditor()
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    client_machine = simulator.machine(network, "client-m")
    machines = [simulator.machine(network, f"server-{i}") for i in (0, 1)]
    root = build_namespace()
    placement = DirectoryPlacement()
    for directory in placed_directories(root):
        placement.place(directory, machines[directory is not root])
    transport = SimTransport(simulator)
    servers = {id(machine): NameLookupServer(transport, machine,
                                             placement=placement)
               for machine in machines}
    for server in servers.values():
        server.auditor = auditor
    client = AsyncNameClient(
        transport, PlacementRouter(placement, servers, client_machine),
        transport.adopt(simulator.spawn(client_machine, "client")))
    start = Context(label="start")
    start.bind(ROOT_NAME, root)
    outcomes = []
    client.resolve(start, "/usr/bin/python", outcomes.append)
    simulator.run()
    [outcome] = outcomes
    assert outcome.ok and outcome.entity.label == "python3"
    assert (outcome.steps, outcome.cost.remote_steps) == (4, 3)
    assert outcome.cost.servers_touched == {
        server.label for server in servers.values()}
    assert simulator.messages_sent == 4             # 2 round trips
    assert [servers[id(machine)].requests_served
            for machine in machines] == [1, 2]
    assert auditor.observed == 3
    assert auditor.by_verdict["violation"] == 0


def test_script_is_seed_sensitive_but_reproducible():
    assert make_script(0) == make_script(0)
    assert make_script(0) != make_script(1)


def test_remote_uid_identity_matches_server_entity():
    """The proxy a lookup returns names the same server entity the
    sim walk returns — checked through the wire uid."""
    async def scenario():
        root = build_namespace()
        python = root.state("usr").state("bin").state("python")
        service = NamingService(root)
        address = await service.start()
        client = RemoteNameClient([(address.host, address.port)])
        await client.connect()
        try:
            outcome = await client.resolve("/usr/bin/python")
            assert remote_uid_of(outcome.entity) == python.uid
        finally:
            await client.aclose()
            await service.aclose()
    asyncio.run(scenario())

"""One failure rule on both drivers of the walk, under faults.

A seeded script of crashes, restarts, partitions and heals runs through
:class:`~repro.nameservice.resolver.DistributedResolver` (the kernel
driver) and through :class:`~repro.nameservice.protocol.AsyncNameClient`
on :class:`~repro.transport.sim.SimTransport` (the message driver), each
over its own copy of the same placement.  Faults change only between
lookups, so both drivers face the same reachable set on every lookup and
must agree on its outcome: ``(ok, failed, entity label)``.  A lookup
that loses a step it cannot recover answers ``⊥E`` on both.
"""

from __future__ import annotations

import random

import pytest

from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.transport.sim import SimTransport

NAMES = ["/svc/f0", "/svc/f1", "/svc/deep/g", "/svc/deep", "/svc/nope",
         "/solo/x", "/solo/nope", "/here", "/svc/f0/too-deep"]
#: Virtual time between rounds: past every backoff and lookup timeout.
GAP = 20.0


class World:
    """``/svc`` and ``/svc/deep`` replicated on m1 + m2, ``/solo`` on m3
    alone, the root and ``/here`` on the client's machine; the servers
    sit behind a network of their own."""

    def __init__(self, seed: int):
        sim = self.sim = Simulator(seed=seed)
        self.lan, self.srv = sim.network("lan"), sim.network("srv")
        home = sim.machine(self.lan, "client-m")
        self.servers = [sim.machine(self.srv, f"m{i}") for i in (1, 2, 3)]
        m1, m2, m3 = self.servers
        tree = NamingTree("root", sigma=sim.sigma, parent_links=True)
        for path in ("svc/f0", "svc/f1", "svc/deep/g", "solo/x", "here"):
            tree.mkfile(path)
        self.placement = DirectoryPlacement()
        self.placement.place(tree.root, home)
        for path in ("svc", "svc/deep"):
            self.placement.place_replicated(tree.directory(path), m1, m2)
        self.placement.place(tree.directory("solo"), m3)
        self.home = home
        self.context = ProcessContext(tree.root)
        self.client = sim.spawn(home, "client")
        self.injector = FailureInjector(sim)


def make_script(seed: int, rounds: int = 12) -> list[tuple]:
    """Per round, one fault action — ("crash", i), ("restart", i),
    ("partition",), ("heal",) or ("none",) — then a few lookups."""
    rng = random.Random(seed)
    down: set[int] = set()
    script = []
    for _round in range(rounds):
        choice = rng.choice(["crash", "crash", "restart", "restart",
                             "partition", "heal", "heal", "none"])
        action: tuple = (choice,)
        if choice == "crash":
            alive = sorted(set(range(3)) - down)
            action = ("crash", rng.choice(alive)) if alive else ("none",)
            down.update(action[1:])
        elif choice == "restart":
            action = (("restart", rng.choice(sorted(down))) if down
                      else ("none",))
            down.difference_update(action[1:])
        script.append((action, rng.sample(NAMES, 4)))
    return script


def apply(world: World, action: tuple) -> None:
    kind = action[0]
    if kind == "crash":
        world.injector.crash_machine(world.servers[action[1]])
    elif kind == "restart":
        world.injector.restart_machine(world.servers[action[1]])
    elif kind == "partition":
        world.injector.partition(world.lan, world.srv)
    elif kind == "heal":
        world.injector.heal(world.lan, world.srv)


def run_kernel_driver(seed: int, script: list[tuple]) -> list[tuple]:
    world = World(seed)
    resolver = DistributedResolver(
        world.sim, world.placement,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.1,
                                 max_backoff=0.4),
        breaker_threshold=2, breaker_cooldown=5.0)
    world.injector.on_restart(resolver.handle_restart)
    outcomes = []
    for action, names in script:
        apply(world, action)
        for name_ in names:
            entity, cost = resolver.resolve(world.client, world.context,
                                            name_)
            outcomes.append((entity.is_defined() and not cost.failed,
                             cost.failed, entity.label))
        world.sim.run(until=world.sim.clock.now + GAP)
    return outcomes


def run_message_driver(seed: int, script: list[tuple]) -> list[tuple]:
    world = World(seed)
    transport = SimTransport(world.sim)
    lookupds = {id(machine): NameLookupServer(transport, machine,
                                              placement=world.placement)
                for machine in world.servers}
    for server in lookupds.values():
        world.injector.on_restart(lambda _machine, server=server:
                                  server.respawn(), machine=server.machine)
    client = AsyncNameClient(
        transport, PlacementRouter(world.placement, lookupds, world.home),
        transport.adopt(world.client), timeout=2.0, max_retries=1,
        retry_policy=RetryPolicy(base_backoff=0.1, max_backoff=0.4))
    outcomes = []
    for action, names in script:
        apply(world, action)
        for name_ in names:
            settled: list = []
            client.resolve(world.context, name_, settled.append)
            world.sim.run()
            outcome, = settled
            outcomes.append((outcome.ok, outcome.failed,
                             outcome.entity.label))
        world.sim.run(until=world.sim.clock.now + GAP)
    return outcomes


@pytest.mark.parametrize("seed", range(6))
def test_both_drivers_agree_on_every_faulted_lookup(seed):
    script = make_script(seed)
    kernel = run_kernel_driver(seed, script)
    message = run_message_driver(seed, script)
    assert any(failed for _ok, failed, _label in kernel)
    assert any(ok for ok, _failed, _label in kernel)
    for index, (ours, theirs) in enumerate(zip(kernel, message)):
        assert ours == theirs, (index, script)
    assert len(kernel) == len(message)
    # A lookup that lost a step answers ⊥E.
    assert all(label == "⊥E" for _ok, failed, label in kernel if failed)

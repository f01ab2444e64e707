"""One failure rule on both drivers of the walk, under faults.

A seeded script of crashes, restarts, partitions and heals runs through
:class:`~repro.nameservice.resolver.DistributedResolver` (the kernel
driver) and through :class:`~repro.nameservice.protocol.AsyncNameClient`
on :class:`~repro.transport.sim.SimTransport` (the message driver), each
over its own copy of the same placement.  Faults change only between
lookups, so both drivers face the same reachable set on every lookup and
must agree on its outcome: ``(ok, failed, entity label)``.  A lookup
that loses a step it cannot recover answers ``⊥E`` on both.  With the
kernel's circuit breaker out of play (the message driver keeps none),
they must also agree on what each lookup cost, step field by step
field.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Optional

import pytest

from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.nameservice.retry import RetryPolicy
from repro.transport.sim import SimTransport
from repro.workloads.deployment import World, build_world

NAMES = ["/svc/f0", "/svc/f1", "/svc/deep/g", "/svc/deep", "/svc/nope",
         "/solo/x", "/solo/nope", "/here", "/svc/f0/too-deep"]
#: Virtual time between rounds: past every backoff and lookup timeout.
GAP = 20.0
#: Both drivers' regime unless a test says otherwise.
POLICY = RetryPolicy(max_attempts=2, base_backoff=0.1, max_backoff=0.4)


def make_world(seed: int, retry_policy=POLICY,
               restart_sync: bool = False,
               breaker_threshold: int = 2) -> World:
    """``/svc`` and ``/svc/deep`` replicated on m1 + m2, ``/solo`` on m3
    alone, the root and ``/here`` on the client's machine; the servers
    sit behind a network of their own."""
    return build_world({
        "networks": ["lan", "srv"],
        "machines": [["client-m", "lan"], ["m1", "srv"], ["m2", "srv"],
                     ["m3", "srv"]],
        "parent_links": True,
        "paths": ["svc/f0", "svc/f1", "svc/deep/g", "solo/x", "here"],
        "place": [["/", "client-m"], ["svc", "m1", "m2"],
                  ["svc/deep", "m1", "m2"], ["solo", "m3"]],
        "clients": [["client-m", "client"]],
        "resolver": {"retry_policy": (asdict(retry_policy) if retry_policy
                                      else None),
                     "breaker_threshold": breaker_threshold,
                     "breaker_cooldown": 5.0},
        "restart_sync": restart_sync}, seed)


def servers(world: World) -> list:
    return [world.machines[label] for label in ("m1", "m2", "m3")]


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
    kind, lan, srv = action[0], world.networks["lan"], world.networks["srv"]
    if kind == "crash":
        world.injector.crash_machine(servers(world)[action[1]])
    elif kind == "restart":
        world.injector.restart_machine(servers(world)[action[1]])
    elif kind == "partition":
        world.injector.partition(lan, srv)
    elif kind == "heal":
        world.injector.heal(lan, srv)


def run_kernel_driver(seed: int, script: list[tuple],
                      retry_policy=POLICY, breaker_threshold: int = 2,
                      costs: Optional[list] = None) -> list[tuple]:
    """The outcome of every lookup of *script*; each lookup's cost is
    appended to *costs* when given."""
    world = make_world(seed, retry_policy, restart_sync=True,
                       breaker_threshold=breaker_threshold)
    resolver = world.resolver
    outcomes = []
    for action, names in script:
        apply(world, action)
        for name_ in names:
            entity, cost = resolver.resolve(world.client, world.context,
                                            name_)
            outcomes.append((entity.is_defined() and not cost.failed,
                             cost.failed, entity.label))
            if costs is not None:
                costs.append(cost)
        world.simulator.run(until=world.simulator.clock.now + GAP)
    return outcomes


def run_message_driver(seed: int, script: list[tuple],
                       retry_policy=POLICY, timeout: float = 2.0,
                       costs: Optional[list] = None) -> list[tuple]:
    world = make_world(seed)
    transport = SimTransport(world.simulator)
    lookupds = {id(machine): NameLookupServer(transport, machine,
                                              placement=world.placement)
                for machine in servers(world)}
    for server in lookupds.values():
        world.injector.on_restart(lambda _machine, server=server:
                                  server.respawn(), machine=server.machine)
    client = AsyncNameClient(
        transport, PlacementRouter(world.placement, lookupds,
                                   world.machines["client-m"]),
        transport.adopt(world.client), timeout=timeout,
        retry_policy=retry_policy)
    outcomes = []
    for action, names in script:
        apply(world, action)
        for name_ in names:
            settled: list = []
            client.resolve(world.context, name_, settled.append)
            world.simulator.run()
            outcome, = settled
            outcomes.append((outcome.ok, outcome.failed,
                             outcome.entity.label))
            if costs is not None:
                costs.append(outcome.cost)
        world.simulator.run(until=world.simulator.clock.now + GAP)
    return outcomes


#: (seed, lookup timeout).  At 2.0 every healthy remote ask takes the
#: late-reply path; 3.0 covers one ask per step under faults.  The 2.0
#: cases keep their seed-only ids.
FAULTED = ([pytest.param(seed, 2.0, id=str(seed)) for seed in range(6)]
           + [pytest.param(seed, 3.0, id=f"{seed}-timeout3.0")
              for seed in range(6)])


@pytest.mark.parametrize("seed, timeout", FAULTED)
def test_both_drivers_agree_on_every_faulted_lookup(seed, timeout):
    script = make_script(seed)
    kernel = run_kernel_driver(seed, script)
    message = run_message_driver(seed, script, timeout=timeout)
    assert any(failed for _ok, failed, _label in kernel)
    assert any(ok for ok, _failed, _label in kernel)
    for index, (ours, theirs) in enumerate(zip(kernel, message)):
        assert ours == theirs, (index, script)
    assert len(kernel) == len(message)
    # A lookup that lost a step answers ⊥E.
    assert all(label == "⊥E" for _ok, failed, label in kernel if failed)


def test_without_a_policy_a_crashed_primary_fails_both_drivers():
    """No retry policy is exactly ``RetryPolicy(max_attempts=1)`` on
    the primary, on both drivers: with ``/svc``'s primary down, a
    lookup under it answers ``⊥E`` flagged failed on each — neither
    driver fails over to the live replica.  (The lookup timeout
    outlasts a round trip: one ask must be enough while m1 is up.)"""
    healthy = [(("none",), ["/svc/f0"])]
    assert run_kernel_driver(0, healthy, retry_policy=None) \
        == run_message_driver(0, healthy, retry_policy=None, timeout=3.0) \
        == [(True, False, "f0")]
    script = [(("crash", 0), ["/svc/f0", "/here"])]
    expected = [(False, True, "⊥E"), (True, False, "here")]
    assert run_kernel_driver(0, script, retry_policy=None) == expected
    assert run_message_driver(0, script, retry_policy=None,
                              timeout=3.0) == expected
    # The same deployment under a policy fails over to m2.
    served = [(True, False, "f0"), (True, False, "here")]
    assert run_kernel_driver(0, script) == served
    assert run_message_driver(0, script, timeout=3.0) == served


def step_fields(cost) -> tuple:
    """What both drivers account for one lookup: every field of its
    cost but ``messages`` and ``latency`` (the message driver charges 0
    for both), with the servers touched named by machine —
    ``dirserver@m1`` and ``lookupd@m1`` are the same machine's."""
    return (cost.steps, cost.local_steps, cost.remote_steps,
            cost.cached_steps, cost.failed_hops, cost.retries,
            cost.failovers, cost.stale_steps, cost.weak,
            {label.rpartition("@")[2] for label in cost.servers_touched})


@pytest.mark.parametrize("seed", range(6))
def test_both_drivers_account_every_faulted_lookup_alike(seed):
    """Every server exists from build on both drivers, so a down
    machine costs the same asks on each: with the kernel's breaker
    disabled, each lookup's step fields agree at timeout 3.0."""
    script = make_script(seed)
    kernel: list = []
    message: list = []
    run_kernel_driver(seed, script, breaker_threshold=10**9, costs=kernel)
    run_message_driver(seed, script, timeout=3.0, costs=message)
    assert len(kernel) == len(message)
    for index, (ours, theirs) in enumerate(zip(kernel, message)):
        assert step_fields(ours) == step_fields(theirs), (index, script)

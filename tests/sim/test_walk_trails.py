"""The walk and chained replies: by hand, then by property.

A server that hosts the next directory keeps walking the suffix an
``Ask`` ships (``rest``) and answers with a *trail* — one entity per
component consumed.  By hand: ``walk_effects`` driven with scripted
replies must account a trail of *k* exactly as *k* single answers
(entity, every cost field, prefix-cache fills, deps, lease copies).  By
property: over random trees and placements, message-driven lookups on
``SimTransport`` return what the local model returns, every served step
is counted once, and a lookup costs one request per maximal run of
steps one server may serve.
"""

from __future__ import annotations

import dataclasses
import random
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SchemeError
from repro.model.entities import UNDEFINED_ENTITY
from repro.model.names import CompoundName
from repro.model.resolution import resolve as local_resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy, PrefixCache
from repro.nameservice.leases import LeaseTable, Wait
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (AsyncNameClient, NameLookupServer,
                                        PlacementRouter)
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.walk import (HOST_PROTOCOL, LOST, Ask, ResolutionCost,
                                    walk_effects)
from repro.obs.instrument import NO_OBS
from repro.sim.kernel import Simulator
from repro.transport.sim import SimTransport


class ScriptedHost:
    """The walk's host protocol over a real cache and no I/O: a client
    on *home* that does not park, routing by *placement*."""

    retry_policy = RetryPolicy(max_attempts=2, base_backoff=0.0)
    parks = False
    obs = NO_OBS
    rng = random.Random(0)

    def __init__(self, policy, placement, home):
        self.home = home
        self.copies: list = []
        self.charged: list = []
        self.replicas = placement.replicas_for_binding
        self.cache = None
        if policy is not CachePolicy.NONE:
            self.cache = PrefixCache(
                home, policy, placement, ttl=50.0,
                lease_table=(LeaseTable(home.label)
                             if policy is CachePolicy.LEASE else None),
                note_copies=lambda node, deps: self.copies.append(
                    (node.label, deps)))

    def now(self):
        return 1.0

    def cache_of(self, _home):
        return self.cache

    def target_on(self, _directory, node):
        return node

    def node_of(self, _target):
        return self.home

    def breaker_for(self, _target):
        return None

    def charge(self, target):
        self.charged.append(target.label)


def drive(host, context, name, replies, memo=None):
    """Run the walk, answering its asks from *replies* in order and
    letting every backoff pass at once.  Returns ``(entity, cost,
    asks)``, *asks* as ``(target, directory, component, rest,
    attempt)`` labels."""
    cost = ResolutionCost()
    steps = walk_effects(host, cost, context, CompoundName.coerce(name),
                         host.home, host.home, "lookup", memo=memo)
    replies = list(replies)
    asks = []
    reply = None
    try:
        while True:
            effect = steps.send(reply)
            while isinstance(effect, Wait):
                effect = steps.send(None)
            assert isinstance(effect, Ask)
            asks.append((effect.target.label, effect.directory.label,
                         effect.component, list(effect.rest),
                         effect.attempt))
            reply = replies.pop(0)
    except StopIteration as done:
        assert not replies, "the walk stopped asking early"
        return done.value[0], cost, asks


@pytest.fixture
def world():
    """``/a/b/c/leaf`` with a, b on s1 and c on s2; root on the client."""
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    home = simulator.machine(network, "home")
    s1 = simulator.machine(network, "s1")
    s2 = simulator.machine(network, "s2")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b/c")
    leaf = tree.mkfile("a/b/c/leaf")
    placement = DirectoryPlacement()
    placement.place(tree.root, s1)
    placement.place(tree.directory("a"), s1)
    placement.place(tree.directory("a/b"), s1)
    placement.place(tree.directory("a/b/c"), s2)
    a, b, c = (tree.directory(p) for p in ("a", "a/b", "a/b/c"))
    return {"home": home, "placement": placement, "leaf": leaf,
            "context": ProcessContext(tree.root), "dirs": (a, b, c)}


def host_state(host, memo):
    """Everything a walk leaves behind at its host, comparably."""
    return {
        "charged": host.charged,
        "copies": host.copies,
        "entries": {key: (entry.directory, entry.deps)
                    for key, entry in (host.cache._entries.items()
                                       if host.cache is not None else ())},
        "memo": memo,
    }


class TestTrailsByHand:
    def test_the_scripted_host_provides_the_whole_protocol(self, world):
        host = ScriptedHost(CachePolicy.NONE, world["placement"],
                            world["home"])
        assert all(hasattr(host, name) for name in HOST_PROTOCOL)

    @pytest.mark.parametrize("policy", [CachePolicy.NONE, CachePolicy.TTL,
                                        CachePolicy.LEASE])
    @pytest.mark.parametrize("single", ["bare", "trail-of-one"])
    def test_a_trail_of_k_is_k_single_answers(self, world, policy, single):
        a, b, c = world["dirs"]
        leaf = world["leaf"]
        answers = [a, b, c, leaf]
        runs = {}
        for shape, replies in (
                ("stepwise", [[e] if single == "trail-of-one" else e
                              for e in answers]),
                ("chained", [[a, b, c], [leaf]])):
            host = ScriptedHost(policy, world["placement"], world["home"])
            memo = {}
            entity, cost, asks = drive(host, world["context"],
                                       "/a/b/c/leaf", replies, memo=memo)
            runs[shape] = (entity, dataclasses.asdict(cost),
                           host_state(host, memo), asks)
        stepwise, chained = runs["stepwise"], runs["chained"]
        assert chained[0] is stepwise[0] is leaf
        assert chained[1] == stepwise[1]            # cost, field by field
        assert chained[1]["steps"] == 5
        assert chained[1]["remote_steps"] == 4
        assert chained[1]["servers_touched"] == {"s1", "s2"}
        assert chained[2] == stepwise[2]
        assert chained[2]["charged"] == ["s1", "s1", "s1", "s2"]
        if policy is not CachePolicy.NONE:
            assert len(chained[2]["entries"]) == 4  # /, /a, /a/b, /a/b/c
            assert len(chained[2]["copies"]) == 4
        assert len(chained[2]["memo"]) == 4
        # Four asks step by step; chained, one per server, each shipping
        # what was still unresolved.
        assert [ask[:4] for ask in stepwise[3]] == [
            ("s1", "root", "a", ["b", "c", "leaf"]),
            ("s1", "a", "b", ["c", "leaf"]),
            ("s1", "b", "c", ["leaf"]),
            ("s2", "c", "leaf", [])]
        assert [ask[:4] for ask in chained[3]] == [
            ("s1", "root", "a", ["b", "c", "leaf"]),
            ("s2", "c", "leaf", [])]

    def test_unbound_end_of_a_trail_ends_the_walk(self, world):
        a, b, _c = world["dirs"]
        host = ScriptedHost(CachePolicy.NONE, world["placement"],
                            world["home"])
        entity, cost, asks = drive(host, world["context"], "/a/b/zz/leaf",
                                   [[a, b, UNDEFINED_ENTITY]])
        assert entity is UNDEFINED_ENTITY
        assert len(asks) == 1                   # asked and answered
        stepwise = drive(
            ScriptedHost(CachePolicy.NONE, world["placement"],
                         world["home"]),
            world["context"], "/a/b/zz/leaf", [a, b, UNDEFINED_ENTITY])
        assert dataclasses.asdict(cost) == dataclasses.asdict(stepwise[1])
        assert (cost.steps, cost.remote_steps) == (4, 3)
        # …also when the unbound name is the last component.
        entity, cost, asks = drive(
            ScriptedHost(CachePolicy.NONE, world["placement"],
                         world["home"]),
            world["context"], "/a/zz", [[a, UNDEFINED_ENTITY]])
        assert entity is UNDEFINED_ENTITY and len(asks) == 1
        assert not cost.failed

    def test_a_trail_stopping_at_a_leaf_resolves_undefined(self, world):
        a, b, c = world["dirs"]
        leaf = world["leaf"]
        host = ScriptedHost(CachePolicy.NONE, world["placement"],
                            world["home"])
        entity, cost, asks = drive(host, world["context"],
                                   "/a/b/c/leaf/x/y", [[a, b, c], [leaf]])
        assert entity is UNDEFINED_ENTITY and not cost.failed
        assert len(asks) == 2 and cost.steps == 5

    def test_lost_then_a_trail_on_the_re_ask_is_one_retry(self, world):
        a, b, c = world["dirs"]
        host = ScriptedHost(CachePolicy.NONE, world["placement"],
                            world["home"])
        entity, cost, asks = drive(host, world["context"], "/a/b/c",
                                   [LOST, [a, b, c]])
        assert entity is c
        assert (cost.retries, cost.failovers, cost.failed) == (1, 0, False)
        assert (cost.steps, cost.remote_steps) == (4, 3)
        # The lost request is re-asked whole.
        assert asks == [("s1", "root", "a", ["b", "c"], 1),
                        ("s1", "root", "a", ["b", "c"], 2)]

    def test_a_trail_longer_than_the_name_is_not_followed(self, world):
        a, b, c = world["dirs"]
        host = ScriptedHost(CachePolicy.NONE, world["placement"],
                            world["home"])
        entity, cost, _asks = drive(host, world["context"], "/a/b",
                                    [[a, b, c, world["leaf"]]])
        assert entity is b and cost.steps == 3

    def test_a_host_that_parks_ships_no_suffix(self, world):
        host = ScriptedHost(CachePolicy.NONE, world["placement"],
                            world["home"])
        host.parks = True       # …and reads on where the ask was answered
        host.node_of = lambda target: target
        entity, cost, asks = drive(host, world["context"], "/a/b/c/leaf",
                                   [world["dirs"][0], world["leaf"]])
        assert entity is world["leaf"] and cost.remote_steps == 4
        assert [ask[:4] for ask in asks] == [("s1", "root", "a", []),
                                             ("s2", "c", "leaf", [])]


# -- by property --------------------------------------------------------------

atoms = st.sampled_from(list(string.ascii_lowercase[:4]))
paths = st.lists(atoms, min_size=1, max_size=4)


def build_deployment(dir_paths, file_paths, servers, rng):
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    client_machine = simulator.machine(network, "client-m")
    machines = [simulator.machine(network, f"s{i}") for i in range(servers)]
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    for path in dir_paths:
        try:
            tree.mkdir(path)
        except SchemeError:
            pass
    for path in file_paths:
        try:
            tree.mkfile(path)
        except SchemeError:
            pass
    placement = DirectoryPlacement()
    replicated = []
    for _path, entity in [(None, tree.root), *tree.walk()]:
        if not entity.is_context_object():
            continue
        kind = rng.choice(["one", "one", "replicated", "sharded", "unplaced"])
        if kind == "one":
            placement.place(entity, rng.choice(machines))
        elif kind == "replicated":
            chosen = rng.sample(machines, rng.randint(1, servers))
            placement.place_replicated(entity, *chosen)
            if len(chosen) > 1:
                replicated.append((entity, chosen))
        elif kind == "sharded":
            chosen = rng.sample(machines, rng.randint(1, servers))
            placement.place_sharded(
                entity, *chosen, replicas=rng.randint(1, len(chosen)))
    if replicated:      # one replica missed a write: never asked, never chains
        entity, chosen = rng.choice(replicated)
        placement.mark_stale(entity, rng.choice(chosen))
    transport = SimTransport(simulator)
    lookupds = {id(machine): NameLookupServer(transport, machine,
                                              placement=placement)
                for machine in machines}
    # One ask per replica (no backoff is ever drawn), but failover past
    # the stale replica: without a policy the primary alone is asked.
    client = AsyncNameClient(
        transport, PlacementRouter(placement, lookupds, client_machine),
        transport.adopt(simulator.spawn(client_machine, "client")),
        retry_policy=RetryPolicy(max_attempts=1))
    return simulator, tree, placement, lookupds, client, machines


def expected_requests(placement, root, comps):
    """Requests one lookup of *comps* (below the root binding) costs:
    the maximal runs of consecutive steps one server may serve, the
    client asking the first live replica in its router's order."""
    requests = remote = 0
    standing = None
    directory = root
    for component in comps:
        live = [m for m in placement.replicas_for_binding(directory,
                                                          component)
                if not placement.is_stale(directory, m)]
        if not live:
            standing = None                 # unplaced: read in place
        else:
            remote += 1
            if standing not in live:
                requests += 1
                standing = live[0]
        entity = directory.state(component)
        if not entity.is_context_object():
            break
        directory = entity
    return requests, remote


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dir_paths=st.lists(paths, min_size=1, max_size=6),
       file_paths=st.lists(paths, min_size=0, max_size=4),
       servers=st.integers(min_value=1, max_value=4),
       rng=st.randoms(use_true_random=False))
def test_chained_lookups_match_the_model_and_count_every_step_once(
        dir_paths, file_paths, servers, rng):
    simulator, tree, placement, lookupds, client, machines = \
        build_deployment(dir_paths, file_paths, servers, rng)
    context = ProcessContext(tree.root)
    names = [list(path.parts) for path, _entity in tree.walk()]
    names += [name + ["zz"] for name in names[:4]] + [["zz", "a"]]
    remote_steps = 0
    for comps in names:
        text = "/" + "/".join(comps)
        outcomes = []
        sent = simulator.messages_sent
        client.resolve(context, text, outcomes.append)
        simulator.run()
        [outcome] = outcomes
        assert outcome.entity is local_resolve(context, text), text
        assert not outcome.failed
        requests, remote = expected_requests(placement, tree.root, comps)
        assert outcome.cost.remote_steps == remote, text
        # (The root binding is the context's own: one step, nobody's.)
        assert outcome.steps == 1 + outcome.cost.local_steps + remote
        # A request and its reply each; never more than the one per
        # remote step an unchained lookup costs, and exactly one when a
        # single server holds the path.
        assert simulator.messages_sent - sent == 2 * requests, text
        assert requests <= remote
        if len(outcome.cost.servers_touched) == 1 and \
                outcome.cost.local_steps == 0:
            assert requests == 1, text
        remote_steps += remote
    assert sum(server.requests_served
               for server in lookupds.values()) == remote_steps
    assert client.late_replies == 0 and client.outstanding() == 0

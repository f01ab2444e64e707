"""Tests for the distributed name service (placement + resolver)."""

from __future__ import annotations

import pytest

from repro.errors import SchemeError
from repro.model.entities import ObjectEntity
from repro.model.resolution import resolve as local_resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver, ResolutionStyle
from repro.sim.kernel import Simulator


@pytest.fixture
def deployment():
    """A three-server chain: client machine hosts `a`, second machine
    hosts `b`, third hosts `c`; path a/b/c/leaf crosses all three."""
    simulator = Simulator(seed=0)
    network = simulator.network("lan")
    m_client = simulator.machine(network, "client-m")
    m_b = simulator.machine(network, "b-m")
    m_c = simulator.machine(network, "c-m")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b/c")
    leaf = tree.mkfile("a/b/c/leaf")
    placement = DirectoryPlacement()
    placement.place(tree.root, m_client)
    placement.place(tree.directory("a"), m_client)
    placement.place(tree.directory("a/b"), m_b)
    placement.place(tree.directory("a/b/c"), m_c)
    client = simulator.spawn(m_client, "client")
    context = ProcessContext(tree.root)
    resolver = DistributedResolver(simulator, placement)
    return simulator, resolver, client, context, tree, leaf


class TestPlacement:
    def test_place_rejects_non_directory(self):
        placement = DirectoryPlacement()
        simulator = Simulator()
        machine = simulator.machine(simulator.network())
        with pytest.raises(SchemeError):
            placement.place(ObjectEntity("file"), machine)

    def test_place_subtree_counts(self):
        simulator = Simulator()
        machine = simulator.machine(simulator.network())
        tree = NamingTree("r", parent_links=True)
        tree.mkdir("a/b")
        tree.mkfile("a/f")
        placement = DirectoryPlacement()
        assert placement.place_subtree(tree.root, machine) == 3
        assert all(placement.host_of(directory) is machine
                   for directory in (tree.root, tree.directory("a"),
                                     tree.directory("a/b")))

    def test_place_subtree_stops_at_foreign_placement(self):
        simulator = Simulator()
        network = simulator.network()
        m1, m2 = simulator.machine(network), simulator.machine(network)
        tree = NamingTree("r", parent_links=True)
        mounted = NamingTree("shared", parent_links=True)
        mounted.mkdir("deep")
        tree.attach("mnt", mounted.root, set_parent=False)
        placement = DirectoryPlacement()
        placement.place_subtree(mounted.root, m2)
        placement.place_subtree(tree.root, m1)
        assert placement.host_of(mounted.root) is m2
        assert placement.host_of(mounted.directory("deep")) is m2
        assert placement.host_of(tree.root) is m1


class TestResolverSemantics:
    def test_matches_local_resolution(self, deployment, async_lookups):
        """Both drivers of the one walk are held to the section-2
        recursion on the same names."""
        simulator, resolver, client, context, tree, leaf = deployment
        lookup = async_lookups(simulator, resolver.placement,
                               client.machine,
                               client.machine.network.machines())
        for text in ("/a/b/c/leaf", "/a/b", "/a/nope", "/missing",
                     "a/b/c/leaf", "/"):
            assert resolver.resolve(client, context, text)[0] is \
                local_resolve(context, text)
            outcome = lookup(context, text)
            assert outcome.entity is local_resolve(context, text)
            assert not outcome.failed

    def test_resolves_leaf(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        entity, cost = resolver.resolve(client, context, "/a/b/c/leaf")
        assert entity is leaf
        assert cost.steps == 5  # root + a,b,c,leaf

    def test_undefined_result_costs_partial_walk(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        entity, cost = resolver.resolve(client, context, "/a/zzz/x")
        assert not entity.is_defined()
        assert cost.steps >= 2


class TestResolverCosts:
    def test_local_resolution_is_free(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        _, cost = resolver.resolve(client, context, "/a")
        assert cost.messages == 0
        assert cost.latency == 0.0

    def test_remote_walk_counts_messages(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        _, cost = resolver.resolve(client, context, "/a/b/c/leaf")
        assert cost.messages > 0
        assert cost.latency > 0
        assert cost.remote_steps >= 2
        assert cost.servers_touched == {"dirserver@b-m", "dirserver@c-m"}

    def test_recursive_cheaper_than_iterative_on_chains(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        _, iterative = resolver.resolve(client, context, "/a/b/c/leaf",
                                        ResolutionStyle.ITERATIVE)
        _, recursive = resolver.resolve(client, context, "/a/b/c/leaf",
                                        ResolutionStyle.RECURSIVE)
        assert recursive.messages < iterative.messages

    def test_load_accounting(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        resolver.resolve(client, context, "/a/b/c/leaf")
        assert resolver.load.get("dirserver@b-m", 0) >= 1
        assert resolver.load.get("dirserver@c-m", 0) >= 1

    def test_unplaced_directories_resolve_in_place(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        # Per-process private dirs have no placement: no messages.
        private = NamingTree("ns", sigma=simulator.sigma)
        private.mkfile("x/y")
        private_context = ProcessContext(private.root)
        _, cost = resolver.resolve(client, private_context, "/x/y")
        assert cost.messages == 0

    def test_cost_str(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        _, cost = resolver.resolve(client, context, "/a/b/c/leaf")
        assert "steps=5" in str(cost)

    def test_server_processes_are_reused(self, deployment):
        simulator, resolver, client, context, tree, leaf = deployment
        first = resolver.server_for(client.machine)
        second = resolver.server_for(client.machine)
        assert first is second

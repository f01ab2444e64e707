"""Tests for the naming graph (section 2)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.model.graph import NamingGraph
from repro.model.names import CompoundName
from repro.model.state import GlobalState


def build_world():
    sigma = GlobalState()
    root = sigma.add(context_object("root"))
    usr = sigma.add(context_object("usr"))
    bin_ = sigma.add(context_object("bin"))
    cc = sigma.add(ObjectEntity("cc"))
    root.state.bind("usr", usr)
    usr.state.bind("bin", bin_)
    bin_.state.bind("cc", cc)
    return sigma, root, usr, bin_, cc


class TestEdges:
    def test_edges_follow_context_object_states(self):
        sigma, root, usr, bin_, cc = build_world()
        graph = NamingGraph(sigma)
        edges = {(o.label, n, e.label) for o, n, e in graph.edges()}
        assert edges == {("root", "usr", "usr"), ("usr", "bin", "bin"),
                         ("bin", "cc", "cc")}

    def test_edges_are_live(self):
        sigma, root, usr, bin_, cc = build_world()
        graph = NamingGraph(sigma)
        extra = sigma.add(ObjectEntity("motd"))
        root.state.bind("motd", extra)
        assert ("motd", extra) in graph.out_edges(root)

    def test_out_edges_of_leaf_is_empty(self):
        sigma, *_, cc = build_world()
        assert NamingGraph(sigma).out_edges(cc) == []


class TestReachability:
    def test_reachable_from_root(self):
        sigma, root, usr, bin_, cc = build_world()
        graph = NamingGraph(sigma)
        assert graph.reachable_from(root) == {root, usr, bin_, cc}

    def test_reachable_from_middle(self):
        sigma, root, usr, bin_, cc = build_world()
        graph = NamingGraph(sigma)
        assert graph.reachable_from(usr) == {usr, bin_, cc}

    def test_cycles_terminate(self):
        sigma, root, usr, *_ = build_world()
        usr.state.bind("..", root)
        graph = NamingGraph(sigma)
        assert root in graph.reachable_from(usr)


class TestPaths:
    def test_paths_to(self):
        sigma, root, _, _, cc = build_world()
        graph = NamingGraph(sigma)
        assert graph.paths_to(root, cc) == [
            CompoundName.parse("usr/bin/cc")]

    def test_multiple_paths(self):
        sigma, root, usr, bin_, cc = build_world()
        root.state.bind("b2", bin_)  # second route to cc
        graph = NamingGraph(sigma)
        paths = {str(p) for p in graph.paths_to(root, cc)}
        assert paths == {"usr/bin/cc", "b2/cc"}

    def test_resolution_correspondence(self):
        # "Resolving a compound name corresponds to traversing a
        # directed path in the naming graph."
        sigma, root, *_ = build_world()
        graph = NamingGraph(sigma)
        for text in ("usr", "usr/bin", "usr/bin/cc", "usr/nope"):
            assert graph.verify_resolution_correspondence(
                root, CompoundName.parse(text))


class TestTreeCheck:
    def test_tree_is_tree(self):
        sigma, root, *_ = build_world()
        assert NamingGraph(sigma).is_tree(root)

    def test_shared_node_is_not_tree(self):
        sigma, root, usr, bin_, cc = build_world()
        root.state.bind("alias", bin_)
        assert not NamingGraph(sigma).is_tree(root)

    def test_dotdot_edges_ignored(self):
        sigma, root, usr, *_ = build_world()
        usr.state.bind("..", root)
        assert NamingGraph(sigma).is_tree(root)


class TestNetworkxExport:
    def test_service_half_does_not_import_networkx(self):
        """Only ``to_networkx`` needs networkx, so a naming-service
        process (resolver, socket service, auditor) never loads it."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "import repro.nameservice.resolver\n"
             "import repro.transport.service\n"
             "import repro.obs.audit\n"
             "assert 'networkx' not in sys.modules, 'networkx loaded'\n"],
            capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr

    def test_snapshot_shape(self):
        sigma, root, usr, bin_, cc = build_world()
        nxg = NamingGraph(sigma).to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 3
        assert nxg.has_edge(root.uid, usr.uid)
        assert nxg.nodes[cc.uid]["label"] == "cc"
        assert nxg.nodes[root.uid]["context"] is True
        assert nxg.nodes[cc.uid]["context"] is False

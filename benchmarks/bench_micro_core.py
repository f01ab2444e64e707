"""Micro-benchmarks for the core primitives.

Not tied to a paper figure — these time the substrate operations every
experiment is built from, so regressions in the hot paths (compound
resolution, coherence measurement, pid mapping, kernel message
throughput) are visible independently of the scenario benches.
"""

from __future__ import annotations

import random

import pytest

from repro.coherence.metrics import measure_degree
from repro.model.names import CompoundName
from repro.model.resolution import resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.namespaces.unix import UnixSystem
from repro.obs.instrument import Instrumentation
from repro.obs.trace import SpanSampler
from repro.pqid.mapping import map_pid, qualify
from repro.sim.kernel import Simulator
from repro.workloads.scenarios import build_pqid_population

DEPTH = 32
WIDTH = 256


def test_resolve_deep_path(benchmark):
    tree = NamingTree("root", parent_links=True)
    path = CompoundName([f"d{i}" for i in range(DEPTH)])
    tree.mkfile(path)
    context = ProcessContext(tree.root)
    rooted = path.as_rooted()

    result = benchmark(resolve, context, rooted)
    assert result.is_defined()


def test_resolve_wide_directory(benchmark):
    tree = NamingTree("root", parent_links=True)
    for index in range(WIDTH):
        tree.mkfile(f"dir/f{index}")
    context = ProcessContext(tree.root)

    result = benchmark(resolve, context, "/dir/f200")
    assert result.is_defined()


def test_measure_degree_scaling(benchmark):
    unix = UnixSystem("big")
    for index in range(40):
        unix.tree.mkfile(f"home/u{index}/file")
    for index in range(20):
        unix.spawn(f"p{index}")
    probes = unix.probe_names()

    degree = benchmark(measure_degree, unix.activities(), probes,
                       unix.registry)
    assert degree.coherent_fraction == 1.0


def test_pid_mapping_throughput(benchmark):
    population = build_pqid_population(seed=0, n_networks=3,
                                       machines_per_network=3,
                                       processes_per_machine=3)
    rng = random.Random(0)
    triples = [(rng.choice(population.processes),
                rng.choice(population.processes),
                rng.choice(population.processes))
               for _ in range(200)]

    def run():
        ok = 0
        for sender, receiver, target in triples:
            pid = qualify(target, sender)
            if map_pid(pid, sender, receiver) is not None:
                ok += 1
        return ok

    assert benchmark(run) == 200


#: The kernel-only obs overhead triple: the same message loop on
#: NO_OBS, under 5%-sampled spans (the always-on mode) and with every
#: span kept.  Both instrumented rows publish the kernel's counters the
#: same way, once at the end of the run.  Compare the three rows of one
#: ``--benchmark-only`` run; docs/observability.md has the budget.
OBS_MODES = {
    "no_obs": lambda: None,
    "sampled": lambda: Instrumentation(
        max_spans=4096, sampler=SpanSampler(rate=0.05, seed=1)),
    "full": lambda: Instrumentation(max_spans=4096),
}


@pytest.mark.parametrize("obs_mode", OBS_MODES)
def test_kernel_message_throughput(benchmark, obs_mode):
    def run():
        simulator = Simulator(seed=1, obs=OBS_MODES[obs_mode]())
        network = simulator.network("lan")
        processes = [simulator.spawn(simulator.machine(network), f"p{i}")
                     for i in range(8)]
        for index in range(500):
            sender = processes[index % 8]
            receiver = processes[(index + 3) % 8]
            sender.send(receiver, payload=index)
        simulator.run()
        return simulator.messages_delivered

    assert benchmark(run) == 500


def test_large_tree_walk(benchmark):
    tree = NamingTree("big", parent_links=True)
    for top in range(20):
        for mid in range(10):
            for leaf in range(5):
                tree.mkfile(f"d{top}/s{mid}/f{leaf}")

    paths = benchmark(tree.all_paths)
    assert len(paths) == 20 + 20 * 10 + 20 * 10 * 5


def test_naming_graph_edges_scaling(benchmark):
    from repro.model.graph import NamingGraph
    from repro.model.state import GlobalState

    sigma = GlobalState()
    tree = NamingTree("big", sigma=sigma, parent_links=True)
    for top in range(30):
        for leaf in range(20):
            tree.mkfile(f"d{top}/f{leaf}")
    graph = NamingGraph(sigma)

    edges = benchmark(lambda: sum(1 for _ in graph.edges()))
    # 30 top dirs + 600 leaves + 31 parent links (root self + 30 dirs).
    assert edges == 30 + 600 + 31

"""Ablation A4: the operational cost of each naming design.

Coherence is only half of section 5's trade-off — the single naming
graph buys its "high degree of coherence" by funnelling every rooted
resolution through shared directories, while the shared-graph approach
"leads to more loosely-coupled distributed systems" and per-process
namespaces bind subsystems directly into each context.  A4 makes the
other half measurable: the same workload (70% machine-local file
names, 30% shared-corpus names) is resolved through placed directory
servers on three designs, counting messages, virtual latency and
central-server load.

Expected shape: the single tree pays remote traffic even for local
names and concentrates load on the root server; the shared graph
serves local names with zero messages; per-process namespaces match
the shared graph on locality while keeping E11's coherence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.harness import ExperimentResult
from repro.model.names import CompoundName
from repro.namespaces.perprocess import PerProcessSystem
from repro.namespaces.shared_graph import SharedGraphSystem
from repro.namespaces.single_tree import SingleTreeSystem
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.walk import ResolutionCost
from repro.sim.kernel import Simulator

__all__ = ["run_a4_resolution_cost"]

_SITES = ("site1", "site2")
_LOCAL_FILES = ("tmp/build.log", "tmp/cache")
_SHARED_FILES = ("corpus/words", "corpus/extra")


@dataclass
class _Deployment:
    """One scheme wired onto simulator machines with placements."""

    label: str
    simulator: Simulator
    resolver: DistributedResolver
    #: (client process, context, local names, shared names)
    clients: list[tuple]
    central_server_machine: str


def _deploy_single_tree(seed: int) -> _Deployment:
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    system = SingleTreeSystem(sigma=simulator.sigma)
    placement = DirectoryPlacement()
    root_machine = simulator.machine(network, "rootserver")
    machines = {}
    for site in _SITES:
        system.add_machine(site)
        for path in _LOCAL_FILES:
            system.machine_tree(site).mkfile(path)
        machines[site] = simulator.machine(network, site)
    for path in _SHARED_FILES:
        system.tree.mkfile(f"shared/{path}")
    # The root (and the shared subtree) live on the root server; each
    # machine hosts its own subtree.
    placement.place_subtree(system.tree.root, root_machine)
    for site in _SITES:
        placement.place_subtree(system.machine_tree(site).root,
                                machines[site])
    resolver = DistributedResolver(simulator, placement)
    clients = []
    for site in _SITES:
        sim_process = simulator.spawn(machines[site], f"{site}-client")
        process = system.spawn(site, sim_process.label,
                               activity=sim_process)
        locals_ = [CompoundName.parse(f"/{site}/{p}")
                   for p in _LOCAL_FILES]
        shared = [CompoundName.parse(f"/shared/{p}")
                  for p in _SHARED_FILES]
        clients.append((sim_process,
                        system.registry.context_of(process),
                        locals_, shared))
    return _Deployment("single-tree", simulator, resolver, clients,
                       "rootserver")


def _deploy_shared_graph(seed: int) -> _Deployment:
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    system = SharedGraphSystem(sigma=simulator.sigma)
    placement = DirectoryPlacement()
    vice_machine = simulator.machine(network, "viceserver")
    for path in _SHARED_FILES:
        system.shared.mkfile(path)
    placement.place_subtree(system.shared.root, vice_machine)
    clients = []
    for site in _SITES:
        client = system.add_client(site)
        for path in _LOCAL_FILES:
            client.tree.mkfile(path)
        machine = simulator.machine(network, site)
        placement.place_subtree(client.tree.root, machine)
        sim_process = simulator.spawn(machine, f"{site}-client")
        process = client.spawn(sim_process.label, activity=sim_process)
        locals_ = [CompoundName.parse(f"/{p}") for p in _LOCAL_FILES]
        shared = [CompoundName.parse(f"/vice/{p}")
                  for p in _SHARED_FILES]
        clients.append((sim_process,
                        system.registry.context_of(process),
                        locals_, shared))
    resolver = DistributedResolver(simulator, placement)
    return _Deployment("shared-graph", simulator, resolver, clients,
                       "viceserver")


def _deploy_perprocess(seed: int) -> _Deployment:
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    system = PerProcessSystem(sigma=simulator.sigma)
    placement = DirectoryPlacement()
    fs_machine = simulator.machine(network, "fileserver")
    system.add_machine("fileserver")
    for path in _SHARED_FILES:
        system.machine_tree("fileserver").mkfile(path)
    placement.place_subtree(system.machine_tree("fileserver").root,
                            fs_machine)
    clients = []
    for site in _SITES:
        system.add_machine(site)
        for path in _LOCAL_FILES:
            system.machine_tree(site).mkfile(path)
        machine = simulator.machine(network, site)
        placement.place_subtree(system.machine_tree(site).root, machine)
        sim_process = simulator.spawn(machine, f"{site}-client")
        process = system.spawn(site, sim_process.label,
                               mounts=[("local", site),
                                       ("shared", "fileserver")],
                               activity=sim_process)
        locals_ = [CompoundName.parse(f"/local/{p}")
                   for p in _LOCAL_FILES]
        shared = [CompoundName.parse(f"/shared/{p}")
                  for p in _SHARED_FILES]
        clients.append((sim_process,
                        system.registry.context_of(process),
                        locals_, shared))
    resolver = DistributedResolver(simulator, placement)
    return _Deployment("per-process", simulator, resolver, clients,
                       "fileserver")


def _run_workload(deployment: _Deployment, rng: random.Random,
                  resolutions: int) -> dict[str, float]:
    costs: list[ResolutionCost] = []
    local_costs: list[ResolutionCost] = []
    failures = 0
    for _ in range(resolutions):
        client, context, locals_, shared = rng.choice(deployment.clients)
        is_local = rng.random() < 0.7
        name_ = rng.choice(locals_ if is_local else shared)
        entity, cost = deployment.resolver.resolve(client, context, name_)
        if not entity.is_defined():
            failures += 1
        costs.append(cost)
        if is_local:
            local_costs.append(cost)
    total = ResolutionCost.merge(costs)
    local_total = ResolutionCost.merge(local_costs)
    # `load` aggregates by label (reporting view of the per-process
    # counters); the central machine hosts exactly one server here.
    central = sum(
        count for label, count in deployment.resolver.load.items()
        if deployment.central_server_machine in label)
    return {
        "mean_messages": total.messages / resolutions,
        "mean_latency": total.latency / resolutions,
        "local_mean_messages": (local_total.messages / len(local_costs)
                                if local_costs else 0.0),
        "central_load": float(central),
        "failures": float(failures),
    }


def run_a4_resolution_cost(seed: int = 0,
                           resolutions: int = 200) -> ExperimentResult:
    """A4: messages/latency/central load per naming design."""
    rng = random.Random(seed)
    measurements = {}
    for deploy in (_deploy_single_tree, _deploy_shared_graph,
                   _deploy_perprocess):
        deployment = deploy(seed)
        measurements[deployment.label] = _run_workload(
            deployment, rng, resolutions)

    result = ExperimentResult(
        exp_id="A4",
        title="Resolution cost by naming design (section 5 trade-off)",
        headers=["design", "mean msgs", "mean latency",
                 "local-name mean msgs", "central-server steps",
                 "failed resolutions"])
    for label in ("single-tree", "shared-graph", "per-process"):
        m = measurements[label]
        result.rows.append([label, m["mean_messages"], m["mean_latency"],
                            m["local_mean_messages"], m["central_load"],
                            int(m["failures"])])

    single = measurements["single-tree"]
    andrew = measurements["shared-graph"]
    port = measurements["per-process"]
    result.check("every resolution succeeded on every design",
                 all(m["failures"] == 0 for m in measurements.values()))
    result.check("the single tree pays messages even for local names",
                 single["local_mean_messages"] > 0.0)
    result.check("the shared graph serves local names without any "
                 "messages", andrew["local_mean_messages"] == 0.0)
    result.check("per-process namespaces match shared-graph locality",
                 port["local_mean_messages"] == 0.0)
    result.check("the single tree concentrates the most load on its "
                 "central server",
                 single["central_load"] > andrew["central_load"]
                 and single["central_load"] > port["central_load"])
    result.check("loosely-coupled designs cost fewer messages overall",
                 single["mean_messages"] > andrew["mean_messages"]
                 and single["mean_messages"] > port["mean_messages"])
    result.notes.append(f"seed={seed} resolutions={resolutions} "
                        f"(70% local / 30% shared)")
    result.figures = {f"{k}|mean_messages": v["mean_messages"]
                      for k, v in measurements.items()}
    return result

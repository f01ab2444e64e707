"""One deployment spec builds every simulated world.

A deployment is a value: a small JSON-able dict that says which
networks and machines exist, which names the tree holds, where each
directory lives and how the resolver is configured.
:func:`build_world` turns it into a :class:`World`, always in one
order — networks, machines, tree, placements, client spawns, resolver,
failure injector, split manager, process context — because entity
uids and the kernel trace follow construction order.

Spec keys (each optional; an unknown key raises
:class:`~repro.errors.SchemeError`):

* ``networks`` — network labels; ``machines`` — ``[label, network]``;
* ``parent_links`` — give the tree ``..`` links;
* ``paths`` — tree paths in creation order (a trailing ``/`` makes a
  directory, anything else a leaf); ``zipf`` — keyword arguments of
  :func:`~repro.workloads.zipf.build_zipf_namespace`;
* ``place`` — ``[path, machine, *more]``: one machine places the
  directory, more replicate it primary-first (``"/"`` is the root);
  ``shard`` — ``[path, [machines], replicas]``;
* ``clients`` — ``[machine, label]`` processes;
* ``resolver`` — :class:`DistributedResolver` keyword arguments, with
  ``cache_policy`` by value and ``retry_policy`` as
  :class:`RetryPolicy` fields; ``restart_sync`` — run
  ``resolver.handle_restart`` on every restart;
* ``splits`` — :class:`ShardManager` keyword arguments plus ``pool``,
  machine labels.

>>> world = build_world({
...     "networks": ["lan"], "machines": [["home", "lan"], ["m1", "lan"]],
...     "paths": ["svc/f0"], "place": [["/", "home"], ["svc", "m1"]],
...     "clients": [["home", "client"]],
...     "resolver": {"cache_policy": "ttl"}})
>>> world.resolver.resolve(world.client, world.context, "/svc/f0")[0].label
'f0'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import SchemeError
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.sharding import ShardManager
from repro.obs.instrument import Instrumentation
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.network import Machine, Network
from repro.sim.process import SimProcess
from repro.workloads.zipf import ZipfNamespace, build_zipf_namespace

__all__ = ["SPEC_KEYS", "World", "build_world"]

SPEC_KEYS = frozenset({
    "networks", "machines", "parent_links", "paths", "zipf", "place",
    "shard", "clients", "resolver", "restart_sync", "splits"})


@dataclass
class World:
    """A built deployment; ``networks`` and ``machines`` by label."""

    simulator: Simulator
    networks: dict[str, Network]
    machines: dict[str, Machine]
    tree: NamingTree
    placement: DirectoryPlacement
    clients: list[SimProcess]
    context: ProcessContext
    resolver: DistributedResolver
    injector: FailureInjector
    namespace: Optional[ZipfNamespace] = None   #: the ``zipf`` directory

    @property
    def client(self) -> SimProcess:
        """The first client process."""
        return self.clients[0]


def build_world(spec: dict[str, Any], seed: int = 0,
                obs: Optional[Instrumentation] = None) -> World:
    """Build the deployment *spec* on a fresh ``Simulator(seed, obs)``."""
    unknown = sorted(set(spec) - SPEC_KEYS)
    if unknown:
        raise SchemeError(f"unknown deployment keys: {unknown}")
    simulator = Simulator(seed=seed, obs=obs)
    networks = {label: simulator.network(label)
                for label in spec.get("networks", ())}
    machines = {label: simulator.machine(networks[network], label)
                for label, network in spec.get("machines", ())}
    tree = NamingTree("root", sigma=simulator.sigma,
                      parent_links=spec.get("parent_links", False))
    for path in spec.get("paths", ()):
        if path.endswith("/"):
            tree.mkdir(path[:-1])
        else:
            tree.mkfile(path)
    namespace = (build_zipf_namespace(tree, **spec["zipf"])
                 if "zipf" in spec else None)

    def directory(path: str):
        return tree.root if path == "/" else tree.directory(path)

    placement = DirectoryPlacement()
    for path, *hosts in spec.get("place", ()):  # a set of one is place()
        placement.place_replicated(directory(path),
                                   *(machines[host] for host in hosts))
    for path, hosts, replicas in spec.get("shard", ()):
        placement.place_sharded(directory(path),
                                *(machines[host] for host in hosts),
                                replicas=replicas)
    clients = [simulator.spawn(machines[machine], label)
               for machine, label in spec.get("clients", ())]
    options = dict(spec.get("resolver", {}))
    if "cache_policy" in options:
        options["cache_policy"] = CachePolicy(options["cache_policy"])
    if options.get("retry_policy") is not None:
        options["retry_policy"] = RetryPolicy(**options["retry_policy"])
    resolver = DistributedResolver(simulator, placement, **options)
    injector = FailureInjector(simulator)
    if spec.get("restart_sync"):
        injector.on_restart(resolver.handle_restart)
    if "splits" in spec:
        options = dict(spec["splits"])
        pool = [machines[label] for label in options.pop("pool")]
        resolver.shard_manager = ShardManager(resolver, pool=pool,
                                              **options)
    return World(simulator, networks, machines, tree, placement, clients,
                 ProcessContext(tree.root), resolver, injector, namespace)

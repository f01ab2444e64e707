"""Ablation A7 (extension): prefix-cached, batched resolution at scale.

The §6 cost analysis counts remote steps per compound-name resolution;
A4 measures them.  A7 measures what real name services (DNS resolvers,
the AFS/DCE CDS client caches) add on top: *amortization*.  A hot
workload — many resolutions of a few names under a shared remote
prefix — should not re-pay the walk every time.  Two mechanisms are
ablated, separately and together:

* the per-machine **prefix cache** (policy TTL or INVALIDATE), which
  memoizes resolved prefixes ``(context, n1…ni) → directory`` so a
  repeated resolution jumps to the deepest live prefix; and
* the **batch API** :meth:`DistributedResolver.resolve_many`, which
  sorts a batch by shared prefix, dedupes common steps, and coalesces
  same-server queries into one visit.

Expected shape: on a hot-directory workload (1000 resolutions of 50
names under a shared 4-deep remote prefix) the cached batch path pays
≥5× fewer kernel messages than the seed sequential/uncached path, with
semantics preserved in every (style × policy) cell — including a
rebind injected mid-workload, whose effect under TTL is stale only
inside the expiry window and under INVALIDATE is visible immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.bench.harness import ExperimentResult
from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.model.resolution import resolve as local_resolve
from repro.nameservice.cache import CachePolicy
from repro.nameservice.resolver import ResolutionStyle
from repro.nameservice.walk import ResolutionCost
from repro.obs.instrument import Instrumentation
from repro.workloads.deployment import World, build_world

__all__ = ["run_a7_batch_resolution"]

_PREFIX = ("a", "b", "c", "hot")
_TTL = 200.0


@dataclass
class _Deployment:
    world: World
    names: list[str]
    #: the alternate hot directory (pre-placed, so a rebind does not
    #: disturb the placement epoch)
    hot_v2: ObjectEntity


def _deploy(seed: int, policy: CachePolicy, fanout: int,
            obs: Optional[Instrumentation] = None) -> _Deployment:
    """A client machine plus one server machine per prefix level; the
    hot directory holds *fanout* leaves and has a pre-placed alternate
    version (same leaf names, different entities) for rebind tests."""
    levels = ["/".join(_PREFIX[:depth + 1]) for depth in range(len(_PREFIX))]
    servers = [f"server{depth}" for depth in range(len(_PREFIX))]
    hot = levels[-1]
    world = build_world({
        "networks": ["lan"],
        "machines": [[label, "lan"] for label in ["client-m", *servers]],
        "parent_links": True,
        "paths": [hot + "/"] + [f"{hot}/f{i}" for i in range(fanout)],
        "place": [["/", "client-m"], *map(list, zip(levels, servers))],
        "clients": [["client-m", "client"]],
        "resolver": {"cache_policy": policy.value, "cache_ttl": _TTL}},
        seed, obs)
    # The alternate hot directory: same names, fresh entities.
    hot_v2 = context_object("hot-v2")
    world.simulator.sigma.add(hot_v2)
    for index in range(fanout):
        leaf = ObjectEntity(f"f{index}-v2")
        world.simulator.sigma.add(leaf)
        hot_v2.state.bind(f"f{index}", leaf)
    world.placement.place(hot_v2, world.machines[servers[-1]])
    return _Deployment(world, [f"/{hot}/f{i}" for i in range(fanout)],
                       hot_v2)


def _run_hot_workload(deployment: _Deployment, resolutions: int,
                      batched: bool, seed: int) -> dict[str, float]:
    """Resolve *resolutions* draws of the hot names; returns totals."""
    world = deployment.world
    rng = random.Random(seed)
    rounds = resolutions // len(deployment.names)
    costs: list[ResolutionCost] = []
    for _ in range(rounds):
        batch = list(deployment.names)
        rng.shuffle(batch)
        if batched:
            costs.extend(cost for _entity, cost in
                         world.resolver.resolve_many(
                             world.client, world.context, batch))
        else:
            for name_ in batch:
                _entity, cost = world.resolver.resolve(
                    world.client, world.context, name_)
                costs.append(cost)
    total = ResolutionCost.merge(costs)
    stats = world.resolver.cache_stats()
    hits, misses = stats["hits"], stats["misses"]
    return {
        "kernel_messages": float(world.simulator.messages_sent),
        "mean_messages": world.simulator.messages_sent
        / (rounds * len(deployment.names)),
        "latency": total.latency,
        "cached_steps": float(total.cached_steps),
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        # Deterministic work proxy (wall clock would be noisy): every
        # kernel event the workload drove, including the trace's
        # send/deliver pairs.
        "kernel_events": float(len(world.simulator.trace)),
    }


def _semantics_cell(seed: int, style: ResolutionStyle,
                    policy: CachePolicy, fanout: int) -> dict[str, bool]:
    """One (style × policy) cell: warm the caches, inject a rebind
    mid-workload, and check semantics at the points where the policy
    promises coherence (immediately for NONE/INVALIDATE; after the
    expiry window for TTL)."""
    deployment = _deploy(seed, policy, fanout)
    world = deployment.world
    resolver, client, context = world.resolver, world.client, world.context
    probes = deployment.names[:8] + ["/a/b/nope", "missing", "/"]
    # Warm-up: two batches.
    for _ in range(2):
        resolver.resolve_many(client, context, deployment.names, style)
    resolver.rebind(world.tree.directory(_PREFIX[:-1]), _PREFIX[-1],
                    deployment.hot_v2)
    stale_inside_window = False
    if policy is CachePolicy.TTL:
        # Inside the window the cached prefix may still serve hot-v1.
        entity, _cost = resolver.resolve(client, context, probes[0], style)
        stale_inside_window = entity is not local_resolve(context,
                                                          probes[0])
        world.simulator.schedule(_TTL + 1.0, lambda: None,
                                 note="ttl-window")
        world.simulator.run()
    coherent_after = all(
        resolver.resolve(client, context, name_, style)[0]
        is local_resolve(context, name_)
        for name_ in probes)
    batch_results = resolver.resolve_many(client, context, probes, style)
    batch_coherent = all(
        entity is local_resolve(context, name_)
        for name_, (entity, _cost) in zip(probes, batch_results))
    return {
        "coherent": coherent_after and batch_coherent,
        "stale_inside_window": stale_inside_window,
        "paid_invalidations": resolver.invalidation_messages > 0,
    }


def run_a7_batch_resolution(seed: int = 0, resolutions: int = 1000,
                            fanout: int = 50) -> ExperimentResult:
    """A7: amortized cost of prefix caching + batched resolution."""
    configs = [
        ("sequential / no cache (seed path)", False, CachePolicy.NONE),
        ("sequential / ttl cache", False, CachePolicy.TTL),
        ("batch / no cache", True, CachePolicy.NONE),
        ("batch / ttl cache", True, CachePolicy.TTL),
        ("batch / invalidate cache", True, CachePolicy.INVALIDATE),
    ]
    measurements = {}
    for label, batched, policy in configs:
        deployment = _deploy(seed, policy, fanout)
        measurements[label] = _run_hot_workload(deployment, resolutions,
                                                batched, seed)

    baseline = measurements[configs[0][0]]
    result = ExperimentResult(
        exp_id="A7",
        title="Prefix-cached, batched resolution (hot-directory workload)",
        headers=["configuration", "kernel msgs", "msgs / resolution",
                 "virtual latency", "cache hit rate", "speedup ×"])
    for label, _batched, _policy in configs:
        m = measurements[label]
        speedup = (baseline["kernel_messages"] / m["kernel_messages"]
                   if m["kernel_messages"] else float("inf"))
        result.rows.append([label, int(m["kernel_messages"]),
                            m["mean_messages"], m["latency"],
                            m["hit_rate"], speedup])

    cells = {(style, policy): _semantics_cell(seed, style, policy,
                                              fanout=8)
             for style in ResolutionStyle for policy in CachePolicy}

    batch_ttl = measurements["batch / ttl cache"]
    batch_none = measurements["batch / no cache"]
    seq_ttl = measurements["sequential / ttl cache"]
    result.check("cached batch path pays ≥5× fewer kernel messages "
                 "than the seed path",
                 baseline["kernel_messages"]
                 >= 5 * batch_ttl["kernel_messages"])
    result.check("batch dedup alone (no cache) already amortizes the "
                 "shared prefix",
                 baseline["kernel_messages"]
                 >= 5 * batch_none["kernel_messages"])
    result.check("the prefix cache alone amortizes repeat walks",
                 baseline["kernel_messages"]
                 > seq_ttl["kernel_messages"])
    result.check("the hot prefix is served from cache after warm-up",
                 batch_ttl["hit_rate"] > 0.5)
    result.check("fewer messages is fewer kernel events end to end",
                 batch_ttl["kernel_events"] < baseline["kernel_events"])
    result.check("semantics preserved in every style × policy cell "
                 "with a mid-workload rebind",
                 all(cell["coherent"] for cell in cells.values()))
    result.check("TTL's incoherence stays inside its expiry window",
                 all(cell["stale_inside_window"]
                     for (style, policy), cell in cells.items()
                     if policy is CachePolicy.TTL))
    result.check("INVALIDATE pays for its coherence in messages",
                 all(cell["paid_invalidations"]
                     for (style, policy), cell in cells.items()
                     if policy is CachePolicy.INVALIDATE))
    result.notes.append(
        f"seed={seed} resolutions={resolutions} fanout={fanout} "
        f"prefix depth={len(_PREFIX)} ttl={_TTL}")
    # One instrumented replay of the headline config captures a
    # `repro.obs` snapshot for the JSON record; the timed measurements
    # above stay un-instrumented so their figures are comparable.
    obs = Instrumentation(max_spans=4096)
    instrumented = _deploy(seed, CachePolicy.TTL, fanout, obs=obs)
    _run_hot_workload(instrumented, min(resolutions, 200), True, seed)
    result.metrics = obs.metrics.snapshot()
    result.metrics["spans_recorded"] = len(obs.tracer)
    result.metrics["spans_dropped"] = obs.tracer.dropped_spans
    result.figures = {
        "seed|messages": baseline["kernel_messages"],
        "batch_ttl|messages": batch_ttl["kernel_messages"],
        "speedup": (baseline["kernel_messages"]
                    / batch_ttl["kernel_messages"]
                    if batch_ttl["kernel_messages"] else float("inf")),
    }
    return result

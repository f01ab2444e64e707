"""Ablation A5 (extension): cached bindings and coherence maintenance.

A cache copies part of a context onto another machine — so a stale
cache entry *is* incoherence in the paper's sense: the same name
denoting different entities in different parts of the system.  A5
drives lookups of ``/services/svc<i>/endpoint`` through
:class:`~repro.nameservice.resolver.DistributedResolver`, with an
occasional redeploy (``svc<i>`` rebound to its other version
directory), under the policies of :mod:`repro.nameservice.cache` and
measures the classic trade-off:

* ``NONE``   — never stale, every step of every lookup is a remote read;
* ``TTL``    — cheap reads, stale reads inside the expiry window;
* ``INVALIDATE`` — cheap reads AND never stale after delivery, paying
  one invalidation message per cached copy on each rebind;
* ``LEASE``  — as INVALIDATE while callbacks arrive, re-reading once
  per lease term.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult
from repro.nameservice.cache import CachePolicy
from repro.workloads.deployment import build_world

__all__ = ["run_a5_cache_coherence"]

_NAMES = [f"svc{i}" for i in range(6)]


def _run_policy(policy: CachePolicy, seed: int, operations: int,
                rebind_every: int, ttl: float) -> dict[str, float]:
    # Both versions of every service are placed before the run: place()
    # bumps the placement epoch, which kills every cached prefix, so
    # placing a fresh directory per redeploy would hide TTL's window.
    dirs = [f"{parent}/{name_}" for name_ in _NAMES
            for parent in ("services", "standby")]
    world = build_world({
        "networks": ["lan"],
        "machines": [["registry", "lan"]]
        + [[f"client{i}", "lan"] for i in range(3)],
        "paths": ["services/"] + [dir_ + leaf for dir_ in dirs
                                  for leaf in ("/", "/endpoint")],
        "place": [[path, "registry"] for path in ["/", "services", *dirs]],
        "clients": [[f"client{i}", f"app{i}"] for i in range(3)],
        "resolver": {"cache_policy": policy.value, "cache_ttl": ttl,
                     "lease_term": ttl}}, seed)
    simulator, resolver, clients = (world.simulator, world.resolver,
                                    world.clients)
    services = world.tree.directory("services")
    versions = {name_: [world.tree.directory(f"{parent}/{name_}")
                        for parent in ("services", "standby")]
                for name_ in _NAMES}    # [live, standby]
    rng = random.Random(seed)
    stale = 0
    reads = 0
    remote_steps = 0
    for op_index in range(operations):
        # Virtual time advances steadily so TTL windows are meaningful.
        simulator.schedule(1.0, lambda: None, note="tick")
        simulator.run()
        if rebind_every and op_index and op_index % rebind_every == 0:
            name_ = rng.choice(_NAMES)
            versions[name_].reverse()
            resolver.rebind(services, name_, versions[name_][0])
            continue
        client = rng.choice(clients)
        name_ = rng.choice(_NAMES)
        seen, cost = resolver.resolve(client, world.context,
                                      f"/services/{name_}/endpoint")
        reads += 1
        remote_steps += cost.remote_steps
        if seen is not versions[name_][0].state("endpoint"):
            stale += 1
    cache = resolver.cache_stats()
    probes = cache["hits"] + cache["misses"]
    return {
        "stale_rate": stale / reads if reads else 0.0,
        "remote_steps_per_lookup": remote_steps / reads,
        "invalidation_messages": float(resolver.invalidation_messages),
        "hit_rate": cache["hits"] / probes if probes else 0.0,
    }


def run_a5_cache_coherence(seed: int = 0, operations: int = 400,
                           rebind_every: int = 25,
                           ttl: float = 40.0) -> ExperimentResult:
    """A5: staleness vs message cost across the cache policies."""
    measurements = {policy: _run_policy(policy, seed, operations,
                                        rebind_every, ttl)
                    for policy in CachePolicy}
    result = ExperimentResult(
        exp_id="A5",
        title="Cache-coherence ablation (extension: cached bindings)",
        headers=["policy", "stale-read rate", "remote steps / lookup",
                 "cache hit rate", "invalidation msgs"])
    for policy in CachePolicy:
        m = measurements[policy]
        result.rows.append([str(policy), m["stale_rate"],
                            m["remote_steps_per_lookup"],
                            m["hit_rate"],
                            int(m["invalidation_messages"])])

    none, ttl_m, inv = (measurements[CachePolicy.NONE],
                        measurements[CachePolicy.TTL],
                        measurements[CachePolicy.INVALIDATE])
    result.check("no caching: never stale",
                 none["stale_rate"] == 0.0)
    result.check("no caching: every lookup pays a remote read",
                 # services, svc<i>, endpoint; the root binding is local
                 none["remote_steps_per_lookup"] == 3.0)
    result.check("TTL caching: cheaper reads but stale windows",
                 ttl_m["remote_steps_per_lookup"]
                 < none["remote_steps_per_lookup"]
                 and ttl_m["stale_rate"] > 0.0)
    result.check("invalidation: cheap reads and never stale",
                 inv["remote_steps_per_lookup"]
                 < none["remote_steps_per_lookup"]
                 and inv["stale_rate"] == 0.0)
    result.check("invalidation pays its coherence in messages",
                 inv["invalidation_messages"] > 0)
    result.notes.append(
        f"seed={seed} operations={operations} "
        f"rebind_every={rebind_every} ttl={ttl}")
    result.figures = {f"{p}|stale": m["stale_rate"]
                      for p, m in ((str(k), v)
                                   for k, v in measurements.items())}
    return result

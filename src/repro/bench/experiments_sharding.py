"""Ablation A10 (extension): hot-shard splitting at million-name scale.

The ROADMAP's production-scale target: a directory of ≥10^6 names
under an open-loop Zipf workload (≥10^5 resolutions) saturates any
single hosting server — the offered load exceeds one machine's
service rate, so its queue, and with it p99 latency, grows without
bound.  Sharding the directory's bindings by consistent hash
(:meth:`~repro.nameservice.placement.DirectoryPlacement.
place_sharded`) with **live load-driven splits**
(:class:`~repro.nameservice.sharding.ShardManager`) spreads the hot
bindings across a machine pool while the workload runs; migrations
travel as simulated messages, and every placement change rides the
epoch protocol.

Two configurations resolve the *same* seeded sample sequence:

* ``single placement`` — the classic one-machine directory (the seed
  system's only option);
* ``sharded + live splits`` — starts identically (one shard on the
  same machine) and lets the split policy react to observed load.

Latency is measured on an **open-loop overlay**: arrival *i* happens
at ``i/λ`` regardless of service progress (clients don't wait for
each other), each resolution pays its simulated hop latency plus a
deterministic per-server queue (``service × steps`` work units at
every directory server it touched, FIFO per server).  The overlay is
what makes saturation visible: the synchronous walk serializes the
simulator clock, but the queue model exposes what λ concurrent users
would experience.

Expected shape: single-placement p99 grows quarter over quarter
(unbounded queue), while the sharded run's *steady-state* p99 — after
the split policy's first check windows, warm-up excluded as usual in
queueing measurement — stays within 1.5× of the idle-network
baseline, and every binding is owned by exactly one shard at the end
of any split sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.harness import ExperimentResult
from repro.obs.audit import CoherenceAuditor
from repro.obs.instrument import Instrumentation
from repro.workloads.deployment import World, build_world
from repro.workloads.zipf import ZipfSampler

__all__ = ["run_a10_sharding", "run_a10_sharding_suite", "replay"]

_SERVICE = 0.4       #: virtual-time service cost per step at a server
_RATE = 5.0          #: open-loop arrivals per virtual-time unit
_SKEW = 1.0          #: Zipf exponent of the name popularity law
_POOL = 8            #: shard-server machines available to the splitter


@dataclass
class _OpenLoopQueue:
    """Deterministic FIFO queue per server over the arrival overlay.

    ``offer`` charges *work* (uid → directory steps) for a request
    arriving at *arrival*: the request waits for each server's
    previous backlog, then holds it for ``steps × service``.  Returns
    the total wait + service time added on top of hop latency.
    """

    service: float
    busy_until: dict[int, float] = field(default_factory=dict)

    def offer(self, arrival: float, work: dict[int, int]) -> float:
        at = arrival
        for uid in sorted(work):
            start = max(at, self.busy_until.get(uid, 0.0))
            done = start + work[uid] * self.service
            self.busy_until[uid] = done
            at = done
        return at - arrival

    def utilization(self, horizon: float) -> float:
        """Peak per-server busy time as a fraction of the horizon."""
        if not self.busy_until or horizon <= 0:
            return 0.0
        return max(self.busy_until.values()) / horizon


def _deploy(seed: int, names: int, sharded: bool,
            obs: Optional[Instrumentation] = None,
            max_shards: int = 32) -> World:
    pool = [f"shard{i}" for i in range(_POOL)]
    spec = {
        "networks": ["lan"],
        "machines": [[label, "lan"] for label in [*pool, "client-m"]],
        "zipf": {"path": "hot", "count": names},
        "place": [["/", "client-m"]],
        "clients": [["client-m", "client"]]}
    if sharded:
        spec["shard"] = [["hot", pool[:1], 1]]
        # The live feedback loop under test: watch per-shard window
        # load, split hot shards onto the least-loaded pool machine,
        # migrate bindings as simulated messages.
        spec["splits"] = {"pool": pool, "split_fraction": 0.2,
                          "check_every": max(200, names // 200),
                          "min_window": 100, "max_shards": max_shards}
    else:
        spec["place"].append(["hot", pool[0]])
    return build_world(spec, seed, obs)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(q * len(ordered) + 0.999999) - 1))
    return ordered[index]


def _run_config(world: World, ranks: list[int]) -> dict[str, float]:
    """Drive the sampled *ranks* through the deployment open-loop."""
    resolver = world.resolver
    namespace = world.namespace
    queue = _OpenLoopQueue(service=_SERVICE)
    latencies: list[float] = []
    step = 1.0 / _RATE
    # The client machine's own server reads the local root and joins
    # no queue; it is spawned here, before the first load snapshot.
    home_uid = resolver.server_for(world.machines["client-m"]).uid
    before = resolver.load_by_uid()
    for index, rank in enumerate(ranks):
        arrival = index * step
        entity, cost = resolver.resolve(
            world.client, world.context, "/hot/" + namespace.names[rank])
        assert entity.is_defined()
        after = resolver.load_by_uid()
        work = {uid: count - before.get(uid, 0)
                for uid, count in after.items()
                if uid != home_uid
                and count != before.get(uid, 0)}
        before = after
        latencies.append(cost.latency + queue.offer(arrival, work))
    quarter = max(1, len(latencies) // 4)
    quarters = [latencies[i * quarter:(i + 1) * quarter]
                for i in range(4)]
    shard_map = world.placement.shard_map_of(namespace.directory)
    return {
        "latencies": latencies,
        "p50": _percentile(latencies, 0.50),
        "p99": _percentile(latencies, 0.99),
        # Steady state = second half of the run: the split policy needs
        # a check window of observed load before it can react, so the
        # warm-up transient is reported (q1 p99) but excluded from the
        # "flat" claim — classic warm-up exclusion.
        "p99_steady": _percentile(latencies[len(latencies) // 2:], 0.99),
        "q1_p99": _percentile(quarters[0], 0.99),
        "q4_p99": _percentile(quarters[3], 0.99),
        "peak_utilization": queue.utilization(len(ranks) * step),
        "splits": resolver.shard_splits,
        "split_aborts": resolver.shard_split_aborts,
        "shards": len(shard_map) if shard_map is not None else 1,
        "machines": (len(shard_map.machines())
                     if shard_map is not None else 1),
        "migration_messages": resolver.migration_messages,
        "kernel_messages": float(world.simulator.messages_sent),
        "partitioned": (shard_map.is_partition()
                        if shard_map is not None else True),
    }


def replay(seed: int, obs: Instrumentation, names: int = 20_000,
           resolutions: int = 2_000) -> World:
    """The sharded configuration at reduced scale under *obs*:
    shard/migration spans and counters without instrumenting the
    timed runs.  The coherence auditor rides along — its summary is
    the measured ground truth that no split or migration ever served
    a stale binding (placement changes must be coherence-invisible).
    ``tools/inspect_run.py --scenario shard`` shows this run."""
    obs.auditor = CoherenceAuditor()
    obs.auditor.bind_obs(obs)
    world = _deploy(seed, names, sharded=True, obs=obs)
    world.resolver.shard_manager.check_every = 200
    world.resolver.shard_manager.min_window = 50
    sampler = ZipfSampler(names, skew=_SKEW, rng=random.Random(seed))
    for rank in sampler.sample_many(resolutions):
        world.resolver.resolve(world.client, world.context,
                               "/hot/" + world.namespace.names[rank])
    return world


def run_a10_sharding(seed: int = 0, names: int = 1_000_000,
                     resolutions: int = 100_000) -> ExperimentResult:
    """A10: live hot-shard splitting vs single placement, open-loop.

    Defaults are the ROADMAP's "millions of users" floor (10^6 names,
    10^5 resolutions); tests and smoke runs pass reduced sizes — the
    comparison's shape is scale-invariant as long as the offered rate
    exceeds one server's service rate (λ·service = 2.0 here).
    """
    sampler = ZipfSampler(names, skew=_SKEW, rng=random.Random(seed))
    ranks = sampler.sample_many(resolutions)

    configs = {}
    for label, sharded in (("single placement", False),
                           ("sharded + live splits", True)):
        world = _deploy(seed, names, sharded)
        configs[label] = _run_config(world, ranks)
        del world  # free the million-binding namespace promptly

    single = configs["single placement"]
    shard = configs["sharded + live splits"]
    # The no-queue floor: hop latency of one uncontended walk plus one
    # service quantum — what an idle deployment would answer in.
    idle_base = min(single["latencies"][0], shard["latencies"][0])
    result = ExperimentResult(
        exp_id="A10",
        title="Hot-shard splitting under an open-loop Zipf workload",
        headers=["configuration", "p50 latency", "p99 latency",
                 "steady p99", "q1 p99", "q4 p99", "shards", "splits",
                 "migration msgs", "peak util"])
    for label, m in configs.items():
        result.rows.append([
            label, round(m["p50"], 3), round(m["p99"], 3),
            round(m["p99_steady"], 3),
            round(m["q1_p99"], 3), round(m["q4_p99"], 3),
            int(m["shards"]), int(m["splits"]),
            int(m["migration_messages"]), round(m["peak_utilization"], 3)])

    result.check(
        "single placement saturates: p99 grows superlinearly across "
        "the run (q4 excess ≥ 2× q1 excess over the idle baseline)",
        (single["q4_p99"] - idle_base)
        >= 2 * max(single["q1_p99"] - idle_base, 1e-9))
    result.check(
        "live splitting keeps p99 flat: sharded steady-state p99 "
        "(warm-up excluded) ≤ 1.5× the unsharded idle baseline",
        shard["p99_steady"] <= 1.5 * idle_base)
    result.check(
        "the split policy converges: sharded q4 p99 ≤ the warm-up "
        "transient's q1 p99",
        shard["q4_p99"] <= max(shard["q1_p99"], idle_base))
    result.check(
        "sharded p99 beats saturated single placement by ≥4× even "
        "with its warm-up transient included",
        single["p99"] >= 4 * shard["p99"])
    result.check(
        "the split policy actually split (≥3 live splits) and spread "
        "shards over ≥3 machines",
        shard["splits"] >= 3 and shard["machines"] >= 3)
    result.check(
        "migrations travelled as simulated messages",
        shard["migration_messages"] > 0
        and shard["kernel_messages"] > 0)
    result.check(
        "every binding is owned by exactly one shard after the split "
        "sequence (contiguous partition of the hash space)",
        bool(shard["partitioned"]))
    result.check(
        "no split was aborted on the healthy network",
        shard["split_aborts"] == 0)
    result.notes.append(
        f"seed={seed} names={names} resolutions={resolutions} "
        f"zipf_s={_SKEW} rate={_RATE}/t service={_SERVICE} "
        f"pool={_POOL} idle_base={idle_base:.3f} "
        f"head_share(100)={sampler.head_share(100):.3f}")
    result.figures = {
        "single|p99": single["p99"],
        "sharded|p99": shard["p99"],
        "sharded|p99_steady": shard["p99_steady"],
        "p99_ratio": (single["p99"] / shard["p99"]
                      if shard["p99"] else float("inf")),
        "splits": float(shard["splits"]),
        "final_shards": float(shard["shards"]),
        "migration_messages": float(shard["migration_messages"]),
    }
    obs = Instrumentation(max_spans=4096)
    replayed = replay(seed, obs, min(names, 20_000),
                      min(resolutions, 2_000))
    result.metrics = obs.metrics.snapshot()
    result.metrics["spans_recorded"] = len(obs.tracer)
    result.metrics["spans_dropped"] = obs.tracer.dropped_spans
    result.metrics["replay_splits"] = replayed.resolver.shard_splits
    audit = obs.auditor.summary()
    result.audit = {"replay": audit}
    result.check(
        "measured: the audited sharded replay is violation-free — "
        "splits and migrations never surface a stale binding",
        audit["observed"] > 0 and audit["violations"] == 0
        and audit["max_staleness"] == 0.0
        and replayed.resolver.shard_splits > 0)
    return result


def run_a10_sharding_suite(seed: int = 0) -> ExperimentResult:
    """A10 (suite scale): hot-shard splitting keeps p99 flat under an
    open-loop Zipf load where single placement saturates.

    Runs at 2·10^5 names / 2·10^4 resolutions so the full experiment
    suite stays quick; :func:`run_a10_sharding`'s defaults are the
    full 10^6 / 10^5 ROADMAP floor.
    """
    return run_a10_sharding(seed=seed, names=200_000,
                            resolutions=20_000)

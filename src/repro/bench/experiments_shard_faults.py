"""Ablation A11: replicated shards under a crash/restart timeline.

A10 showed live splitting spreads a hot directory over a pool; this
ablation asks what happens when one of those shard servers *crashes*.
With single-owner shards (``replicas=1``, the PR 6 shape) the crashed
machine's hash range simply goes dark: every lookup landing in it
fails until the machine returns — and a write missed during the
outage leaves the sole copy stale forever, because there is no fellow
replica to anti-entropy from.  With replicated shards
(:meth:`~repro.nameservice.placement.DirectoryPlacement.place_sharded`
with ``replicas=2``) every shard carries a replica set, so the
resolver's failover path serves the range from a surviving replica,
rebinds during the outage mark the dead copy stale, and the restart
hook's anti-entropy resyncs it — no range goes dark.

Two configurations resolve the *same* seeded Zipf sample sequence
under the *same* scripted :class:`~repro.sim.failures.FailureInjector`
timeline (two crash/restart cycles hitting two different shard
servers, with one rebind into an affected range during each outage):

* ``single-owner shards`` — four shards, one machine each;
* ``replicated shards`` — the same four ranges, each with a two-deep
  replica set assigned round-robin over the same pool.

The timeline is booked on the simulator clock and each probe
iteration drains due events first, so crashes and restarts land
*between* resolutions exactly where the script says.
Each configuration runs fully instrumented: the PR 8 coherence
auditor scores every read (failed lookups are ``failed`` verdicts,
never coherence violations), the SLO tracker burns objectives on
violations, and the summary is embedded as the experiment's audit
record.

Expected shape: replicated availability stays ≈1.0 (every dead-range
lookup fails over, at failover cost), single-owner availability drops
by roughly the dead ranges' traffic share, and only the replicated
deployment heals its stale mark — the single-owner copy has no sync
source and its range stays dark even after restart.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.bench.harness import ExperimentResult
from repro.obs.audit import CoherenceAuditor
from repro.obs.instrument import Instrumentation
from repro.obs.slo import SLObjective, SLOTracker
from repro.workloads.deployment import World, build_world
from repro.workloads.zipf import ZipfSampler

__all__ = ["run_a11_shard_faults", "run_a11_shard_faults_suite",
           "deploy", "run_config"]

_SKEW = 1.0    #: Zipf exponent of the name popularity law
_POOL = 4      #: shard-server machines (= initial shard count)
_WALK = 2.0    #: clock units one healthy resolution advances (one
               #: forward hop + one answer hop at latency 1.0)

#: The scripted disruption, as fractions of the run's clock horizon
#: (``resolutions × _WALK``): (crash_at, restart_at, pool_index).
#: Two outages, two machines.  One write lands inside each outage,
#: into a range whose replica set includes the crashed machine (the
#: rebind fires when the probe loop first observes the crash).
_FAULTS = ((0.20, 0.40, 0), (0.55, 0.75, 2))


def deploy(seed: int, names: int, replicas: int,
           obs: Instrumentation) -> World:
    """Four shards at degree *replicas* over a four-machine pool,
    audited under *obs* (``obs.auditor``, with its SLO tracker), no
    fault booked yet: hand it to :func:`run_config`."""
    slo = SLOTracker([
        SLObjective("violation-free", violation_free=True),
    ], metrics=obs.metrics)
    obs.auditor = CoherenceAuditor(slo=slo)
    obs.auditor.bind_obs(obs)
    pool = [f"shard{i}" for i in range(_POOL)]
    return build_world({
        "networks": ["lan"],
        "machines": [[label, "lan"] for label in [*pool, "client-m"]],
        "zipf": {"path": "hot", "count": names},
        "place": [["/", "client-m"]],
        "shard": [["hot", pool, replicas]],
        "clients": [["client-m", "client"]],
        "resolver": {"retry_policy": {"max_attempts": 2,
                                      "base_backoff": 0.1,
                                      "jitter": 0.0}},
        "restart_sync": True}, seed, obs)


def _name_in_shard(shard_map, shard_index: int) -> str:
    """A deterministic fresh component hashing into shard
    *shard_index* (shard bounds depend only on the pool size, so the
    pick is seed-independent)."""
    target = shard_map.shards[shard_index]
    index = 0
    while True:
        candidate = f"spare{index}"
        if shard_map.owner_of(candidate) is target:
            return candidate
        index += 1


def run_config(world: World, ranks: list[int]) -> dict[str, float]:
    """Drive *ranks* across the scripted fault timeline.

    The timeline is booked on the simulator clock (each healthy walk
    advances it by ≈``_WALK``), and each iteration first drains
    already-due events, so crashes and restarts land *between*
    resolutions exactly where the script says.  The outage write —
    one rebind into a range replicated on the crashed machine — fires
    the first time the loop observes each crash, so it is always
    inside the window regardless of clock drift from failovers.
    """
    resolver, simulator = world.resolver, world.simulator
    namespace = world.namespace
    shard_map = world.placement.shard_map_of(namespace.directory)
    horizon = len(ranks) * _WALK
    timeline = []
    pending_rebinds = []
    for crash_frac, restart_frac, pool_index in _FAULTS:
        machine = world.machines[f"shard{pool_index}"]
        timeline.append((crash_frac * horizon, "crash", machine))
        timeline.append((restart_frac * horizon, "restart", machine))
        pending_rebinds.append(
            (machine, _name_in_shard(shard_map, pool_index)))
    world.injector.schedule_timeline(timeline)
    down_windows = [(c * horizon, r * horizon) for c, r, _ in _FAULTS]

    ok = failed = failovers = 0
    first_failure: Optional[float] = None
    failed_in_window = 0
    for rank in ranks:
        simulator.run(until=simulator.clock.now)  # due faults land
        for entry in list(pending_rebinds):
            machine, spare = entry
            if not machine.alive:
                resolver.rebind(namespace.directory, spare,
                                namespace.shared_leaf)
                pending_rebinds.remove(entry)
        before = simulator.clock.now
        entity, cost = resolver.resolve(
            world.client, world.context, "/hot/" + namespace.names[rank])
        failovers += cost.failovers
        if entity.is_defined() and not cost.failed:
            ok += 1
        else:
            failed += 1
            if first_failure is None:
                first_failure = simulator.clock.now
            if any(lo <= before < hi for lo, hi in down_windows):
                failed_in_window += 1
    simulator.run()

    total = ok + failed
    auditor = simulator.obs.auditor
    audit = auditor.summary()
    return {
        "ok": ok,
        "failed": failed,
        "availability": ok / total if total else 0.0,
        "failovers": failovers,
        "first_failure": (-1.0 if first_failure is None
                          else first_failure),
        "failed_in_window": failed_in_window,
        "first_crash": down_windows[0][0],
        "anti_entropy": resolver.anti_entropy_messages,
        "stale_remaining": world.placement.stale_count(),
        "partitioned": shard_map.is_partition(),
        "audit": audit,
        "slo_burns": sum(auditor.slo.burns.values()),
    }


def run_a11_shard_faults(seed: int = 0, names: int = 200_000,
                         resolutions: int = 20_000,
                         replicas: int = 2) -> ExperimentResult:
    """A11: shard-server crashes — replicated shards vs single-owner.

    The same Zipf sample sequence and the same two-outage fault
    timeline run against both configurations; only the replication
    degree differs.  Tests and smoke runs pass reduced sizes — the
    contrast is scale-invariant as long as each outage window spans
    many arrivals.
    """
    sampler = ZipfSampler(names, skew=_SKEW, rng=random.Random(seed))
    ranks = sampler.sample_many(resolutions)

    configs = {}
    for label, degree in (("single-owner shards", 1),
                          ("replicated shards", replicas)):
        world = deploy(seed, names, degree,
                       Instrumentation(max_spans=4096))
        configs[label] = run_config(world, ranks)
        del world  # free the namespace promptly

    single = configs["single-owner shards"]
    repl = configs["replicated shards"]
    result = ExperimentResult(
        exp_id="A11",
        title="Replicated shards under a crash/restart timeline",
        headers=["configuration", "availability", "ok", "failed",
                 "failovers", "anti-entropy", "stale left",
                 "violations"])
    for label, m in configs.items():
        result.rows.append([
            label, round(m["availability"], 4), int(m["ok"]),
            int(m["failed"]), int(m["failovers"]),
            int(m["anti_entropy"]), int(m["stale_remaining"]),
            int(m["audit"]["violations"])])

    result.check(
        "replicated shards hold availability ≈1.0 through both "
        "outages (≥0.999)",
        repl["availability"] >= 0.999)
    result.check(
        "single-owner shards drop the dead range's lookups "
        "(availability strictly below the replicated run, with "
        "failures during the outage windows)",
        single["availability"] < repl["availability"]
        and single["failed_in_window"] > 0)
    result.check(
        "single-owner failures start only once the first crash "
        "lands — the healthy prefix is clean",
        single["failed"] > 0
        and single["first_failure"] >= single["first_crash"])
    result.check(
        "the replicated run actually failed over to surviving "
        "replicas (failovers > 0) instead of never touching the "
        "dead ranges",
        repl["failovers"] > 0)
    result.check(
        "anti-entropy healed the replicated outage writes: syncs "
        "flowed on restart and no stale mark survives the run",
        repl["anti_entropy"] > 0 and repl["stale_remaining"] == 0)
    result.check(
        "the single-owner missed write has no sync source: its "
        "stale mark survives restart (the range stays dark)",
        single["stale_remaining"] > 0)
    result.check(
        "measured: both audited runs are violation-free — failed "
        "lookups are failures, never stale reads served as fresh",
        repl["audit"]["observed"] > 0
        and repl["audit"]["violations"] == 0
        and single["audit"]["violations"] == 0
        and repl["slo_burns"] == 0)
    result.check(
        "both shard maps remain exact partitions of the hash space",
        bool(single["partitioned"]) and bool(repl["partitioned"]))
    result.notes.append(
        f"seed={seed} names={names} resolutions={resolutions} "
        f"zipf_s={_SKEW} walk={_WALK} pool={_POOL} "
        f"replicas={replicas} "
        f"faults={[(c, r, i) for c, r, i in _FAULTS]} "
        f"head_share(100)={sampler.head_share(100):.3f}")
    result.figures = {
        "single|availability": single["availability"],
        "replicated|availability": repl["availability"],
        "single|failed": float(single["failed"]),
        "replicated|failovers": float(repl["failovers"]),
        "replicated|anti_entropy": float(repl["anti_entropy"]),
        "single|stale_remaining": float(single["stale_remaining"]),
    }
    result.audit = {"single": single["audit"],
                    "replicated": repl["audit"]}
    return result


def run_a11_shard_faults_suite(seed: int = 0) -> ExperimentResult:
    """A11 (suite scale): replicated shards keep every range served
    through two shard-server outages where single-owner shards drop
    the dead ranges' lookups.

    Runs at 5·10^4 names / 6·10^3 resolutions so the full experiment
    suite stays quick; ``benchmarks/bench_experiments.py`` times a
    larger one.
    """
    return run_a11_shard_faults(seed=seed, names=50_000,
                                resolutions=6_000)

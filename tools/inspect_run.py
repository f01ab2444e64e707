#!/usr/bin/env python
"""Replay an instrumented scenario and inspect what it did.

Usage::

    python tools/inspect_run.py                         # hop trees
    python tools/inspect_run.py --scenario hot --policy invalidate
    python tools/inspect_run.py --format chrome-trace --out trace.json
    python tools/inspect_run.py --format prometheus
    python tools/inspect_run.py --format summary --out summary.json
    python tools/inspect_run.py --scenario failure --style recursive

``basic``, ``hot`` and ``failure`` build a small 3-server deployment
here and honour ``--style`` / ``--policy``; ``chaos``, ``leases``,
``audit``, ``shard`` and ``shard-faults`` are the instrumented replays
of experiments A8–A11 (`repro.bench`), in the experiment's own fixed
configuration.  Each runs with `repro.obs` instrumentation enabled and
emits one of:

* ``tree`` (default) — per-resolution hop trees plus the top-N
  hottest servers/directories and a metrics headline;
* ``chrome-trace`` — Chrome ``trace_event`` JSON for Perfetto /
  ``chrome://tracing``;
* ``prometheus`` — the metrics registry as Prometheus text;
* ``summary`` — the full JSON run summary (spans + metrics + kernel
  trace tail).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.bench import (
    experiments_availability,
    experiments_leases,
    experiments_shard_faults,
    experiments_sharding,
)
from repro.model.resolution import resolve as local_resolve
from repro.nameservice.cache import CachePolicy
from repro.nameservice.resolver import ResolutionStyle
from repro.nameservice.walk import ResolutionCost
from repro.obs import (
    FlightRecorder,
    Instrumentation,
    SLObjective,
    SLOTracker,
    format_hop_tree,
    hottest_directories,
    hottest_servers,
    run_summary,
    to_chrome_trace,
    to_prometheus_text,
)
from repro.workloads.deployment import build_world
from repro.workloads.zipf import ZipfSampler

SCENARIOS = {}


def scenario(name):
    def install(fn):
        SCENARIOS[name] = fn
        return fn
    return install


def _deployment(seed: int, policy: CachePolicy, obs: Instrumentation,
                depth: int = 3, fanout: int = 4):
    """One client machine + one server machine per directory level;
    returns the world and its leaf names."""
    levels = ["/".join(f"lvl{i}" for i in range(level + 1))
              for level in range(depth)]
    servers = [f"server{level}" for level in range(depth)]
    world = build_world({
        "networks": ["lan"],
        "machines": [[label, "lan"] for label in ["client-m", *servers]],
        "parent_links": True,
        "paths": [levels[-1] + "/"]
        + [f"{levels[-1]}/f{index}" for index in range(fanout)],
        "place": [["/", "client-m"], *map(list, zip(levels, servers))],
        "clients": [["client-m", "client"]],
        "resolver": {"cache_policy": policy.value, "cache_ttl": 50.0}},
        seed, obs)
    return world, [f"/{levels[-1]}/f{index}" for index in range(fanout)]


@scenario("basic")
def run_basic(seed: int, style: ResolutionStyle, policy: CachePolicy,
              obs: Instrumentation) -> dict:
    """One batched resolution over a 3-server placement."""
    world, names = _deployment(seed, policy, obs)
    results = world.resolver.resolve_many(world.client, world.context,
                                          names, style)
    cost = ResolutionCost.merge(c for _entity, c in results)
    ok = all(entity is local_resolve(world.context, name_)
             for name_, (entity, _c) in zip(names, results))
    return {"simulator": world.simulator,
            "notes": {"scenario": "basic", "names": len(names),
                      "messages": cost.messages, "coherent": ok}}


@scenario("hot")
def run_hot(seed: int, style: ResolutionStyle, policy: CachePolicy,
            obs: Instrumentation) -> dict:
    """Three rounds over a hot directory, with a rebind in between."""
    world, names = _deployment(seed, policy, obs, depth=3, fanout=6)
    resolver = world.resolver
    costs = []
    for _round in range(2):
        costs.extend(c for _e, c in resolver.resolve_many(
            world.client, world.context, names, style))
    # Rebind one leaf so INVALIDATE traces show the fan-out.
    hot_dir = world.tree.directory(names[0].rsplit("/", 1)[0])
    resolver.rebind(hot_dir, "f0", world.context("lvl0"))
    costs.extend(c for _e, c in resolver.resolve_many(
        world.client, world.context, names, style))
    cost = ResolutionCost.merge(costs)
    return {"simulator": world.simulator,
            "notes": {"scenario": "hot", "rounds": 3,
                      "messages": cost.messages,
                      "cached_steps": cost.cached_steps,
                      "cache": resolver.cache_stats()}}


@scenario("failure")
def run_failure(seed: int, style: ResolutionStyle, policy: CachePolicy,
                obs: Instrumentation) -> dict:
    """A walk that crosses a crashed server: failed spans on display."""
    world, names = _deployment(seed, policy, obs)
    resolver = world.resolver
    resolver.resolve(world.client, world.context, names[0], style)
    world.injector.crash_machine(world.machines["server2"])
    _entity, cost = resolver.resolve(world.client, world.context,
                                     names[1], style)
    return {"simulator": world.simulator,
            "notes": {"scenario": "failure", "crashed": "server2",
                      "messages": cost.messages}}


def _tally(results) -> dict:
    """ok / weak / failed counts over A8 outcomes or A9 probes."""
    return {"ok": sum(r.ok and not r.weak for r in results),
            "weak": sum(r.ok and r.weak for r in results),
            "failed": sum(not r.ok for r in results)}


def _record_flights(auditor, simulator, obs: Instrumentation,
                    window: float) -> FlightRecorder:
    """Hang a flight recorder on a built deployment's auditor, before
    the run starts, so ``--flight-out`` has windows to write."""
    auditor.recorder = FlightRecorder(
        trace_log=simulator.trace, tracer=obs.tracer, window=window)
    return auditor.recorder


@scenario("chaos")
def run_chaos(seed: int, _style: ResolutionStyle, _policy: CachePolicy,
              obs: Instrumentation) -> dict:
    """A8's instrumented replay: the serve-stale configuration through
    crash + restart, a flaky link and a partition.  The trace shows
    retry / failover / circuit / stale spans; the metrics show their
    counters."""
    run = experiments_availability.run_schedule(
        seed, obs=obs, **experiments_availability.SERVE_STALE)
    cost = run["total"]
    return {"simulator": run["simulator"],
            "notes": {"scenario": "chaos",
                      "outcomes": _tally(run["outcomes"]),
                      "retries": cost.retries,
                      "failovers": cost.failovers,
                      "stale_steps": cost.stale_steps,
                      "messages": cost.messages}}


@scenario("leases")
def run_leases(seed: int, _style: ResolutionStyle, _policy: CachePolicy,
               obs: Instrumentation) -> dict:
    """A9's LEASE run through the fault schedule: a rebind whose break
    callback is lost in the partition (broken server-side), then
    grace-mode answers from expired leases until the heal.  The trace
    shows grant / renew / callback / break / expire / grace spans;
    the metrics show the ``lease_*`` counters."""
    deployment = experiments_leases.build(seed, CachePolicy.LEASE, obs)
    run = experiments_leases.run_schedule(deployment)
    return {"simulator": deployment.world.simulator,
            "notes": {"scenario": "leases",
                      "outcomes": _tally(run["probes"]),
                      "losses": run["losses"],
                      "lease_stats": run["lease"]}}


@scenario("audit")
def run_audit(seed: int, _style: ResolutionStyle, _policy: CachePolicy,
              obs: Instrumentation) -> dict:
    """A9's INVALIDATE blip: the invalidation is lost in the partition
    and the client keeps serving the stale binding as
    claimed-coherent — which the auditor flags as violations, burns
    the staleness SLO the tool declares here, and hands each window
    to the flight recorder (``--flight-out``)."""
    deployment = experiments_leases.build(seed, CachePolicy.INVALIDATE,
                                          obs)
    simulator, auditor = deployment.world.simulator, deployment.auditor
    recorder = _record_flights(auditor, simulator, obs, window=25.0)
    auditor.slo = SLOTracker([
        SLObjective("fresh-reads", max_staleness=auditor.contract.slack),
        SLObjective("violation-free", violation_free=True),
    ], metrics=obs.metrics)
    run = experiments_leases.run_blip(deployment)
    return {"simulator": simulator,
            "recorder": recorder,
            "notes": {"scenario": "audit",
                      "outcomes": _tally(run["probes"]),
                      "losses": run["losses"],
                      "audit": run["audit"],
                      "violations": auditor.violation_count,
                      "flight_dumps": recorder.captured}}


@scenario("shard")
def run_shard(seed: int, _style: ResolutionStyle, _policy: CachePolicy,
              obs: Instrumentation) -> dict:
    """A10's instrumented replay: Zipf load over a sharded directory
    triggers live splits, each migrating bindings as simulated
    messages.  The trace shows ``shard`` spans (source, target, split
    point, bindings moved, committed/aborted); the metrics show the
    split and migration counters."""
    world = experiments_sharding.replay(seed, obs)
    resolver = world.resolver
    directory = world.namespace.directory
    shard_map = world.placement.shard_map_of(directory)
    # The tool's one addition: a last split onto a crashed target, so
    # the commit-last discipline shows up as an aborted shard span.
    victim = world.machines["shard7"]
    world.injector.crash_machine(victim)
    widest = max((shard for shard in shard_map.shards
                  if shard.machine is not victim),
                 key=lambda shard: (shard.span, -shard.lo))
    resolver.split_shard(directory, widest, victim)
    return {"simulator": world.simulator,
            "notes": {"scenario": "shard",
                      "splits": resolver.shard_splits,
                      "split_aborts": resolver.shard_split_aborts,
                      "migration_messages": resolver.migration_messages,
                      "shards": len(shard_map),
                      "machines": len(shard_map.machines()),
                      "partition_ok": shard_map.is_partition(),
                      "audit": obs.auditor.summary()}}


@scenario("shard-faults")
def run_shard_faults(seed: int, _style: ResolutionStyle,
                     _policy: CachePolicy, obs: Instrumentation) -> dict:
    """A11's replicated configuration at reduced scale: lookups into
    a crashed shard server's range fail over (``failover`` events),
    each outage's rebind marks the dead copy stale and anti-entropy
    resyncs it on restart, the auditor scores every read
    (``audit_violations_total`` stays absent) and the flight recorder
    keeps a final window for ``--flight-out``."""
    names, resolutions = 20_000, 2_000
    world = experiments_shard_faults.deploy(seed, names, 2, obs)
    auditor = obs.auditor
    recorder = _record_flights(auditor, world.simulator, obs, window=50.0)
    ranks = ZipfSampler(names, rng=random.Random(seed)).sample_many(
        resolutions)
    run = experiments_shard_faults.run_config(world, ranks)
    recorder.capture(kind="final", time=world.simulator.clock.now,
                     detail={"scenario": "shard-faults",
                             "failovers": run["failovers"]})
    return {"simulator": world.simulator,
            "recorder": recorder,
            "notes": {"scenario": "shard-faults",
                      "outcomes": {"ok": run["ok"],
                                   "failed": run["failed"]},
                      "failovers": run["failovers"],
                      "anti_entropy": run["anti_entropy"],
                      "stale_remaining": run["stale_remaining"],
                      "audit": auditor.summary(),
                      "violations": auditor.violation_count,
                      "partition_ok": run["partitioned"],
                      "flight_dumps": recorder.captured}}


def render_tree(obs: Instrumentation, notes: dict, top: int) -> str:
    lines = [format_hop_tree(obs.tracer.spans), ""]
    lines.append(f"hottest servers (top {top}):")
    for label, count in hottest_servers(obs.tracer.spans, top):
        lines.append(f"  {count:6d} steps  {label}")
    lines.append(f"hottest directories (top {top}):")
    for label, count in hottest_directories(obs.tracer.spans, top):
        lines.append(f"  {count:6d} reads  {label}")
    snapshot = obs.metrics.snapshot()
    lines.append("metrics headline:")
    for key in sorted(snapshot["counters"]):
        lines.append(f"  {key} = {snapshot['counters'][key]:g}")
    lines.append(f"scenario notes: {json.dumps(notes, default=repr)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/inspect_run.py",
        description="Replay an instrumented scenario and inspect it.")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="basic")
    parser.add_argument("--style", choices=[s.value for s in
                                            ResolutionStyle],
                        default="iterative",
                        help="basic / hot / failure only: the other "
                             "scenarios run their experiment's fixed "
                             "configuration")
    parser.add_argument("--policy", choices=[p.value for p in CachePolicy],
                        default="ttl", help="basic / hot / failure only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", dest="fmt", default="tree",
                        choices=["tree", "chrome-trace", "prometheus",
                                 "summary"])
    parser.add_argument("--top", type=int, default=5,
                        help="rows in the hot-spot rankings")
    parser.add_argument("--max-spans", type=int, default=None,
                        help="ring-buffer bound on stored spans")
    parser.add_argument("--out", default=None,
                        help="write to this file instead of stdout")
    parser.add_argument("--flight-out", default=None,
                        help="write the flight recorder's replayable "
                             "JSON artifact here (scenarios that carry "
                             "one, e.g. `audit`)")
    args = parser.parse_args(argv)

    obs = Instrumentation(max_spans=args.max_spans)
    outcome = SCENARIOS[args.scenario](
        args.seed, ResolutionStyle(args.style), CachePolicy(args.policy),
        obs)
    simulator = outcome["simulator"]
    notes = outcome["notes"]

    if args.flight_out:
        recorder = outcome.get("recorder")
        if recorder is None:
            print(f"scenario {args.scenario!r} has no flight recorder",
                  file=sys.stderr)
            return 2
        recorder.dump_json(args.flight_out)
        print(f"wrote flight recorder ({recorder.captured} dumps) "
              f"to {args.flight_out}", file=sys.stderr)

    if args.fmt == "tree":
        text = render_tree(obs, notes, args.top)
    elif args.fmt == "chrome-trace":
        text = json.dumps(
            to_chrome_trace(obs.tracer.spans,
                            label=f"repro · {args.scenario}"),
            indent=2)
    elif args.fmt == "prometheus":
        text = to_prometheus_text(obs.metrics)
    else:
        text = json.dumps(
            run_summary(obs.tracer.spans, obs.metrics,
                        trace_log=simulator.trace.tail(200),
                        clock=simulator.clock.now, notes=notes),
            indent=2)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.fmt} to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)

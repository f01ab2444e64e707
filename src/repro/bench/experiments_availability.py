"""Ablation A8 (robustness): name-service availability under faults.

The paper's weak-coherence notion (§3) and the renumbering example
(§6 Example 1) both presume a name service that keeps answering while
the environment misbehaves.  A8 measures exactly that: a fixed
workload of resolutions runs across a scripted fault timeline —
primary crash + restart, a flaky-link window with seeded drops and
latency spikes, and a full client/server partition — and three
resolver configurations are compared:

* **fail-fast baseline** — the seed resolver: single placement, no
  retries; any lost leg fails the resolution, and its losses feed the
  primary's circuit breaker, which then skips it for a cooldown;
* **replicated + retry** — the directory is placed on a replica set,
  the walk retries with exponential backoff + seeded jitter, keeps a
  per-server circuit breaker, and fails over to the secondary;
* **replicated + serve-stale** — additionally answers from the
  client's possibly-stale prefix cache when *no* replica is reachable,
  tagging those answers weakly coherent (``cost.weak``).

Expected shape: replication+retry strictly beats the baseline's
success rate (the crash window alone guarantees it — the baseline
fails every resolution while the primary is down; failover serves
them all); serve-stale additionally answers during the partition, and
*every* degraded answer is tagged weak (never silently coherent);
results are deterministic per seed; retries, failovers, circuit
transitions and stale serves are all visible in the `repro.obs`
metrics snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.harness import ExperimentResult
from repro.nameservice.walk import ResolutionCost
from repro.obs.instrument import Instrumentation
from repro.workloads.deployment import World, build_world

__all__ = ["run_a8_availability", "run_schedule"]

_FANOUT = 5
_TTL = 40.0
#: Round start times (virtual); one small batch of lookups per round.
ROUNDS = tuple(float(t) for t in range(2, 240, 10))
#: Fault windows (virtual time), chosen between rounds so every
#: configuration sees identical deterministic disruption phases.
_CRASH_AT, _RESTART_AT = 30.0, 78.0
_FLAKY_AT, _STEADY_AT = 95.0, 118.0
_PARTITION_AT, _HEAL_AT = 130.0, 185.0
_DROP_PROB, _SPIKE = 0.25, 1.5
#: The windows as the notes of A8 and A9 print them.
WINDOWS_NOTE = (f"crash [{_CRASH_AT:g},{_RESTART_AT:g})",
                f"flaky p={_DROP_PROB} [{_FLAKY_AT:g},{_STEADY_AT:g})",
                f"partition [{_PARTITION_AT:g},{_HEAL_AT:g})")
#: The configuration A8 replays instrumented (`tools/inspect_run.py
#: --scenario chaos` is that replay).
SERVE_STALE = dict(replicated=True, retry=True, serve_stale=True)


def fault_phase(time: float) -> str:
    """The fault phase in effect at virtual *time*."""
    if _CRASH_AT <= time < _RESTART_AT:
        return "crash"
    if _FLAKY_AT <= time < _STEADY_AT:
        return "flaky"
    if _PARTITION_AT <= time < _HEAL_AT:
        return "partition"
    return "healthy"


def fault_timeline(world: World) -> list[tuple]:
    """The scripted disruption of *world*'s ``m1`` and its ``lan`` /
    ``srv`` link, as ``schedule_timeline`` takes it (A9 books the same
    script)."""
    primary = world.machines["m1"]
    lan, srv = world.networks["lan"], world.networks["srv"]
    return [
        (_CRASH_AT, "crash", primary),
        (_RESTART_AT, "restart", primary),
        (_FLAKY_AT, "flaky_link", lan, srv, _DROP_PROB, _SPIKE),
        (_STEADY_AT, "steady_link", lan, srv),
        (_PARTITION_AT, "partition", lan, srv),
        (_HEAL_AT, "heal", lan, srv),
    ]


@dataclass
class _Outcome:
    time: float      #: actual virtual time the resolution started
    phase: str       #: fault phase in effect at that time
    ok: bool
    weak: bool
    stale_steps: int
    latency: float


def run_schedule(seed: int, replicated: bool, retry: bool,
                 serve_stale: bool,
                 obs: Optional[Instrumentation] = None) -> dict:
    """One configuration through the full fault timeline."""
    world = build_world({
        "networks": ["lan", "srv"],
        "machines": [["client-m", "lan"], ["m1", "srv"], ["m2", "srv"]],
        "parent_links": True,
        "paths": [f"svc/f{index}" for index in range(_FANOUT)],
        "place": [["/", "client-m"],
                  ["svc", "m1", "m2"] if replicated else ["svc", "m1"]],
        "clients": [["client-m", "client"]],
        "resolver": {
            "cache_policy": "ttl", "cache_ttl": _TTL,
            "retry_policy": dict(max_attempts=3, base_backoff=0.3,
                                 max_backoff=2.0) if retry else None,
            "serve_stale": serve_stale,
            "breaker_threshold": 3, "breaker_cooldown": 10.0},
        "restart_sync": True}, seed, obs)
    simulator, resolver = world.simulator, world.resolver
    world.injector.schedule_timeline(fault_timeline(world))
    outcomes: list[_Outcome] = []
    costs: list[ResolutionCost] = []
    for start in ROUNDS:
        simulator.run(until=start)
        names = [f"/svc/f{(index + int(start)) % _FANOUT}"
                 for index in range(3)]
        for name_ in names:
            # Backoff waits advance the clock, so a round may start
            # later than scheduled — classify each resolution by the
            # fault phase actually in effect when it began.
            began = simulator.clock.now
            entity, cost = resolver.resolve(world.client, world.context,
                                            name_)
            costs.append(cost)
            outcomes.append(_Outcome(
                time=began, phase=fault_phase(began),
                ok=entity.is_defined() and not cost.failed,
                weak=cost.weak, stale_steps=cost.stale_steps,
                latency=cost.latency))
    simulator.run()
    total = ResolutionCost.merge(costs)
    latencies = sorted(outcome.latency for outcome in outcomes)
    p99 = latencies[min(len(latencies) - 1,
                        int(0.99 * (len(latencies) - 1)))]
    successes = [outcome for outcome in outcomes if outcome.ok]
    weak_successes = [outcome for outcome in successes if outcome.weak]
    return {
        "simulator": simulator,
        "outcomes": outcomes,
        "success_rate": len(successes) / len(outcomes),
        "weak_successes": len(weak_successes),
        "weak_fraction": (len(weak_successes) / len(successes)
                          if successes else 0.0),
        "p99_latency": p99,
        "total": total,
        "breaker_transitions": sum(
            breaker.transitions
            for breaker in resolver._breakers.values()),
        "stale_marks_left": world.placement.stale_count(),
        "signature": tuple((outcome.phase, outcome.ok, outcome.weak)
                           for outcome in outcomes),
    }


def run_a8_availability(seed: int = 0) -> ExperimentResult:
    """A8: availability under crash/flaky-link/partition schedules."""
    configs = [
        ("fail-fast baseline (seed path)",
         dict(replicated=False, retry=False, serve_stale=False)),
        ("replicated + retry/failover",
         dict(replicated=True, retry=True, serve_stale=False)),
        ("replicated + retry + serve-stale", SERVE_STALE),
    ]
    measurements = {label: run_schedule(seed, **kwargs)
                    for label, kwargs in configs}
    baseline = measurements[configs[0][0]]
    failover = measurements[configs[1][0]]
    degraded = measurements[configs[2][0]]

    result = ExperimentResult(
        exp_id="A8",
        title="Name-service availability under a fault schedule",
        headers=["configuration", "success rate", "weak fraction",
                 "p99 latency", "retries", "failovers", "messages"])
    for label, _kwargs in configs:
        m = measurements[label]
        result.rows.append([
            label, m["success_rate"], m["weak_fraction"],
            m["p99_latency"], m["total"].retries, m["total"].failovers,
            m["total"].messages])

    def rate(measurement, phase):
        hits = [o for o in measurement["outcomes"] if o.phase == phase]
        return (sum(o.ok for o in hits) / len(hits)) if hits else 0.0

    settled = [o for o in degraded["outcomes"]
               if o.time >= _HEAL_AT + 25.0]
    result.check("replication+retry success rate strictly beats the "
                 "fail-fast baseline",
                 failover["success_rate"] > baseline["success_rate"])
    result.check("baseline fails every crash-window resolution; "
                 "failover serves them all",
                 rate(baseline, "crash") == 0.0
                 and rate(failover, "crash") == 1.0)
    result.check("serve-stale additionally answers during the "
                 "partition",
                 rate(degraded, "partition") > rate(failover, "partition")
                 and degraded["success_rate"]
                 >= failover["success_rate"])
    result.check("degraded answers exist and are tagged weakly "
                 "coherent iff a step was stale-served — never "
                 "silently coherent",
                 degraded["weak_successes"] > 0
                 and all(o.weak == (o.stale_steps > 0)
                         for o in degraded["outcomes"]))
    result.check("no weak answers before the first fault",
                 all(not o.weak for o in degraded["outcomes"]
                     if o.time < _CRASH_AT))
    result.check("coherent configurations never report weak answers",
                 baseline["weak_successes"] == 0
                 and failover["weak_successes"] == 0)
    result.check("failover path exercised retries, failovers and the "
                 "circuit breaker",
                 failover["total"].retries > 0
                 and failover["total"].failovers > 0
                 and failover["breaker_transitions"] > 0)
    result.check("service fully recovers after heal (no lingering "
                 "stale marks; settled post-heal resolutions all "
                 "succeed coherently)",
                 degraded["stale_marks_left"] == 0
                 and len(settled) > 0
                 and all(o.ok and not o.weak for o in settled))
    rerun = run_schedule(seed, **SERVE_STALE)
    result.check("results are deterministic for a fixed seed",
                 rerun["signature"] == degraded["signature"]
                 and rerun["p99_latency"] == degraded["p99_latency"])

    result.notes.append(
        f"seed={seed} rounds={len(ROUNDS)}×3 lookups, "
        + ", ".join(WINDOWS_NOTE))

    # Instrumented replay: the metrics snapshot shows the
    # fault-tolerance layer working (retries, failovers, circuit
    # transitions, stale serves, injected faults).
    obs = Instrumentation(max_spans=8192)
    run_schedule(seed, obs=obs, **SERVE_STALE)
    result.metrics = obs.metrics.snapshot()
    result.metrics["spans_recorded"] = len(obs.tracer)
    result.metrics["spans_dropped"] = obs.tracer.dropped_spans
    result.figures = {
        "baseline|success_rate": baseline["success_rate"],
        "failover|success_rate": failover["success_rate"],
        "serve_stale|success_rate": degraded["success_rate"],
        "serve_stale|weak_fraction": degraded["weak_fraction"],
        "baseline|p99_latency": baseline["p99_latency"],
        "serve_stale|p99_latency": degraded["p99_latency"],
    }
    return result

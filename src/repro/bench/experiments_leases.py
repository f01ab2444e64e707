"""Ablation A9 (coherence): lease callbacks bound cache staleness.

The paper's §3 coherence discussion separates *strong* schemes (every
answer reflects the latest binding) from *weak* ones (answers may lag,
but the service says so).  Invalidation callbacks look strong — until
a callback is lost in a partition, after which the stale copy lives
forever.  A9 measures the lease subsystem's central claim: a lease is
a *promise with an expiry*, so even a lost callback leaves the holder
stale for at most one lease term plus one delivery delay.

Two instruments, three cache policies (TTL / INVALIDATE / LEASE):

* **Blip** — a short, surgical partition.  A binding is rebound while
  the only caching client is unreachable, so the coherence message
  (invalidation or lease-break callback) is provably lost; the client
  then heals quickly, while its cached state is still live, and keeps
  resolving.  The window during which it *claims coherent* answers
  that are in fact stale is the staleness bound made operational:
  TTL's window ends when the entry times out, INVALIDATE's never ends
  (the loss is silent), LEASE's ends by ``rebind + term + delay``.
* **Fault schedule** — the A8 crash / flaky-link / partition timeline
  with the rebind issued mid-partition.  This exercises the lease
  grace mode: the partition outlives the lease term, so the client
  serves from *expired* leases — every such answer tagged weakly
  coherent, never memoized as fresh — and revalidates its cached
  epochs against the servers once the partition heals.

Both instruments run on virtual time only and are deterministic per
seed (the rerun check pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.experiments_availability import (
    ROUNDS,
    WINDOWS_NOTE,
    fault_phase,
    fault_timeline,
)
from repro.bench.harness import ExperimentResult
from repro.model.entities import Entity, ObjectEntity
from repro.nameservice.cache import CachePolicy
from repro.obs.audit import CoherenceAuditor, CoherenceContract
from repro.obs.instrument import Instrumentation
from repro.workloads.deployment import World, build_world

__all__ = ["run_a9_leases", "build", "run_blip", "run_schedule"]

_TERM = 30.0           #: lease term (LEASE policy)
_TTL = 60.0            #: prefix/binding TTL (TTL policy)
#: TTL given to the policies whose coherence does not come from entry
#: expiry — large enough that any staleness bound they exhibit is
#: their own doing, not the cache timing out underneath them.
_UNBOUNDED_TTL = 10_000.0
#: Staleness-bound slack: one callback delivery plus the virtual time
#: a healing walk can burn in retry backoffs before its answer lands.
_SLACK = 6.0
_RETRY = dict(max_attempts=2, base_backoff=0.5, max_backoff=1.0)
_BREAKER_THRESHOLD, _BREAKER_COOLDOWN = 5, 5.0

# Blip timeline: the partition opens, the binding is rebound inside
# it (coherence message lost), and the heal lands *before* the
# client's leases expire — the claimed-coherent stale window this
# leaves is exactly what each policy's bound must contain.
_BLIP_PARTITION_AT, _BLIP_HEAL_AT = 10.0, 18.0
_BLIP_REBIND_AT = 11.0
_BLIP_PRE = (2.0, 6.0)
_BLIP_POST = tuple(float(t) for t in range(12, 92, 6))

# Fault-schedule timeline: A8's rounds and windows (imported, not
# restated), plus a rebind mid-partition; the partition outlives the
# lease term so the grace mode is exercised.
_SCHED_REBIND_AT = 140.0
_SETTLED = (250.0, 258.0, 266.0)

_POLICIES = (CachePolicy.TTL, CachePolicy.INVALIDATE, CachePolicy.LEASE)


@dataclass
class _Probe:
    time: float        #: virtual time the resolution actually began
    phase: str
    ok: bool
    weak: bool
    stale_steps: int
    stale: bool        #: answered the pre-rebind entity post-rebind
    claimed: bool      #: stale, yet presented as coherent


@dataclass
class _Scenario:
    """One client machine, one replica pair, one rebindable binding."""

    world: World
    svc: ObjectEntity
    new_dir: ObjectEntity
    old_leaf: Entity
    auditor: CoherenceAuditor
    rebound_at: Optional[float] = None

    def rebind(self) -> None:
        self.rebound_at = self.world.simulator.clock.now
        self.world.resolver.rebind(self.svc, "app", self.new_dir)

    def probe(self, start: float) -> _Probe:
        world = self.world
        world.simulator.run(until=start)
        began = world.simulator.clock.now
        entity, cost = world.resolver.resolve(
            world.client, world.context, "/svc/app/cfg")
        stale = (self.rebound_at is not None
                 and began >= self.rebound_at
                 and entity is self.old_leaf)
        return _Probe(
            time=began, phase=fault_phase(began),
            ok=entity.is_defined() and not cost.failed,
            weak=cost.weak, stale_steps=cost.stale_steps,
            stale=stale,
            claimed=stale and not cost.weak and not cost.failed)


def build(seed: int, policy: CachePolicy,
          obs: Optional[Instrumentation] = None) -> _Scenario:
    """The deployment under *policy*, no fault booked yet: hand it to
    :func:`run_blip` or :func:`run_schedule`."""
    # Every run is audited: ground-truth staleness measurement rides
    # on a disabled Instrumentation (pure-python tallies, no metric
    # emission) so the timed runs pay near-zero overhead; the
    # instrumented replay swaps in a fresh auditor that also feeds
    # the metrics registry.
    auditor = CoherenceAuditor(
        contract=CoherenceContract(slack=_SLACK))
    if obs is None:
        obs = Instrumentation(enabled=False, auditor=auditor)
    else:
        obs.auditor = auditor
        auditor.bind_obs(obs)
    world = build_world({
        "networks": ["lan", "srv"],
        "machines": [["client-m", "lan"], ["m1", "srv"], ["m2", "srv"]],
        "parent_links": True,
        "paths": ["svc/app/cfg", "spare/cfg"],
        "place": [["/", "client-m"]] + [[path, "m1", "m2"] for path in
                                        ("svc", "svc/app", "spare")],
        "clients": [["client-m", "client"]],
        "resolver": {
            "cache_policy": policy.value,
            "cache_ttl": _TTL if policy is CachePolicy.TTL
            else _UNBOUNDED_TTL,
            "retry_policy": _RETRY,
            # LEASE availability under partition comes from the grace
            # mode alone; the other policies get the explicit stale
            # gate so the comparison is about *coherence*, not
            # availability.
            "serve_stale": policy is not CachePolicy.LEASE,
            "breaker_threshold": _BREAKER_THRESHOLD,
            "breaker_cooldown": _BREAKER_COOLDOWN,
            "lease_term": _TERM},
        "restart_sync": True}, seed, obs)
    return _Scenario(world, svc=world.tree.directory("svc"),
                     new_dir=world.tree.directory("spare"),
                     old_leaf=world.tree.lookup("svc/app/cfg"),
                     auditor=auditor)


def _stats(scenario: _Scenario, probes: list[_Probe]) -> dict:
    resolver = scenario.world.resolver
    cache = resolver.cache_stats()
    lookups = cache["hits"] + cache["misses"]
    successes = [probe for probe in probes if probe.ok]
    claimed = [probe.time for probe in probes if probe.claimed]
    return {
        "probes": probes,
        "success_rate": (len(successes) / len(probes)) if probes else 0.0,
        "weak_fraction": (sum(probe.weak for probe in successes)
                          / len(successes)) if successes else 0.0,
        "claimed_times": claimed,
        "max_claimed": max(claimed) if claimed else None,
        "losses": resolver.invalidation_losses,
        "coherence_messages": resolver.invalidation_messages,
        "hit_rate": (cache["hits"] / lookups) if lookups else 0.0,
        "lease": (resolver.lease_stats()
                  if resolver.leases is not None else {}),
        "audit": scenario.auditor.summary(),
        "signature": tuple((probe.phase, probe.ok, probe.weak,
                            probe.stale) for probe in probes),
    }


def run_blip(scenario: _Scenario) -> dict:
    """The blip instrument on a fresh :func:`build`: probe, rebind
    inside a short partition, keep probing after the heal."""
    world = scenario.world
    lan, srv = world.networks["lan"], world.networks["srv"]
    world.injector.schedule_timeline([
        (_BLIP_PARTITION_AT, "partition", lan, srv),
        (_BLIP_HEAL_AT, "heal", lan, srv),
    ])
    probes = [scenario.probe(start) for start in _BLIP_PRE]
    world.simulator.run(until=_BLIP_REBIND_AT)
    scenario.rebind()
    probes += [scenario.probe(start) for start in _BLIP_POST]
    world.simulator.run()
    return _stats(scenario, probes)


def run_schedule(scenario: _Scenario) -> dict:
    """The fault-schedule instrument on a fresh :func:`build`: A8's
    timeline, with the rebind issued mid-partition."""
    world = scenario.world
    world.injector.schedule_timeline(fault_timeline(world))
    probes: list[_Probe] = []
    for start in ROUNDS:
        if (scenario.rebound_at is None
                and start >= _SCHED_REBIND_AT):
            world.simulator.run(until=_SCHED_REBIND_AT)
            scenario.rebind()
        probes.append(scenario.probe(start))
    world.simulator.run()
    settled = [scenario.probe(start) for start in _SETTLED]
    stats = _stats(scenario, probes + settled)
    stats["settled"] = settled
    return stats


def run_a9_leases(seed: int = 0) -> ExperimentResult:
    """A9: lease callbacks bound staleness; lost invalidations don't."""
    blip = {policy: run_blip(build(seed, policy))
            for policy in _POLICIES}
    sched = {policy: run_schedule(build(seed, policy))
             for policy in _POLICIES}
    ttl_b, inv_b, lease_b = (blip[policy] for policy in _POLICIES)
    ttl_s, inv_s, lease_s = (sched[policy] for policy in _POLICIES)

    result = ExperimentResult(
        exp_id="A9",
        title="Lease callbacks: bounded staleness under partitions",
        headers=["policy", "blip stale window end", "schedule success",
                 "weak fraction", "hit rate", "coherence msgs",
                 "lost msgs"])
    for policy in _POLICIES:
        b, s = blip[policy], sched[policy]
        result.rows.append([
            policy.value,
            "unbounded" if b["max_claimed"] is not None
            and b["max_claimed"] >= _BLIP_POST[-1]
            else (f"{b['max_claimed']:.1f}" if b["max_claimed"]
                  else "none"),
            s["success_rate"], s["weak_fraction"], s["hit_rate"],
            b["coherence_messages"] + s["coherence_messages"],
            b["losses"] + s["losses"]])

    # -- blip: the staleness bound, operational -----------------------
    result.check(
        "the blip rebind loses the coherence message under both "
        "INVALIDATE and LEASE (and TTL sends none)",
        inv_b["losses"] == 1 and lease_b["losses"] == 1
        and ttl_b["losses"] == 0 and ttl_b["coherence_messages"] == 0)
    result.check(
        "INVALIDATE staleness is unbounded: the client still claims "
        "the stale binding coherently at the final probe",
        inv_b["probes"][-1].claimed)
    result.check(
        "LEASE staleness is positive but bounded by rebind + term + "
        "one delivery delay",
        len(lease_b["claimed_times"]) > 0
        and lease_b["max_claimed"]
        <= _BLIP_REBIND_AT + _TERM + _SLACK)
    result.check(
        "TTL staleness is bounded only by the (longer) entry TTL",
        len(ttl_b["claimed_times"]) > 0
        and lease_b["max_claimed"] < ttl_b["max_claimed"]
        <= _BLIP_REBIND_AT + _TTL + _SLACK
        and not ttl_b["probes"][-1].claimed)
    result.check(
        "after its lease lapses the client re-walks and answers the "
        "new binding coherently",
        all(probe.ok and not probe.weak and not probe.stale
            for probe in lease_b["probes"][-3:]))
    result.check(
        "the lost lease callback is escalated to a server-side break",
        lease_b["lease"].get("server_breaks", 0) == 1
        and lease_b["lease"].get("server_acks", 0) == 0)

    # -- schedule: grace mode, weak tagging, recovery -----------------
    result.check(
        "grace mode keeps the lease client answering through every "
        "fault phase, never worse than the TTL baseline (whose "
        "entries may expire mid-partition, unrefillable)",
        lease_s["success_rate"] == 1.0
        and inv_s["success_rate"] == 1.0
        and ttl_s["success_rate"] <= lease_s["success_rate"])
    result.check(
        "an answer is tagged weakly coherent iff a step was served "
        "stale — grace answers are never memoized as fresh",
        all(probe.weak == (probe.stale_steps > 0)
            for policy in _POLICIES
            for probe in sched[policy]["probes"]))
    result.check(
        "the partition outlives the lease term: expired leases serve "
        "in grace mode (weak), and every lease-fresh claim stays "
        "inside the staleness bound",
        lease_s["lease"]["grace_hits"] > 0
        and lease_s["lease"]["expirations"] > 0
        and (lease_s["max_claimed"] is None
             or lease_s["max_claimed"]
             <= _SCHED_REBIND_AT + _TERM + _SLACK))
    result.check(
        "after the heal the lease client revalidates cached epochs "
        "and answers the new binding coherently",
        lease_s["lease"]["revalidations"] > 0
        and all(probe.ok and not probe.weak and not probe.stale
                for probe in lease_s["settled"]))
    result.check(
        "INVALIDATE never recovers in the schedule either: its "
        "settled post-heal answers are still claimed-coherent stale",
        inv_s["losses"] >= 1
        and all(probe.claimed for probe in inv_s["settled"]))

    # -- measured: the auditor's ground truth beside the claims -------
    result.check(
        "measured: LEASE claimed-coherent staleness never exceeds "
        "term + slack and its contract is never violated",
        lease_b["audit"]["violations"] == 0
        and lease_s["audit"]["violations"] == 0
        and max(lease_b["audit"]["max_claimed_staleness"],
                lease_s["audit"]["max_claimed_staleness"])
        <= _TERM + _SLACK)
    result.check(
        "measured: TTL claimed-coherent staleness stays within "
        "ttl + slack with no violations",
        ttl_b["audit"]["violations"] == 0
        and ttl_s["audit"]["violations"] == 0
        and max(ttl_b["audit"]["max_claimed_staleness"],
                ttl_s["audit"]["max_claimed_staleness"])
        <= _TTL + _SLACK)
    result.check(
        "measured: the lost INVALIDATE is detected — claimed-coherent "
        "staleness beyond the delivery slack is flagged as a "
        "contract violation in both instruments",
        inv_b["audit"]["violations"] >= 1
        and inv_s["audit"]["violations"] >= 1
        and inv_b["audit"]["max_claimed_staleness"] > _SLACK)
    result.check(
        "measured: the auditor saw every probe and exactly the one "
        "rebind write per run",
        all(run["audit"]["observed"] >= len(run["probes"])
            and run["audit"]["writes"] == 1
            for policy in _POLICIES
            for run in (blip[policy], sched[policy])))
    rerun = run_schedule(build(seed, CachePolicy.LEASE))
    result.check(
        "results are deterministic for a fixed seed",
        rerun["signature"] == lease_s["signature"]
        and rerun["lease"] == lease_s["lease"]
        and rerun["audit"] == lease_s["audit"])

    result.notes.append(
        f"seed={seed} blip: partition [{_BLIP_PARTITION_AT:g},"
        f"{_BLIP_HEAL_AT:g}) rebind@{_BLIP_REBIND_AT:g}, term={_TERM:g} "
        f"ttl={_TTL:g}; schedule: {' '.join(WINDOWS_NOTE)} "
        f"rebind@{_SCHED_REBIND_AT:g}")
    result.notes.append(
        "blip claimed-stale windows — "
        + "; ".join(
            f"{policy.value}: "
            + (f"[{min(blip[policy]['claimed_times']):.1f}.."
               f"{max(blip[policy]['claimed_times']):.1f}]"
               if blip[policy]["claimed_times"] else "[]")
            for policy in _POLICIES))
    result.notes.append(
        "lease schedule stats: "
        + " ".join(f"{key}={value}"
                   for key, value in sorted(lease_s["lease"].items())))

    # Instrumented replay of the LEASE runs: grants, renewals,
    # callbacks, breaks, grace serves and revalidations all land in
    # the metrics snapshot.
    obs = Instrumentation(max_spans=16384)
    run_blip(build(seed, CachePolicy.LEASE, obs))
    run_schedule(build(seed, CachePolicy.LEASE, obs))
    result.metrics = obs.metrics.snapshot()
    result.metrics["spans_recorded"] = len(obs.tracer)
    result.metrics["spans_dropped"] = obs.tracer.dropped_spans
    result.audit = {
        "contract": {"slack": _SLACK, "ttl": _TTL,
                     "lease_term": _TERM},
        "blip": {policy.value: blip[policy]["audit"]
                 for policy in _POLICIES},
        "schedule": {policy.value: sched[policy]["audit"]
                     for policy in _POLICIES},
    }
    result.notes.append(
        "measured max claimed staleness (blip/schedule) — "
        + "; ".join(
            f"{policy.value}: "
            f"{blip[policy]['audit']['max_claimed_staleness']:.1f}/"
            f"{sched[policy]['audit']['max_claimed_staleness']:.1f}"
            f" ({blip[policy]['audit']['violations']}"
            f"+{sched[policy]['audit']['violations']} violations)"
            for policy in _POLICIES))
    result.figures = {
        "lease|blip_stale_window_end": lease_b["max_claimed"] or 0.0,
        "ttl|blip_stale_window_end": ttl_b["max_claimed"] or 0.0,
        "invalidate|blip_stale_at_end": float(
            inv_b["probes"][-1].claimed),
        "lease|schedule_weak_fraction": lease_s["weak_fraction"],
        "lease|schedule_hit_rate": lease_s["hit_rate"],
        "lease|grace_hits": float(lease_s["lease"]["grace_hits"]),
        "lease|measured_max_claimed_staleness": max(
            lease_b["audit"]["max_claimed_staleness"],
            lease_s["audit"]["max_claimed_staleness"]),
        "ttl|measured_max_claimed_staleness": max(
            ttl_b["audit"]["max_claimed_staleness"],
            ttl_s["audit"]["max_claimed_staleness"]),
        "invalidate|measured_max_staleness": max(
            inv_b["audit"]["max_staleness"],
            inv_s["audit"]["max_staleness"]),
        "invalidate|measured_violations": float(
            inv_b["audit"]["violations"]
            + inv_s["audit"]["violations"]),
    }
    return result

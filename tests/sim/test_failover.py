"""Tests for the fault-tolerance layer of the name service.

Covers the retry/backoff/circuit policy objects, replicated placement
with stale marks, failover resolution across a replica set, degraded
(weak-coherence) stale reads, and the crash → restart → resolve cycle
through the injector's respawn hooks with anti-entropy.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SchemeError, SimulationError
from repro.model.entities import UNDEFINED_ENTITY, ObjectEntity
from repro.model.resolution import resolve as local_resolve
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import (
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.workloads.deployment import build_world


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_backoff=0.5,
                             max_backoff=3.0, jitter=0.0)
        rng = random.Random(0)
        waits = [policy.backoff(k, rng) for k in (1, 2, 3, 4, 5)]
        assert waits == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_backoff=1.0, jitter=0.25)
        rng = random.Random(7)
        for _ in range(50):
            wait = policy.backoff(1, rng)
            assert 1.0 <= wait <= 1.25

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(jitter=0.5)
        first = [policy.backoff(1, random.Random(3)) for _ in range(3)]
        assert len(set(first)) == 1

    def test_validation(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(base_backoff=-1.0)
        with pytest.raises(SimulationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(SimulationError):
            RetryPolicy().backoff(0, random.Random(0))


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        for now in (1.0, 2.0):
            breaker.record_failure(now)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(5.0)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow(5.0)  # cooldown elapsed: half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure(5.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(9.0)  # cooldown restarted

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0)
        breaker.record_failure(0.0)
        assert breaker.allow(6.0)
        breaker.record_success(6.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.transitions == 3  # open, half-open, closed

    def test_a_restarted_server_gets_a_closed_breaker(self):
        # A restarted server is a new process, so it gets a new
        # breaker: nothing has to close the old one.
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network("lan"), "m0")
        resolver = DistributedResolver(
            simulator, DirectoryPlacement(), breaker_threshold=1)
        old = resolver.server_for(machine)
        resolver.breaker_for(old).record_failure(0.0)
        assert resolver.breaker_for(old).state is BreakerState.OPEN
        injector = FailureInjector(simulator)
        injector.crash_machine(machine)
        injector.restart_machine(machine)
        fresh = resolver.server_for(machine)
        assert fresh is not old
        assert resolver.breaker_for(fresh).state is BreakerState.CLOSED
        assert resolver.breaker_for(fresh).consecutive_failures == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(SimulationError):
            CircuitBreaker(cooldown=-1.0)


class TestReplicatedPlacement:
    @pytest.fixture
    def world(self):
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        machines = [simulator.machine(network, f"m{i}") for i in range(3)]
        tree = NamingTree("root", sigma=simulator.sigma)
        tree.mkdir("svc")
        return tree.directory("svc"), machines

    def test_place_replicated_orders_primary_first(self, world):
        directory, (m0, m1, m2) = world
        placement = DirectoryPlacement()
        placement.place_replicated(directory, m0, m1, m2, m1)
        assert placement.host_of(directory) is m0
        assert placement.replicas_of(directory) == (m0, m1, m2)

    def test_membership_changes_bump_epoch_stale_marks_do_not(self, world):
        directory, (m0, m1, _m2) = world
        placement = DirectoryPlacement()
        placement.place_replicated(directory, m0, m1)
        epoch = placement.epoch
        placement.mark_stale(directory, m1)
        assert placement.epoch == epoch
        placement.place_replicated(directory, m0)  # m1 leaves the set
        assert placement.epoch == epoch + 1

    def test_remove_replica_discards_its_stale_mark(self, world):
        directory, (m0, m1, _m2) = world
        placement = DirectoryPlacement()
        placement.place_replicated(directory, m0, m1)
        placement.mark_stale(directory, m1)
        assert placement.stale_count() == 1
        placement.place_replicated(directory, m0)  # m1 leaves the set
        assert placement.stale_count() == 0

    def test_stale_bookkeeping(self, world):
        directory, (m0, m1, _m2) = world
        placement = DirectoryPlacement()
        placement.place_replicated(directory, m0, m1)
        with pytest.raises(SchemeError):
            placement.mark_stale(directory, _m2)  # not a replica
        placement.mark_stale(directory, m1)
        assert placement.is_stale(directory, m1)
        assert not placement.is_stale(directory, m0)
        assert placement.stale_uids_of(m1) == [directory.uid]
        assert placement.clear_stale(directory.uid, m1)
        assert not placement.clear_stale(directory.uid, m1)
        assert placement.stale_uids_of(m1) == []
        assert placement.host_of(directory) is m0


def make_world(cache_policy=CachePolicy.NONE, retry=True,
               serve_stale=False, seed=0, jitter=0.25):
    """A replicated deployment: /svc hosted on m1 (primary) + m2,
    root on the client's machine, servers behind their own network."""
    policy = dict(max_attempts=2, base_backoff=0.1, max_backoff=0.4,
                  jitter=jitter)
    world = build_world({
        "networks": ["lan", "srv"],
        "machines": [["client-m", "lan"], ["m1", "srv"], ["m2", "srv"]],
        "parent_links": True,
        "paths": ["svc/deep/", "svc/f0", "svc/f1", "svc/deep/g"],
        "place": [["/", "client-m"], ["svc", "m1", "m2"],
                  ["svc/deep", "m1", "m2"]],
        "clients": [["client-m", "client"]],
        "resolver": {"cache_policy": cache_policy.value, "cache_ttl": 20.0,
                     "retry_policy": policy if retry else None,
                     "serve_stale": serve_stale,
                     "breaker_threshold": 2, "breaker_cooldown": 5.0}},
        seed)
    tree = world.tree
    return {"simulator": world.simulator, "resolver": world.resolver,
            "client": world.client, "context": world.context, "tree": tree,
            "files": [tree.lookup(path)
                      for path in ("svc/f0", "svc/f1", "svc/deep/g")],
            "placement": world.placement,
            "machines": tuple(world.machines.values()),
            "networks": tuple(world.networks.values()),
            "injector": world.injector}


class TestFailoverResolution:
    def test_crashed_primary_fails_over_to_secondary(self):
        world = make_world()
        resolver = world["resolver"]
        _c, m1, _m2 = world["machines"]
        entity, warm = resolver.resolve(world["client"], world["context"],
                                        "/svc/f0")
        assert entity is world["files"][0] and not warm.failed
        world["injector"].crash_machine(m1)
        entity, cost = resolver.resolve(world["client"], world["context"],
                                        "/svc/f0")
        assert entity is world["files"][0]
        assert not cost.failed
        assert cost.failovers == 1
        assert cost.retries >= 1  # the primary was retried first
        assert not cost.weak and cost.coherence == "coherent"

    @pytest.mark.parametrize("retry", [False, True],
                             ids=["failfast", "failover"])
    def test_a_host_that_never_served_is_a_failed_step_not_a_raise(
            self, retry):
        """``svc`` lives on a machine that crashed before it served
        any lookup.  Its server exists from build, so the walk asks it
        and the ask is lost: one message fail-fast, two under the retry
        policy (one re-ask).  The step fails the lookup, which answers
        ``⊥E`` and counts no step past the loss.  (Fail-fast used to
        raise ``machine m1 is down`` out of ``resolve``.)"""
        world = make_world(retry=retry)
        _c, m1, _m2 = world["machines"]
        world["placement"].place(world["tree"].directory("svc"), m1)
        world["injector"].crash_machine(m1)
        entity, cost = world["resolver"].resolve(
            world["client"], world["context"], "/svc/f0")
        assert entity is UNDEFINED_ENTITY
        assert cost.failed and not cost.weak
        assert str(cost) == (
            "steps=2 remote=0 cached=0 messages=2 latency=2.12111 "
            "failed=1 retries=1 failovers=0" if retry else
            "steps=2 remote=0 cached=0 messages=1 latency=1 "
            "failed=1 retries=0 failovers=0")
        simulator = world["simulator"]
        assert simulator.messages_sent == simulator.messages_dropped \
            == cost.messages

    def test_fail_fast_resolver_fails_and_is_never_weak(self):
        world = make_world(retry=False)
        resolver = world["resolver"]
        _c, m1, _m2 = world["machines"]
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        world["injector"].crash_machine(m1)
        _entity, cost = resolver.resolve(world["client"],
                                         world["context"], "/svc/f0")
        assert cost.failed
        assert cost.failovers == 0 and cost.retries == 0
        assert not cost.weak

    def test_cold_crashed_replica_is_skipped_without_messages(self):
        # m1 goes down before any resolution reached it.  Its server
        # exists from build, so the failover pays for it like for any
        # dead primary: the ask and its one re-ask are dropped, then m2
        # answers.
        world = make_world()
        _c, m1, _m2 = world["machines"]
        world["injector"].crash_machine(m1)
        entity, cost = world["resolver"].resolve(
            world["client"], world["context"], "/svc/f0")
        assert entity is world["files"][0]
        assert cost.failovers == 1 and cost.retries == 1
        assert cost.failed_hops == 0
        assert world["simulator"].messages_dropped == 2

    def test_crash_restart_resolve_roundtrip(self):
        # Satellite (a): crash → restart → resolve, with the respawn
        # hook reviving the directory server.
        world = make_world()
        resolver = world["resolver"]
        injector = world["injector"]
        _c, m1, m2 = world["machines"]
        injector.on_restart(resolver.handle_restart)
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        injector.crash_machine(m1)
        assert not resolver.server_for(m1).alive
        entity, down = resolver.resolve(world["client"],
                                        world["context"], "/svc/f0")
        assert entity is world["files"][0] and down.failovers == 1
        injector.restart_machine(m1)
        assert resolver.server_for(m1).alive
        # Fresh server process ⇒ fresh (closed) circuit breaker.
        assert resolver.breaker_for(
            resolver.server_for(m1)).state is BreakerState.CLOSED
        entity, back = resolver.resolve(world["client"],
                                        world["context"], "/svc/f1")
        assert entity is world["files"][1]
        assert not back.failed and back.failovers == 0

    def test_both_drivers_agree_across_a_primary_outage(
            self, async_lookups):
        """Failover comes from the one walk, whichever driver runs it:
        the pumped resolver and the message-driven client report the
        same entity, ``failed`` flag, re-ask and failover counts while
        the primary is healthy, crashed, and restarted.  (One lookup
        each per phase: only the resolver keeps circuit breakers.)"""
        world = make_world()
        resolver, injector = world["resolver"], world["injector"]
        client_machine, m1, _m2 = world["machines"]
        lookup = async_lookups(
            world["simulator"], world["placement"], client_machine,
            world["machines"], retry_policy=resolver.retry_policy)
        injector.on_restart(resolver.handle_restart)
        injector.on_restart(
            lambda _m: lookup.client.router.servers[id(m1)].respawn(),
            machine=m1)
        for fault, reasks_and_failovers in (
                (None, (0, 0)),
                (injector.crash_machine, (1, 1)),
                (injector.restart_machine, (0, 0))):
            if fault is not None:
                fault(m1)
            entity, cost = resolver.resolve(world["client"],
                                            world["context"], "/svc/f0")
            outcome = lookup(world["context"], "/svc/f0")
            assert outcome.entity is entity is world["files"][0]
            assert outcome.failed is cost.failed is False
            assert (outcome.cost.retries, outcome.failovers) \
                == (cost.retries, cost.failovers) == reasks_and_failovers

    def test_both_drivers_agree_when_the_chained_request_is_lost(
            self, async_lookups):
        """``/svc/deep/g`` is two steps at one server — one request for
        the message-driven client, which ships the suffix.  The primary
        dies with that request in flight: the lost request is re-asked
        whole, the walk fails over to the secondary and chains there,
        and both drivers report the same entity, ``failed``, re-ask and
        failover counts — as they do once the primary is back.  (One
        lookup per phase: only the resolver keeps circuit breakers.)"""
        world = make_world(jitter=0.0)
        resolver, injector = world["resolver"], world["injector"]
        simulator = world["simulator"]
        client_machine, m1, m2 = world["machines"]
        lookup = async_lookups(
            simulator, world["placement"], client_machine,
            world["machines"], timeout=2.5,
            retry_policy=resolver.retry_policy)
        servers = lookup.client.router.servers
        injector.on_restart(resolver.handle_restart)
        injector.on_restart(lambda _m: servers[id(m1)].respawn(), machine=m1)
        resolver.resolve(world["client"], world["context"], "/svc/f0")

        def pumped():
            entity, cost = resolver.resolve(
                world["client"], world["context"], "/svc/deep/g")
            return entity, cost.failed, cost.retries, cost.failovers, \
                cost.steps, cost.remote_steps

        def messages():
            sent = simulator.messages_sent
            served = [servers[id(m)].requests_served for m in (m1, m2)]
            outcome = lookup(world["context"], "/svc/deep/g")
            messages.requests = simulator.messages_sent - sent
            messages.served = [servers[id(m)].requests_served - before
                               for m, before in zip((m1, m2), served)]
            return outcome.entity, outcome.failed, outcome.cost.retries, \
                outcome.failovers, outcome.steps, outcome.cost.remote_steps

        reports = {}
        for driver in (pumped, messages):
            injector.schedule(simulator.clock.now + 0.5, "crash", m1)
            reports[driver.__name__, "mid-flight"] = driver()
            injector.restart_machine(m1)
            reports[driver.__name__, "restarted"] = driver()
        for phase, expected in (("mid-flight", (1, 1)),
                                ("restarted", (0, 0))):
            report = reports["messages", phase]
            assert report == reports["pumped", phase]
            assert report[:2] == (world["files"][2], False)
            assert report[2:4] == expected
            assert report[4:] == (4, 2)
        # Restarted and healthy: one request, one reply, both steps
        # served by the primary.
        assert (messages.requests, messages.served) == (2, [2, 0])

    def test_breaker_opens_then_recovers_after_cooldown(self):
        world = make_world(jitter=0.0)
        resolver = world["resolver"]
        simulator = world["simulator"]
        injector = world["injector"]
        lan, srv = world["networks"]
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        injector.flaky_link(lan, srv, drop_prob=1.0)
        _e, cost = resolver.resolve(world["client"], world["context"],
                                    "/svc/f0")
        # Every attempt against both replicas dropped: the walk failed
        # and both breakers tripped (threshold 2 == max_attempts).
        assert cost.failed
        _c, m1, m2 = world["machines"]
        assert resolver.breaker_for(
            resolver.server_for(m1)).state is BreakerState.OPEN
        assert resolver.breaker_for(
            resolver.server_for(m2)).state is BreakerState.OPEN
        # While open, the replicas are skipped without any messages.
        _e, skipped = resolver.resolve(world["client"], world["context"],
                                       "/svc/f0")
        assert skipped.failed and skipped.messages == 0
        injector.steady_link(lan, srv)
        simulator.run(until=simulator.clock.now + 5.0)  # cooldown
        entity, cost = resolver.resolve(world["client"],
                                        world["context"], "/svc/f0")
        assert entity is world["files"][0] and not cost.failed
        assert resolver.breaker_for(
            resolver.server_for(m1)).state is BreakerState.CLOSED

    def test_failover_is_deterministic_per_seed(self):
        def signature(seed):
            world = make_world(seed=seed)
            resolver = world["resolver"]
            resolver.resolve(world["client"], world["context"], "/svc/f0")
            world["injector"].flaky_link(*world["networks"],
                                         drop_prob=0.5, extra_latency=1.0)
            costs = [resolver.resolve(world["client"], world["context"],
                                      f"/svc/f{i % 2}")[1]
                     for i in range(6)]
            return [(c.messages, c.retries, c.failovers, c.failed_hops,
                     round(c.latency, 9)) for c in costs]

        assert signature(3) == signature(3)
        assert signature(3) != signature(4)  # the faults really bite


class TestDegradedReads:
    def test_partition_served_from_stale_cache_tagged_weak(self):
        world = make_world(cache_policy=CachePolicy.TTL, serve_stale=True)
        resolver = world["resolver"]
        lan, srv = world["networks"]
        entity, warm = resolver.resolve(world["client"], world["context"],
                                        "/svc/f0")
        assert not warm.weak
        world["injector"].partition(lan, srv)
        entity, cost = resolver.resolve(world["client"], world["context"],
                                        "/svc/f0")
        assert entity is world["files"][0]
        assert not cost.failed
        assert cost.weak and cost.stale_steps >= 1
        assert cost.coherence == "weak"
        assert resolver.cache_stats()["stale_hits"] >= 1

    def test_degraded_answers_stay_weak_on_repeat(self):
        # A degraded walk must not memoize its prefixes as coherent:
        # the next resolution through the outage is weak again.
        world = make_world(cache_policy=CachePolicy.TTL, serve_stale=True)
        resolver = world["resolver"]
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        world["injector"].partition(*world["networks"])
        for _ in range(2):
            _e, cost = resolver.resolve(world["client"],
                                        world["context"], "/svc/f0")
            assert cost.weak and not cost.failed

    def test_cold_cache_cannot_serve_stale(self):
        world = make_world(cache_policy=CachePolicy.TTL, serve_stale=True)
        world["injector"].partition(*world["networks"])
        _e, cost = world["resolver"].resolve(
            world["client"], world["context"], "/svc/f0")
        assert cost.failed
        assert not cost.weak and cost.stale_steps == 0

    def test_without_gate_partition_fails_the_walk(self):
        world = make_world(cache_policy=CachePolicy.TTL, serve_stale=False)
        resolver = world["resolver"]
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        world["injector"].partition(*world["networks"])
        _e, cost = resolver.resolve(world["client"], world["context"],
                                    "/svc/f0")
        assert cost.failed and not cost.weak

    @pytest.mark.parametrize("fault", ["partition", "never-served",
                                       "stale-primary"])
    @pytest.mark.parametrize("policy", list(CachePolicy), ids=str)
    def test_without_a_retry_policy_nothing_is_ever_weak(self, policy,
                                                         fault):
        """The degraded serve needs a retry policy even with the gate
        asked for (and under ``LEASE``, which implies it): a warm cache
        and an unreachable primary fail the walk, flagged."""
        world = make_world(cache_policy=policy, retry=False,
                           serve_stale=True)
        resolver = world["resolver"]
        _c, m1, m2 = world["machines"]
        svc = world["tree"].directory("svc")
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        if fault == "partition":
            world["injector"].partition(*world["networks"])
        elif fault == "never-served":
            # Only the primary is ever asked, so m2 has run no server.
            world["placement"].place(svc, m2)
            world["injector"].crash_machine(m2)
        else:
            world["placement"].mark_stale(svc, m1)
        _e, cost = resolver.resolve(world["client"], world["context"],
                                    "/svc/f0")
        assert cost.failed
        assert not cost.weak and cost.stale_steps == 0

    def test_heal_restores_coherent_answers(self):
        world = make_world(cache_policy=CachePolicy.TTL, serve_stale=True)
        resolver = world["resolver"]
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        world["injector"].partition(*world["networks"])
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        world["injector"].heal(*world["networks"])
        # The breakers tripped during the outage; wait out their
        # cooldown (healing the network does not close them).
        simulator = world["simulator"]
        simulator.run(until=simulator.clock.now + 5.0)
        _e, cost = resolver.resolve(world["client"], world["context"],
                                    "/svc/f1")
        assert not cost.failed and not cost.weak


class TestReplicationAndAntiEntropy:
    def test_rebind_propagates_to_live_secondary(self):
        world = make_world()
        resolver = world["resolver"]
        simulator = world["simulator"]
        svc = world["tree"].directory("svc")
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        replacement = ObjectEntity("f0-v2")
        simulator.sigma.add(replacement)
        resolver.rebind(svc, "f0", replacement)
        assert resolver.replication_messages == 1
        assert world["placement"].stale_count() == 0
        entity, _cost = resolver.resolve(world["client"],
                                         world["context"], "/svc/f0")
        assert entity is replacement

    def test_unreachable_secondary_marked_stale_and_skipped(self):
        world = make_world()
        resolver = world["resolver"]
        placement = world["placement"]
        injector = world["injector"]
        _c, m1, m2 = world["machines"]
        svc = world["tree"].directory("svc")
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        injector.crash_machine(m2)
        replacement = ObjectEntity("f0-v2")
        world["simulator"].sigma.add(replacement)
        resolver.rebind(svc, "f0", replacement)
        assert placement.is_stale(svc, m2)
        # The stale secondary must not serve reads: with the primary
        # also down and no stale-serve gate, the walk fails rather
        # than failing over to pre-write state.
        injector.restart_machine(m2)  # no hooks: still stale
        injector.crash_machine(m1)
        _e, cost = resolver.resolve(world["client"], world["context"],
                                    "/svc/f0")
        assert cost.failed

    def test_restart_runs_anti_entropy_and_clears_the_mark(self):
        world = make_world()
        resolver = world["resolver"]
        placement = world["placement"]
        injector = world["injector"]
        _c, _m1, m2 = world["machines"]
        svc = world["tree"].directory("svc")
        injector.on_restart(resolver.handle_restart)
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        injector.crash_machine(m2)
        replacement = ObjectEntity("f0-v2")
        world["simulator"].sigma.add(replacement)
        resolver.rebind(svc, "f0", replacement)
        assert placement.is_stale(svc, m2)
        injector.restart_machine(m2)
        assert not placement.is_stale(svc, m2)
        assert resolver.anti_entropy_messages == 1

    def test_anti_entropy_with_dead_primary_stays_stale(self):
        world = make_world()
        resolver = world["resolver"]
        placement = world["placement"]
        injector = world["injector"]
        _c, m1, m2 = world["machines"]
        svc = world["tree"].directory("svc")
        injector.on_restart(resolver.handle_restart)
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        injector.crash_machine(m2)
        resolver.rebind(svc, "f0", ObjectEntity("f0-v2"))
        injector.crash_machine(m1)
        injector.restart_machine(m2)  # primary down: sync impossible
        assert placement.is_stale(svc, m2)
        injector.restart_machine(m1)
        injector.crash_machine(m2)
        injector.restart_machine(m2)  # primary back: sync succeeds
        assert not placement.is_stale(svc, m2)

    def test_dead_primary_marks_every_secondary_stale(self):
        world = make_world()
        resolver = world["resolver"]
        injector = world["injector"]
        _c, m1, m2 = world["machines"]
        svc = world["tree"].directory("svc")
        resolver.resolve(world["client"], world["context"], "/svc/f0")
        injector.crash_machine(m1)
        resolver.rebind(svc, "f0", ObjectEntity("f0-v2"))
        assert world["placement"].is_stale(svc, m2)
        assert resolver.replication_messages == 0

    def test_semantics_preserved_through_failover(self):
        world = make_world()
        resolver = world["resolver"]
        world["resolver"].resolve(world["client"], world["context"],
                                  "/svc/f0")
        world["injector"].crash_machine(world["machines"][1])
        for name_ in ("/svc/f0", "/svc/f1", "/svc/zzz", "/zzz"):
            entity, cost = resolver.resolve(world["client"],
                                            world["context"], name_)
            assert entity is local_resolve(world["context"], name_), name_
            assert not cost.failed

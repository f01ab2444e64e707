"""One write discipline, one table of callback schedules.

A rebind's lease-break fan-out is written once, inside
``repro.nameservice.writes.write_effects``.  Here it runs behind no
placement (the socket server's deployment) over scripted holders: each
``"break"`` leg is answered from a schedule, and each ``Wait`` passes
on a scripted clock.  Every row of one table goes through a blocking
driver and an awaiting one — the loop shapes of
``DistributedResolver.rebind`` (the kernel driver of every effect
generator) and ``NamingService._rebind`` — and both must produce the
pinned report and the same delivery order, backoff draws, broken
leases and breaker transitions.  ``tests/transport/test_write_parity.py``
holds the two real drivers equal.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.nameservice.cache import CachePolicy, binding_dep
from repro.nameservice.leases import LeaseManager, LeaseState, Wait
from repro.nameservice.retry import BreakerState, CircuitBreaker, RetryPolicy
from repro.nameservice.writes import write_effects
from repro.obs.instrument import NO_OBS
from repro.transport.service import NamingService, RemoteNameClient

POLICY = RetryPolicy(max_attempts=3, base_backoff=0.5, max_backoff=4.0)
LONG = RetryPolicy(max_attempts=5, base_backoff=0.5, max_backoff=1.0)
#: A breaker that never trips within a row.
NO_TRIP = 10 ** 6


class ScriptedHost:
    """A ``write_effects`` host with no placement: the holders of one
    binding, each behind its own callback breaker.

    *breaker_spec* is None (breakers that never trip) or ``(threshold,
    cooldown, failures recorded beforehand)`` for every holder.
    """

    cache_policy = CachePolicy.LEASE
    placement = None
    holders = holder_node = call_back = None   # read only with a placement
    auditor = None
    epoch = 0
    obs = NO_OBS

    def __init__(self, holders, retry_policy, breaker_spec, seed=7):
        threshold, cooldown, failures = breaker_spec or (NO_TRIP, 30.0, 0)
        self.leases = LeaseManager(term=100.0, breaker_threshold=threshold,
                                   breaker_cooldown=cooldown)
        self.retry_policy = retry_policy
        self.rng = random.Random(seed)
        self.clock = 0.0
        self.directory = context_object("dir")
        self.dep = binding_dep(self.directory, "name")
        self.holders = [self.leases.grant(machine_id, self.dep, 0.0, 0,
                                          machine_label=f"m{machine_id}")
                        for machine_id in holders]
        for lease in self.holders:
            for _ in range(failures):
                self.leases.breaker_for(lease).record_failure(0.0)

    def now(self) -> float:
        return self.clock

    def breaker(self, machine_id) -> CircuitBreaker:
        (lease,) = [h for h in self.holders if h.machine_id == machine_id]
        return self.leases.breaker_for(lease)


def run_write(driver, host, schedule):
    """One rebind through *driver* ("sync" or "async"):
    ``schedule[(machine_id, attempt)]`` is True when that callback gets
    through.  Returns the report and the log of legs and waits."""
    log = {"delivered": [], "waits": []}
    steps = write_effects(host, host.directory, "name", ObjectEntity("v"))

    def answer(leg):
        if type(leg) is Wait:
            log["waits"].append(leg.delay)
            host.clock += leg.delay
            return None
        if leg.op == "fanout":
            return None
        assert leg.op == "break"   # no placement: nothing else is sent
        log["delivered"].append((leg.to.machine_id, leg.attempt))
        return schedule.get((leg.to.machine_id, leg.attempt), False)

    async def drive_async():
        outcome = None
        try:
            while True:
                leg = steps.send(outcome)
                if type(leg) is Wait:
                    await asyncio.sleep(0)
                outcome = answer(leg)
        except StopIteration as done:
            return done.value

    if driver == "sync":
        outcome = None
        try:
            while True:
                outcome = answer(steps.send(outcome))
        except StopIteration as done:
            report = done.value
    else:
        report = asyncio.run(drive_async())
    return report, log


def run_row(driver, schedule, policy, breaker_spec):
    host = ScriptedHost(sorted({m for m, _ in schedule}), policy,
                        breaker_spec)
    report, log = run_write(driver, host, schedule)
    broken = [h.machine_id for h in host.holders
              if h.state is LeaseState.BROKEN]
    states = {h.machine_id: (host.breaker(h.machine_id).state,
                             host.breaker(h.machine_id).transitions,
                             host.breaker(h.machine_id).consecutive_failures)
              for h in host.holders}
    counts = (report.notified, report.broken, report.attempts,
              report.skipped)
    return counts, dict(log, broken=broken), states


def expected_waits(schedule, policy, breaker_spec, delivered):
    """One backoff per failed attempt short of the budget while the
    breaker still allows, drawn in order from the shared policy
    arithmetic off one seeded stream."""
    threshold, _cooldown, failures = breaker_spec or (NO_TRIP, 0.0, 0)
    rng = random.Random(7)
    streak: dict = {}
    waits = []
    for machine, attempt in delivered:
        if schedule.get((machine, attempt), False):
            continue
        streak[machine] = streak.get(machine, failures) + 1
        if policy is not None and attempt < policy.max_attempts \
                and streak[machine] < threshold:
            waits.append(policy.backoff(attempt, rng))
    return waits


SCHEDULES = [
    # everyone answers first try
    {(0, 1): True, (1, 1): True},
    # holder 0 needs a retry; holder 1 never answers
    {(0, 1): False, (0, 2): True, (1, 1): False},
    # all fail every attempt
    {(0, 1): False, (1, 1): False},
    # mixed: late success on final attempt
    {(0, 1): False, (0, 2): False, (0, 3): True,
     (1, 1): True, (2, 1): False, (2, 2): True},
]
BREAKERS = (2, 10.0, 0)   # threshold 2: a second straight failure trips

#: The one table: (schedule, policy, breaker spec) → pinned
#: ``(notified, broken, attempts, skipped)``.  Every row goes through
#: both drivers.
TABLE = [
    (SCHEDULES[0], POLICY, None, (2, 0, 2, 0)),
    (SCHEDULES[1], POLICY, None, (1, 1, 5, 0)),
    (SCHEDULES[2], POLICY, None, (0, 2, 6, 0)),
    (SCHEDULES[3], POLICY, None, (3, 0, 6, 0)),
    (SCHEDULES[0], POLICY, BREAKERS, (2, 0, 2, 0)),
    (SCHEDULES[1], POLICY, BREAKERS, (1, 1, 4, 0)),
    (SCHEDULES[2], POLICY, BREAKERS, (0, 2, 4, 0)),
    # holder 0's late success is cut short by its tripped breaker
    (SCHEDULES[3], POLICY, BREAKERS, (2, 1, 5, 0)),
    # skip-when-open: cooldown not elapsed, no attempt at all
    ({(0, 1): True}, POLICY, (1, 100.0, 1), (0, 1, 0, 1)),
    # trip-mid-holder: budget of 5, breaker opens after failure 2
    ({(0, 1): False}, LONG, (2, 30.0, 0), (0, 1, 2, 0)),
    # no policy: a single attempt, no backoff
    ({(0, 1): False, (0, 2): True}, None, None, (0, 1, 1, 0)),
    # -- one row per retry / breaker behaviour --------------------------
    # the attempt budget: three tries, then the lease is broken
    ({(0, 1): False}, RetryPolicy(max_attempts=3, base_backoff=0.5,
                                  max_backoff=2.0), None, (0, 1, 3, 0)),
    # no policy, a holder that never answers: one try, then broken
    ({(0, 1): False}, None, None, (0, 1, 1, 0)),
    # a success stops the retries
    ({(0, 1): False, (0, 2): True},
     RetryPolicy(max_attempts=4, base_backoff=0.5, max_backoff=2.0),
     None, (1, 0, 2, 0)),
    # breaker parity with the hop path: two failures trip threshold 2
    ({(0, 1): False}, RetryPolicy(max_attempts=2, base_backoff=0.5,
                                  max_backoff=1.0), (2, 30.0, 0),
     (0, 1, 2, 0)),
    # an open breaker skips every holder behind it, no attempt made
    ({(0, 1): False, (1, 1): False}, LONG, (1, 30.0, 1), (0, 2, 0, 2)),
    # a delivery resets the breaker's failure streak
    ({(0, 1): False, (0, 2): True}, POLICY, (3, 30.0, 0),
     (1, 0, 2, 0)),
]


def check_row(schedule, policy, breaker_spec):
    """Run one table row through both drivers; both must produce the
    pinned report and agree step for step.  Returns the sync run."""
    (expected,) = [report for sched, pol, spec, report in TABLE
                   if (sched, pol, spec) == (schedule, policy,
                                             breaker_spec)]
    sync = run_row("sync", dict(schedule), policy, breaker_spec)
    async_ = run_row("async", dict(schedule), policy, breaker_spec)
    assert sync[0] == expected
    # Same report, same attempts/backoffs/breaks, same breaker state,
    # transitions and failure streak.
    assert async_ == sync
    counts, log, _states = sync
    assert len(log["delivered"]) == counts[2]
    assert len(log["broken"]) == counts[1]
    assert log["waits"] == expected_waits(schedule, policy, breaker_spec,
                                          log["delivered"])
    return sync


class TestEquivalence:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_reports_and_logs_match(self, schedule):
        check_row(schedule, POLICY, None)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_breaker_transitions_match(self, schedule):
        _report, _log, states = check_row(schedule, POLICY, BREAKERS)
        assert set(states) == {m for m, _ in schedule}

    def test_open_breaker_skips_holder_in_both(self):
        report, log, states = check_row({(0, 1): True}, POLICY,
                                        (1, 100.0, 1))
        assert report[3] == report[1] == 1
        assert log["delivered"] == [] and log["waits"] == []
        assert states[0][0] is BreakerState.OPEN

    def test_breaker_tripping_mid_holder_stops_both(self):
        report, log, states = check_row({(0, 1): False}, LONG,
                                        (2, 30.0, 0))
        assert report[2] == 2 < LONG.max_attempts
        assert states[0][0] is BreakerState.OPEN
        # The trip is seen before the backoff: one wait, not two.
        assert len(log["waits"]) == 1

    def test_no_policy_means_single_attempt(self):
        report, log, _states = check_row(
            {(0, 1): False, (0, 2): True}, None, None)
        assert report[2] == 1 and report[1] == 1
        assert log["waits"] == []


class TestRetryAndBreaker:
    """The callback retry drives the same ``RetryPolicy`` arithmetic and
    ``CircuitBreaker`` hooks the walk's hop retry uses."""

    def test_attempts_follow_the_policy_budget(self):
        policy = RetryPolicy(max_attempts=3, base_backoff=0.5,
                             max_backoff=2.0)
        _report, log, _states = check_row({(0, 1): False}, policy, None)
        assert log["broken"] == [0]
        assert len(log["waits"]) == 2     # no backoff after the last try

    def test_backoff_schedule_matches_the_resolver_arithmetic(self):
        policy = RetryPolicy(max_attempts=3, base_backoff=0.5,
                             max_backoff=2.0)
        _report, log, _states = check_row({(0, 1): False}, policy, None)
        rng = random.Random(7)
        assert log["waits"] == [policy.backoff(attempt, rng)
                                for attempt in (1, 2)]

    def test_success_stops_retrying(self):
        policy = RetryPolicy(max_attempts=4, base_backoff=0.5,
                             max_backoff=2.0)
        _report, log, _states = check_row({(0, 1): False, (0, 2): True},
                                          policy, None)
        assert log["broken"] == [] and len(log["waits"]) == 1

    def test_no_policy_means_single_attempt(self):
        report, log, _states = check_row({(0, 1): False}, None, None)
        assert report[2] == 1 and log["broken"] == [0]
        assert log["waits"] == []

    def test_fanout_failures_trip_the_breaker_like_hop_failures(self):
        """The same failure sequence through the fan-out and through
        direct ``record_failure`` calls (the hop path's hook) leaves
        two breakers in identical states."""
        policy = RetryPolicy(max_attempts=2, base_backoff=0.5,
                             max_backoff=1.0)
        report, _log, states = check_row({(0, 1): False}, policy,
                                         (2, 30.0, 0))
        via_hops = CircuitBreaker(failure_threshold=2, cooldown=30.0)
        for _ in range(report[2]):
            via_hops.record_failure(0.0)
        assert via_hops.state is BreakerState.OPEN
        assert states[0] == (via_hops.state, via_hops.transitions,
                             via_hops.consecutive_failures)

    def test_open_breaker_skips_holders_and_breaks_outright(self):
        # No delivery attempts at all: both holders skipped, both
        # leases broken — the escalation an exhausted budget produces.
        _report, log, _states = check_row({(0, 1): False, (1, 1): False},
                                         LONG, (1, 30.0, 1))
        assert log["broken"] == [0, 1] and log["waits"] == []

    def test_breaker_tripping_mid_holder_stops_the_attempt_loop(self):
        # The budget allowed 5 attempts but the breaker opened after
        # failure 2: no more attempts, and no backoff after the trip.
        report, log, states = check_row({(0, 1): False}, LONG,
                                        (2, 30.0, 0))
        assert report[2] == 2 and states[0][0] is BreakerState.OPEN
        assert log["waits"] == [LONG.backoff(1, random.Random(7))]

    def test_delivery_success_resets_the_breaker(self):
        _report, log, states = check_row({(0, 1): False, (0, 2): True},
                                         POLICY, (3, 30.0, 0))
        assert log["broken"] == []
        assert states[0][0] is BreakerState.CLOSED and states[0][2] == 0

    def test_half_open_probe_recovers_after_cooldown(self):
        """Cooldown → half-open → closed, across two rebinds of one
        binding, as for the walk's per-server breakers."""
        policy = RetryPolicy(max_attempts=1, base_backoff=0.5,
                             max_backoff=1.0)
        host = ScriptedHost([0], policy, (1, 5.0, 0))
        run_write("sync", host, {(0, 1): False})
        breaker = host.breaker(0)
        assert breaker.state is BreakerState.OPEN
        host.clock = 6.0                           # past the cooldown
        host.holders = [host.leases.grant(0, host.dep, 6.0, 0,
                                          machine_label="m0")]
        report, _log = run_write("sync", host, {(0, 1): True})
        assert (report.notified, report.broken) == (1, 0)
        assert breaker.state is BreakerState.CLOSED


def with_holder(body, ack_timeout):
    """Run ``body(service, holder, writer, dep)`` over localhost: a
    service whose break callbacks await their ack for *ack_timeout*
    seconds, a holder of the lease on ``/usr`` and a writer."""
    async def scenario():
        root = context_object("root")
        root.state.bind("usr", context_object("usr"))
        service = NamingService(root, ack_timeout=ack_timeout)
        address = await service.start()
        holder, writer = (RemoteNameClient([(address.host, address.port)],
                                           label=label)
                          for label in ("holder", "writer"))
        try:
            await holder.connect()
            await writer.connect()
            dep = holder.dep_for(holder.root, "usr")
            await holder.lease(dep)
            await body(service, holder, writer, dep)
        finally:
            await holder.aclose()
            await writer.aclose()
            await service.aclose()
    asyncio.run(scenario())


class TestAckWaiter:
    """The service's ack wait: a break callback awaits its holder's ack
    under ``(dep, session)`` for ``ack_timeout`` transport seconds."""

    def test_ack_arrives_in_time(self):
        async def body(service, holder, writer, dep):
            report = await writer.rebind(["usr"])
            assert (report["notified"], report["broken"]) == (1, 0)
            assert service.leases.stats()["acks"] == 1
            assert service.late_acks == 0 and not service._awaiting
        with_holder(body, ack_timeout=1.0)

    def test_timeout_is_false_not_raise(self):
        async def body(service, holder, writer, dep):
            holder.endpoint.on_message(lambda endpoint, envelope: None)
            start = writer.transport.now()
            report = await writer.rebind(["usr"])
            assert writer.transport.now() - start >= 0.05
            assert "error" not in report
            assert (report["notified"], report["broken"]) == (0, 1)
            assert service.leases.stats()["breaks"] == 1
            assert not service._awaiting
        with_holder(body, ack_timeout=0.05)

    def test_late_and_unexpected_acks_counted(self):
        async def body(service, holder, writer, dep):
            held = []
            holder.endpoint.on_message(
                lambda endpoint, envelope: held.append(envelope))
            ack = {"lease": {"op": "ack", "dep": dep, "held": True}}

            async def acked(count):
                holder.endpoint.send(holder._ctl_address(), payload=ack)
                for _ in range(100):
                    if service.late_acks == count:
                        return
                    await asyncio.sleep(0.01)

            await acked(1)                  # unsolicited
            report = await writer.rebind(["usr"])
            assert report["broken"] == 1 and len(held) == 1
            await acked(2)                  # late: its wait ran out
            assert service.late_acks == 2
            assert service.leases.stats()["acks"] == 0
        with_holder(body, ack_timeout=0.05)

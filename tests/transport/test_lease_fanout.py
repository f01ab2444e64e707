"""One fan-out core, two drivers.

The bounded-retry callback loop is written once
(``repro.nameservice.leases.fanout_effects``); ``callback_fanout``
executes its effects by blocking, ``callback_fanout_async`` by
awaiting.  Every row of one schedule table is run through both
drivers: each must produce the pinned ``FanoutReport`` and the same
delivery order, backoff draws, broken leases and breaker transitions.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.nameservice.leases import FanoutReport, Lease, callback_fanout
from repro.nameservice.retry import CircuitBreaker, RetryPolicy
from repro.transport.leases import AckWaiter, callback_fanout_async

POLICY = RetryPolicy(max_attempts=3, base_backoff=0.5, max_backoff=4.0)
LONG = RetryPolicy(max_attempts=5, base_backoff=0.5, max_backoff=1.0)


def make_holders(n):
    return [Lease(dep=("binding", 1, f"c{i}"), machine_id=i,
                  granted_at=0.0, expires_at=100.0, epoch=0)
            for i in range(n)]


def make_breakers(spec, schedule):
    """``spec`` is None (no breakers) or ``(threshold, cooldown,
    pre-recorded failures)`` applied to every holder."""
    if spec is None:
        return {}
    threshold, cooldown, failures = spec
    breakers = {}
    for machine_id in {m for m, _ in schedule}:
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 cooldown=cooldown, label=f"b{machine_id}")
        for _ in range(failures):
            breaker.record_failure(0.0)
        breakers[machine_id] = breaker
    return breakers


def run_fanout(driver, schedule, policy, breaker_spec, seed=7):
    """Drive one fan-out over a scripted delivery schedule:
    ``schedule[(machine_id, attempt)]`` is True for success."""
    holders = make_holders(len({m for m, _ in schedule}))
    log = {"delivered": [], "waits": [], "broken": []}
    breakers = make_breakers(breaker_spec, schedule)
    common = dict(
        now=lambda: 0.0, rng=random.Random(seed), retry_policy=policy,
        breaker_for=lambda lease: breakers.get(lease.machine_id),
        on_broken=lambda lease: log["broken"].append(lease.machine_id))

    def outcome(lease, attempt):
        log["delivered"].append((lease.machine_id, attempt))
        return schedule.get((lease.machine_id, attempt), False)

    if driver == "sync":
        report = callback_fanout(holders, deliver=outcome,
                                 wait=log["waits"].append, **common)
    else:
        async def deliver(lease, attempt):
            return outcome(lease, attempt)

        async def wait(delay):
            log["waits"].append(delay)

        report = asyncio.run(callback_fanout_async(
            holders, deliver=deliver, wait=wait, **common))
    states = {m: (b.state, b.transitions, b.consecutive_failures)
              for m, b in breakers.items()}
    return report, log, states


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

#: The one table: (schedule, policy, breaker spec) → pinned report.
#: Every row goes through both drivers.
TABLE = [
    (SCHEDULES[0], POLICY, None, FanoutReport(2, 0, 2, 0)),
    (SCHEDULES[1], POLICY, None, FanoutReport(1, 1, 5, 0)),
    (SCHEDULES[2], POLICY, None, FanoutReport(0, 2, 6, 0)),
    (SCHEDULES[3], POLICY, None, FanoutReport(3, 0, 6, 0)),
    (SCHEDULES[0], POLICY, BREAKERS, FanoutReport(2, 0, 2, 0)),
    (SCHEDULES[1], POLICY, BREAKERS, FanoutReport(1, 1, 4, 0)),
    (SCHEDULES[2], POLICY, BREAKERS, FanoutReport(0, 2, 4, 0)),
    # holder 0's late success is cut short by its tripped breaker
    (SCHEDULES[3], POLICY, BREAKERS, FanoutReport(2, 1, 5, 0)),
    # skip-when-open: cooldown not elapsed, no attempt at all
    ({(0, 1): True}, POLICY, (1, 100.0, 1), FanoutReport(0, 1, 0, 1)),
    # trip-mid-holder: budget of 5, breaker opens after failure 2
    ({(0, 1): False}, LONG, (2, 30.0, 0), FanoutReport(0, 1, 2, 0)),
    # no policy: a single attempt, no backoff
    ({(0, 1): False, (0, 2): True}, None, None,
     FanoutReport(0, 1, 1, 0)),
]


def check_row(schedule, policy, breaker_spec):
    """Run one table row through both drivers; both must produce the
    pinned report and agree step for step.  Returns the sync run."""
    (expected,) = [report for sched, pol, spec, report in TABLE
                   if (sched, pol, spec) == (schedule, policy,
                                             breaker_spec)]
    sync = run_fanout("sync", dict(schedule), policy, breaker_spec)
    async_ = run_fanout("async", dict(schedule), policy, breaker_spec)
    assert sync[0] == expected
    # Same report, same attempts/backoffs/breaks, same breaker state,
    # transitions and failure streak.
    assert async_ == sync
    report, log, _states = sync
    assert len(log["delivered"]) == report.attempts
    assert len(log["broken"]) == report.broken
    # One backoff per failed attempt short of the budget, drawn in
    # order from the shared policy arithmetic off one seeded stream.
    rng = random.Random(7)
    assert log["waits"] == [
        policy.backoff(attempt, rng)
        for machine, attempt in log["delivered"]
        if policy is not None and attempt < policy.max_attempts
        and not schedule.get((machine, attempt), False)]
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
        assert report.skipped == report.broken == 1
        assert log["delivered"] == [] and log["waits"] == []
        assert states[0][0].value == "open"

    def test_breaker_tripping_mid_holder_stops_both(self):
        report, _log, states = check_row({(0, 1): False}, LONG,
                                         (2, 30.0, 0))
        assert report.attempts == 2 < LONG.max_attempts
        assert states[0][0].value == "open"

    def test_no_policy_means_single_attempt(self):
        report, log, _states = check_row(
            {(0, 1): False, (0, 2): True}, None, None)
        assert report.attempts == 1 and report.broken == 1
        assert log["waits"] == []


class TestAckWaiter:
    def test_ack_arrives_in_time(self):
        async def scenario():
            waiter = AckWaiter()
            waiter.expect("k")
            asyncio.get_running_loop().call_soon(waiter.resolve, "k")
            assert await waiter.wait("k", timeout=1.0)
            assert len(waiter) == 0
        asyncio.run(scenario())

    def test_timeout_is_false_not_raise(self):
        async def scenario():
            waiter = AckWaiter()
            waiter.expect("k")
            assert not await waiter.wait("k", timeout=0.01)
        asyncio.run(scenario())

    def test_late_and_unexpected_acks_counted(self):
        async def scenario():
            waiter = AckWaiter()
            assert not waiter.resolve("never-expected")
            waiter.expect("k")
            assert not await waiter.wait("k", timeout=0.01)
            assert not waiter.resolve("k")   # late: future already gone
            assert waiter.late_acks == 2
        asyncio.run(scenario())

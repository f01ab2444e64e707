"""Clock-parameterized retry machinery: regression.

Every caller of a :class:`CircuitBreaker` hands it the time (virtual
seconds on the simulator, wall seconds over sockets).  These tests pin
that (a) the explicit-now state machine is what it was and (b) the
seeded jitter schedule of :class:`RetryPolicy` is unchanged (golden
digests per seed).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.nameservice.retry import BreakerState, CircuitBreaker, RetryPolicy
from repro.sim.kernel import Simulator
from repro.transport.sim import SimTransport

#: sha256 over 32 default-policy backoff draws, 16 hex chars — any
#: change to the jitter math or draw order changes these.
GOLDEN_BACKOFF_DIGESTS = {
    0: "52f602d09e6e7ea7",
    1: "d2f2da6acce2e333",
    7: "b583b832c9380a04",
    42: "396321c1aa3fecf4",
}


def backoff_digest(seed: int) -> str:
    rng = random.Random(seed)
    policy = RetryPolicy()
    draws = [policy.backoff(attempt, rng)
             for _ in range(4) for attempt in range(1, 9)]
    return hashlib.sha256(
        ",".join(f"{draw:.17g}" for draw in draws).encode()
    ).hexdigest()[:16]


class TestJitterDigests:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_BACKOFF_DIGESTS))
    def test_seeded_schedule_unchanged(self, seed):
        assert backoff_digest(seed) == GOLDEN_BACKOFF_DIGESTS[seed]

    def test_kernel_rng_is_the_transport_rng(self):
        """The seam hands the protocol the *kernel's* RNG, so sim
        backoff schedules stay deterministic per kernel seed."""
        simulator = Simulator(seed=3)
        assert SimTransport(simulator).rng is simulator.rng


def drive(breaker, events):
    """Apply (op, time) events; returns the visible outcomes."""
    out = []
    for op, time_ in events:
        if op == "allow":
            out.append(breaker.allow(time_))
        elif op == "fail":
            breaker.record_failure(time_)
        elif op == "ok":
            breaker.record_success(time_)
    out.append((breaker.state, breaker.transitions,
                breaker.consecutive_failures))
    return out


SCRIPT = [("fail", 1.0), ("fail", 2.0), ("allow", 3.0), ("fail", 4.0),
          ("allow", 5.0), ("allow", 40.0), ("fail", 41.0),
          ("allow", 80.0), ("ok", 81.0), ("allow", 82.0)]


class TestClockBinding:
    def test_explicit_now_still_works_without_clock(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=30.0)
        outcome = drive(breaker, SCRIPT)
        assert outcome[-1][0] is BreakerState.CLOSED

"""Retry, backoff and circuit-breaking for the fault-tolerant walk.

The paper's weak-coherence notion (§3) exists because real naming
schemes keep serving names while individual hosts fail; operationally
that requires the resolver to *re-ask* (bounded retries with
exponential backoff), to *stop asking* servers that keep dropping
requests (a per-server circuit breaker), and to *ask someone else*
(replica failover, :mod:`repro.nameservice.placement`).  This module
holds the two policy objects those mechanisms share:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *seeded* jitter over virtual time, so retry schedules are
  deterministic per kernel seed and reproducible run-to-run;
* :class:`CircuitBreaker` — the classic closed → open → half-open
  state machine, trips after consecutive drops, half-opens after a
  cooldown, and publishes every transition through `repro.obs`
  (``circuit_transitions_total{breaker,to}`` plus ``circuit`` trace
  events).

Both are transport-agnostic: :class:`~repro.nameservice.resolver.
DistributedResolver` uses them for its synchronous walk and
:class:`~repro.nameservice.protocol.AsyncNameClient` reuses
:class:`RetryPolicy` for its timeout-driven resends.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.obs.instrument import NO_OBS, Instrumentation

__all__ = ["RetryPolicy", "BreakerState", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Attributes:
        max_attempts: Total attempts per server (1 = no retry).
        base_backoff: Virtual-time wait before the first retry; it
            doubles per further retry.
        max_backoff: Cap on the un-jittered backoff.
        jitter: Fraction of the backoff added as random spread; the
            draw comes from the *kernel's* seeded RNG, so schedules
            are deterministic per seed (never wall-clock random).
    """

    max_attempts: int = 3
    base_backoff: float = 0.5
    max_backoff: float = 8.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise SimulationError("backoff times must be nonnegative")
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The wait before retry *attempt* (1-based count of failures).

        Exponential in *attempt*, capped at :attr:`max_backoff`, with
        up to ``jitter`` fractional spread drawn from *rng* (pass the
        kernel's seeded RNG for reproducible schedules).
        """
        if attempt < 1:
            raise SimulationError("attempt is 1-based")
        raw = min(self.base_backoff * 2.0 ** (attempt - 1),
                  self.max_backoff)
        return raw * (1.0 + self.jitter * rng.random())


class BreakerState(enum.Enum):
    """The circuit breaker's three classic states."""

    CLOSED = "closed"        #: healthy — requests flow
    OPEN = "open"            #: tripped — requests are skipped
    HALF_OPEN = "half_open"  #: cooled down — probing again

    def __str__(self) -> str:
        return self.value


class CircuitBreaker:
    """Per-server failure memory: skip servers that keep dropping.

    Closed while the server answers; trips open after
    ``failure_threshold`` *consecutive* drops (each failed hop counts
    one); an open breaker rejects attempts until ``cooldown`` virtual
    time has passed, then half-opens and lets a probe through — a
    probe failure re-opens it, a success closes it.

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        cooldown: Virtual time an open breaker waits before probing.
        label: Name used in metrics labels and trace events (usually
            the guarded server's process label).
        obs: Instrumentation transitions are published into.
    """

    def __init__(self, failure_threshold: int = 3, cooldown: float = 30.0,
                 label: str = "",
                 obs: Optional[Instrumentation] = None):
        if failure_threshold < 1:
            raise SimulationError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise SimulationError("cooldown must be nonnegative")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.label = label
        self._obs = obs if obs is not None else NO_OBS
        if self._obs.enabled:
            self._m_transitions = self._obs.metrics.counter_family(
                "circuit_transitions_total", "breaker", "to")
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.transitions = 0

    def _transition(self, to: BreakerState, now: float) -> None:
        self.state = to
        self.transitions += 1
        if self._obs.enabled:
            self._m_transitions.labels(self.label or "?",
                                       to.value).inc()
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "circuit", f"{self.label or '?'}→{to}", now,
                    attrs={"breaker": self.label, "to": str(to)})

    def allow(self, now: float) -> bool:
        """May a request be attempted at time *now*?

        An open breaker whose cooldown has elapsed half-opens as a
        side effect (the caller's attempt is the probe).
        """
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.cooldown:
                self._transition(BreakerState.HALF_OPEN, now)
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        """An attempt got through: close and forget past failures."""
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """An attempt was dropped: count it, maybe trip open."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self.opened_at = now
            self._transition(BreakerState.OPEN, now)
        elif (self.state is BreakerState.CLOSED
              and self.consecutive_failures >= self.failure_threshold):
            self.opened_at = now
            self._transition(BreakerState.OPEN, now)

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.label!r} {self.state} "
                f"failures={self.consecutive_failures}>")

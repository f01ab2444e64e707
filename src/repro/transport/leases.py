"""Lease break-callback fan-out over the transport seam.

The bounded-retry delivery loop is written once, as the effect-
yielding generator :func:`repro.nameservice.leases.fanout_effects`.
The simulator's driver *blocks* on each effect by spending virtual
time; a real event loop cannot block, so :func:`callback_fanout_async`
executes the same effects with ``await``
(``tests/transport/test_lease_fanout.py`` runs one schedule table
through both drivers).

:class:`AckWaiter` is the small matching table a real server needs:
break callbacks are fire-and-forget frames, so the deliverer awaits
the holder's ack (matched by ``(dep, session)``) under a wall-clock
deadline — an unacked callback is a failed attempt, exactly like an
undelivered simulator message.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Optional

from repro.nameservice.leases import (Deliver, FanoutReport, Lease,
                                      fanout_effects)
from repro.nameservice.retry import CircuitBreaker, RetryPolicy

__all__ = ["callback_fanout_async", "AckWaiter"]


async def callback_fanout_async(
        holders: list[Lease], *,
        now: Callable[[], float],
        rng,
        deliver: Callable[[Lease, int], Awaitable[bool]],
        retry_policy: Optional[RetryPolicy],
        breaker_for: Callable[[Lease], Optional[CircuitBreaker]],
        on_broken: Callable[[Lease], None],
        wait: Optional[Callable[[float], Awaitable[None]]] = None,
) -> FanoutReport:
    """Drive :func:`~repro.nameservice.leases.fanout_effects` on an
    event loop, awaiting each effect.

    *deliver* is awaited (send the callback, await its ack, return
    True on success); *wait* defaults to :func:`asyncio.sleep`, i.e.
    real backoff seconds.
    """
    if wait is None:
        wait = asyncio.sleep
    steps = fanout_effects(holders, now=now, rng=rng,
                           retry_policy=retry_policy,
                           breaker_for=breaker_for, on_broken=on_broken)
    outcome = None
    try:
        while True:
            effect = steps.send(outcome)
            outcome = await (deliver(effect.lease, effect.attempt)
                             if isinstance(effect, Deliver)
                             else wait(effect.delay))
    except StopIteration as done:
        return done.value


class AckWaiter:
    """Matches awaited acks to ``(key)`` under wall-clock deadlines.

    The deliverer calls :meth:`expect` before sending, then awaits
    :meth:`wait`; the receive path calls :meth:`resolve` when the ack
    frame lands.  Unmatched acks (late, duplicate) are counted, never
    raised — mirroring the protocol's late-reply discipline.
    """

    def __init__(self) -> None:
        self._pending: dict[Any, asyncio.Future] = {}
        self.late_acks = 0

    def expect(self, key: Any) -> None:
        """Await an ack for *key*; a key already awaited shares its
        pending future (two overlapping breaks of one lease are both
        answered by its next ack)."""
        future = self._pending.get(key)
        if future is None or future.done():
            self._pending[key] = asyncio.get_running_loop().create_future()

    async def wait(self, key: Any, timeout: float) -> bool:
        """True if the ack for *key* arrives within *timeout* seconds."""
        future = self._pending.get(key)
        if future is None:  # pragma: no cover - defensive
            return False
        try:
            await asyncio.wait_for(asyncio.shield(future), timeout)
            return True
        except asyncio.TimeoutError:
            return False
        finally:
            if self._pending.get(key) is future:
                del self._pending[key]

    def resolve(self, key: Any) -> bool:
        """Mark *key*'s ack as arrived; False (and counted) if nobody
        is waiting for it."""
        future = self._pending.get(key)
        if future is None or future.done():
            self.late_acks += 1
            return False
        future.set_result(True)
        return True

    def __len__(self) -> int:
        return len(self._pending)

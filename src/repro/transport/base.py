"""The transport seam: the protocol's view of "a network".

The paper's coherence machinery — invalidations, TTLs, leases — is
defined over *messages and timeouts*, not over the simulator we happen
to exercise it on.  This module pins down exactly what the name-lookup
protocol (:mod:`repro.nameservice.protocol`) and the lease
break-callback fan-out consume from their environment, so the same
resolver/retry/lease code runs unchanged on two substrates:

* :class:`~repro.transport.sim.SimTransport` — a thin adapter over the
  deterministic :class:`~repro.sim.kernel.Simulator` kernel (virtual
  time, seeded RNG, pinned event order: the test substrate);
* :class:`~repro.transport.aio.AsyncioTransport` — real asyncio TCP
  sockets over localhost with length-prefixed JSON framing and
  wall-clock timers (the "fast as the hardware allows" substrate).

The seam is four small contracts:

* :class:`Transport` — a clock (``now()``, virtual *or* wall seconds),
  a cancellable timer facility (``schedule``), a seeded RNG for
  backoff jitter, an :class:`~repro.obs.Instrumentation` handle, and
  an endpoint factory.
* :class:`Endpoint` — a named mailbox on a node.  ``send`` is
  non-blocking and returns an :class:`Envelope` immediately so the
  caller can attach trace context before the bytes leave (exactly the
  discipline :meth:`repro.sim.kernel.Simulator.send` established).
* :class:`Envelope` — one in-flight payload.  Its ``sender`` is always
  a valid send target, so request/reply protocols never care what an
  address *is*.
* :class:`Timer` — anything with ``cancel()``.

Deadline semantics: ``schedule(delay, action)`` fires *action* no
earlier than ``now() + delay`` on the transport's own clock.  On the
simulator that is exact virtual time; on asyncio it is the event
loop's monotonic clock, so the same timeout/retry code backs off in
real seconds.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.obs.instrument import Instrumentation

__all__ = ["Timer", "Envelope", "Endpoint", "Transport"]

#: Handler signature installed with :meth:`Endpoint.on_message`.
Handler = Callable[["Endpoint", "Envelope"], None]


@runtime_checkable
class Timer(Protocol):
    """A scheduled action that can be cancelled before it fires."""

    def cancel(self) -> None:  # pragma: no cover - protocol stub
        ...


class Envelope(Protocol):
    """One in-flight payload with reply and trace-context affordances.

    Attributes:
        payload: The message body (arbitrary Python objects on the
            simulator; wire-codable values on a real transport).
        sender: An opaque address the receiving endpoint may pass back
            to :meth:`Endpoint.send` to reply.
        trace_id: Optional trace context, settable by the sender
            *after* ``send`` returns but before delivery.
        parent_span_id: Companion to ``trace_id``.
    """

    payload: Any
    sender: Any
    trace_id: Optional[str]
    parent_span_id: Optional[str]


class Endpoint:
    """A named mailbox on a node; the protocol's send/recv handle.

    Concrete endpoints are created by :meth:`Transport.endpoint`.
    """

    label: str

    def on_message(self, handler: Handler) -> None:
        """Install *handler*; it runs once per delivered envelope,
        from the transport's event loop (kernel pump or asyncio)."""
        raise NotImplementedError

    def send(self, target: Any, payload: Any = None) -> Envelope:
        """Enqueue *payload* toward *target*; never blocks.

        *target* is either another endpoint of the same transport, or
        the ``sender`` address of a received envelope.  How long
        delivery takes is the substrate's to say (the kernel's
        ``default_latency``, the real network).

        Returns the envelope immediately so trace context can be
        attached before the transport serializes it.
        """
        raise NotImplementedError

    @property
    def node(self) -> Any:
        """The node identity this endpoint lives on (a simulator
        :class:`~repro.sim.network.Machine`, or a host/port)."""
        raise NotImplementedError


class Transport:
    """The environment contract shared by both substrates.

    Attributes:
        kind: ``"sim"`` or ``"asyncio"`` — surfaced as the
            ``transport`` label on lookup spans and metrics.
        rng: A seeded :class:`random.Random`; backoff jitter draws
            come from here, so simulator runs stay deterministic per
            seed and real runs are reproducible per configured seed.
        obs: The :class:`~repro.obs.Instrumentation` the protocol
            publishes spans/metrics into (may be the inert ``NO_OBS``).
    """

    kind: str = "abstract"
    rng: random.Random
    obs: Instrumentation

    def now(self) -> float:
        """The transport's clock: virtual time on the simulator,
        monotonic wall seconds on asyncio."""
        raise NotImplementedError

    def schedule(self, delay: float, action: Callable[[], None],
                 note: str = "") -> Timer:
        """Run *action* after *delay* seconds of this clock; returns a
        cancellable :class:`Timer`."""
        raise NotImplementedError

    def endpoint(self, node: Any = None, label: str = "") -> Endpoint:
        """Create an endpoint on *node* named *label*."""
        raise NotImplementedError


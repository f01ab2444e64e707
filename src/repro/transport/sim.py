"""SimTransport: the deterministic substrate behind the seam.

A thin adapter over the existing :class:`~repro.sim.kernel.Simulator`
kernel.  Nothing is re-implemented: endpoints wrap
:class:`~repro.sim.process.SimProcess`, envelopes *are* the kernel's
:class:`~repro.sim.messages.Message` objects (which already carry
``payload``/``sender``/``trace_id``/``parent_span_id``), timers are
:class:`~repro.sim.events.ScheduledEvent` handles, and the clock/RNG
are the kernel's own.  Every existing test therefore keeps pinning
semantics unchanged — same event order, same seeded draws, same
traces — while the protocol above speaks only the transport
vocabulary.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.network import Machine
from repro.sim.process import SimProcess
from repro.transport.base import Endpoint, Handler, Timer, Transport

__all__ = ["SimEndpoint", "SimTransport"]


class SimEndpoint(Endpoint):
    """An endpoint backed by one simulator process."""

    def __init__(self, transport: "SimTransport", process: SimProcess):
        self.transport = transport
        self.process = process
        self.label = process.label

    def on_message(self, handler: Handler) -> None:
        # The kernel hands (process, message); the seam hands
        # (endpoint, envelope).  The Message is the envelope.
        self.process.on_message(
            lambda _process, message: handler(self, message))

    def send(self, target: Any, payload: Any = None) -> Message:
        # Whatever carries a ``process`` — an endpoint, a lookup server
        # that may have respawned — is addressed at its current one.
        receiver = getattr(target, "process", target)
        if not isinstance(receiver, SimProcess):
            raise SimulationError(
                f"SimEndpoint cannot address {target!r}")
        return self.process.send(receiver, payload=payload)

    @property
    def node(self) -> Machine:
        return self.process.machine

    def __repr__(self) -> str:
        return f"<SimEndpoint {self.label!r}>"


class SimTransport(Transport):
    """The simulator kernel seen through the transport seam.

    Args:
        simulator: The kernel to adapt.  The adapter never *runs* the
            kernel — exactly like the async protocol before the seam,
            the caller pumps :meth:`~repro.sim.kernel.Simulator.run`.
    """

    kind = "sim"

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.rng = simulator.rng
        self.obs = simulator.obs

    def now(self) -> float:
        return self.simulator.clock.now

    def schedule(self, delay: float, action: Callable[[], None],
                 note: str = "") -> Timer:
        return self.simulator.schedule(delay, action, note=note)

    def endpoint(self, node: Any = None, label: str = "") -> SimEndpoint:
        """Spawn a fresh process on *node* (a
        :class:`~repro.sim.network.Machine`); :meth:`adopt` wraps one
        that already runs."""
        if not isinstance(node, Machine):
            raise SimulationError(
                f"SimTransport endpoints live on machines, got {node!r}")
        process = self.simulator.spawn(node, label)
        return SimEndpoint(self, process)

    def adopt(self, process: SimProcess) -> SimEndpoint:
        """Wrap an already-spawned process as an endpoint."""
        return SimEndpoint(self, process)

    def __repr__(self) -> str:
        return f"<SimTransport over {self.simulator!r}>"

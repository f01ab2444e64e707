"""Simulated processes — the activities of the distributed substrate.

A :class:`SimProcess` is an :class:`~repro.model.entities.Activity`
living on a :class:`~repro.sim.network.Machine` with a local address.
It has an optional message handler, a mailbox that queues what
arrives while no handler is installed, and a parent link (the
parent/child structure matters to §5.1: "a child inherits the context
of its parent").

Processes do not resolve names themselves — naming schemes associate a
context with each process via a :class:`~repro.closure.meta.ContextRegistry`,
and the closure rule picked by the experiment decides whose context a
received name is resolved in.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.model.entities import Activity
from repro.sim.messages import Message
from repro.sim.network import Machine

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["SimProcess"]

#: A message handler: called as ``handler(process, message)``.
Handler = Callable[["SimProcess", Message], None]


class SimProcess(Activity):
    """A process (activity) in the simulated distributed system."""

    KIND = "process"
    __slots__ = ("machine", "laddr", "parent", "children", "mailbox",
                 "handler", "alive", "_simulator")

    def __init__(self, simulator: "Simulator", machine: Machine,
                 label: str = "", parent: Optional["SimProcess"] = None):
        super().__init__(label)
        self.machine = machine
        self.laddr = machine.allocate_laddr()
        self.parent = parent
        self.children: list[SimProcess] = []
        self.mailbox: deque[Message] = deque()
        self.handler: Optional[Handler] = None
        self.alive = True
        self._simulator = simulator
        machine.add_process(self)
        if parent is not None:
            parent.children.append(self)

    # -- addressing ----------------------------------------------------

    @property
    def full_address(self) -> tuple[int, int, int]:
        """The process's current fully qualified address
        ``(naddr, maddr, laddr)``."""
        return (self.machine.naddr, self.machine.maddr, self.laddr)

    def same_machine(self, other: "SimProcess") -> bool:
        """True if both processes run on the same machine."""
        return self.machine is other.machine

    def same_network(self, other: "SimProcess") -> bool:
        """True if both processes' machines share a network."""
        return self.machine.network is other.machine.network

    # -- messaging -----------------------------------------------------

    def send(self, receiver: "SimProcess", payload=None,
             latency: Optional[float] = None) -> Message:
        """Send a message to *receiver* via the simulator kernel.

        Returns the in-flight :class:`Message`; attach names to it
        before the simulator is next run.
        """
        if not self.alive:
            raise SimulationError(f"dead process {self.label} cannot send")
        return self._simulator.send(self, receiver, payload, latency=latency)

    def deliver(self, message: Message) -> None:
        """Called by the kernel when a message arrives: the handler
        takes it, or, with none installed, the mailbox queues it for
        :meth:`receive` — never both."""
        if self.handler is not None:
            self.handler(self, message)
        else:
            self.mailbox.append(message)

    def receive(self) -> Optional[Message]:
        """Pop the oldest mailbox message, or None if empty."""
        return self.mailbox.popleft() if self.mailbox else None

    def on_message(self, handler: Handler) -> None:
        """Install *handler* to run at each delivery, instead of
        queueing the message in the mailbox."""
        self.handler = handler

    # -- lifecycle -------------------------------------------------------

    def spawn_child(self, machine: Optional[Machine] = None,
                    label: str = "") -> "SimProcess":
        """Create a child process (locally, or remotely on *machine*).

        Remote children are how the paper's remote-execution scenarios
        are driven (§5.1, §6-II); the *naming scheme* decides what
        context the child gets — the kernel only creates it.
        """
        return self._simulator.spawn(machine or self.machine,
                                     label=label, parent=self)

    def exit(self) -> None:
        """Terminate this process; its addresses are not reused."""
        self.alive = False
        self.machine.remove_process(self)

    def __repr__(self) -> str:
        status = "" if self.alive else " dead"
        return (f"<SimProcess {self.label!r} "
                f"@{self.full_address}{status}>")

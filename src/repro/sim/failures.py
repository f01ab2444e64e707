"""Failure and reconfiguration injection.

The paper's §6 Example 1 motivates partially qualified identifiers by
*reconfiguration*: "when the address of a machine or a network is
changed as part of relocation or reconfiguration, pids of local
processes within the renamed machine or network remain valid".  The
injector provides exactly those reconfigurations — machine and network
renumbering — plus the ordinary failure vocabulary used by robustness
tests and the A8 availability ablation: crash, restart (with respawn
hooks so name servers actually come back), partition, heal, and flaky
links (per-link drop probability and latency spikes, all drawn from
the kernel's seeded RNG).

Fault *schedules* are first-class: :meth:`FailureInjector.schedule`
books a single fault at a virtual time and
:meth:`FailureInjector.schedule_timeline` books a whole scripted
timeline, so an experiment declares its disruption scenario up front
and the kernel replays it deterministically.

Every injected event is observable (`repro.obs`): an instrumented
simulator records a ``failure`` span instant and bumps the
``failures_injected_total{kind=...}`` counter, so traces show exactly
where a walk crossed an injected fault.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.network import Machine, Network

__all__ = ["FailureInjector"]


class FailureInjector:
    """Injects failures and reconfigurations into a simulation."""

    #: Fault kinds accepted by :meth:`schedule` / timelines, mapped to
    #: the name of the injector method that applies them.
    TIMELINE_KINDS = {"crash": "crash_machine", "restart": "restart_machine",
                      "partition": "partition", "heal": "heal",
                      "flaky_link": "flaky_link", "steady_link": "steady_link"}

    def __init__(self, simulator: Simulator):
        self._sim = simulator
        # Respawn hooks, run by restart_machine: (machine-or-None, fn).
        # None scopes the hook to every restart.
        self._restart_hooks: list[
            tuple[Optional[Machine], Callable[[Machine], None]]] = []

    def _observe(self, kind: str, name: str, **attrs) -> None:
        obs = self._sim.obs
        if not obs.enabled:
            return
        obs.metrics.counter("failures_injected_total",
                            {"kind": kind}).inc()
        if obs.tracer.admit():
            obs.tracer.event("failure", name, self._sim.clock.now,
                             attrs={"injected": kind, **attrs})

    # -- reconfiguration (the §6 Example 1 events) -----------------------

    def renumber_machine(self, machine: Machine, new_maddr: int) -> None:
        """Change a machine's address on its network.

        Processes on the machine keep running and keep their local
        addresses; only the machine component of fully qualified
        addresses changes.
        """
        old = machine.maddr
        machine.network.renumber_machine(machine, new_maddr)
        self._sim.trace.record(
            self._sim.clock.now, "renumber",
            f"machine {machine.label}: maddr {old} → {new_maddr}")
        self._observe("renumber_machine", machine.label,
                      old=old, new=new_maddr)

    def renumber_network(self, network: Network, new_naddr: int) -> None:
        """Change a network's address in the internetwork."""
        old = network.naddr
        self._sim.internet.renumber(network, new_naddr)
        self._sim.trace.record(
            self._sim.clock.now, "renumber",
            f"network {network.label}: naddr {old} → {new_naddr}")
        self._observe("renumber_network", network.label,
                      old=old, new=new_naddr)

    # -- failures -----------------------------------------------------------

    def crash_machine(self, machine: Machine) -> None:
        """Take a machine down: its processes die, messages to it drop.

        Crashing a machine that is already down raises
        :class:`~repro.errors.SimulationError` — a double crash in a
        hand-written scenario is almost always a scripting bug worth
        surfacing.  (Timeline-scheduled crashes are pre-validated, not
        silenced.)
        """
        if not machine.alive:
            raise SimulationError(f"{machine.label} is already down")
        machine.alive = False
        for process in machine.processes():
            process.alive = False
        self._sim.trace.record(self._sim.clock.now, "failure",
                               f"crash {machine.label}")
        self._observe("crash", machine.label)

    def on_restart(self, hook: Callable[[Machine], None],
                   machine: Optional[Machine] = None) -> None:
        """Register a respawn hook run by :meth:`restart_machine`.

        The hook receives the restarted machine *after* it is marked
        alive, so it can respawn server processes and re-install their
        handlers (e.g. ``injector.on_restart(resolver.handle_restart)``
        revives directory servers and runs anti-entropy;
        :meth:`~repro.nameservice.protocol.NameLookupServer.respawn`
        does the same for the async protocol).  Pass *machine* to
        scope the hook to one machine; the default fires on every
        restart.  Hooks run in registration order.
        """
        self._restart_hooks.append((machine, hook))

    def restart_machine(self, machine: Machine) -> None:
        """Bring a machine back up and run its respawn hooks.

        Dead processes stay dead — a crash loses process state — but
        registered :meth:`on_restart` hooks run here so services can
        re-register fresh processes with their handlers.  Idempotent:
        restarting a machine that is already up does nothing (no
        hooks, no trace event).
        """
        if machine.alive:
            return
        machine.alive = True
        self._sim.trace.record(self._sim.clock.now, "repair",
                               f"restart {machine.label}")
        self._observe("restart", machine.label)
        for scope, hook in self._restart_hooks:
            if scope is None or scope is machine:
                hook(machine)

    def partition(self, first: Network, second: Network) -> bool:
        """Partition two networks (delegates to the kernel).

        Idempotent: re-partitioning an already-severed pair is a no-op
        (nothing traced or counted twice).  Returns True if the link
        state changed.
        """
        if not self._sim.partition(first, second):
            return False
        self._observe("partition", f"{first.label}⇹{second.label}")
        return True

    def heal(self, first: Network, second: Network) -> bool:
        """Heal a partition (delegates to the kernel).

        Idempotent: healing an unpartitioned pair is a no-op.  Returns
        True if the link state changed.
        """
        if not self._sim.heal(first, second):
            return False
        self._observe("heal", f"{first.label}⇄{second.label}")
        return True

    def flaky_link(self, first: Network, second: Network,
                   drop_prob: float, extra_latency: float = 0.0) -> None:
        """Degrade a link: drop messages with seeded probability
        *drop_prob* and add up to *extra_latency* of seeded latency
        spike per message (delegates to the kernel; replaces any
        previous flakiness on the pair)."""
        self._sim.set_flaky_link(first, second, drop_prob, extra_latency)
        self._observe("flaky_link", f"{first.label}~{second.label}",
                      drop_prob=drop_prob, extra_latency=extra_latency)

    def steady_link(self, first: Network, second: Network) -> bool:
        """Restore a flaky link to lossless (idempotent).  Returns
        True if the link was flaky before."""
        if not self._sim.clear_flaky_link(first, second):
            return False
        self._observe("steady_link", f"{first.label}~{second.label}")
        return True

    # -- scripted fault schedules ------------------------------------------

    def schedule(self, time: float, kind: str, *args) -> None:
        """Book one fault to fire at virtual *time*.

        *kind* is one of :data:`TIMELINE_KINDS`; *args* are the
        positional arguments of the matching injector method, e.g.
        ``schedule(10.0, "crash", machine)`` or
        ``schedule(25.0, "flaky_link", lan, wan, 0.3, 2.0)``.  The
        fault is applied by the kernel's event queue when the run
        reaches *time* — resolutions in flight simply cross it.
        """
        if kind not in self.TIMELINE_KINDS:
            raise SimulationError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{', '.join(self.TIMELINE_KINDS)}")
        method = getattr(self, self.TIMELINE_KINDS[kind])
        delay = time - self._sim.clock.now
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {kind} in the past "
                f"(t={time:g} < now={self._sim.clock.now:g})")
        self._sim.schedule(delay, lambda: method(*args),
                           note=f"fault {kind} @{time:g}")

    def schedule_timeline(
            self, timeline: Iterable[Sequence]) -> int:
        """Book a whole scripted fault timeline.

        *timeline* is an iterable of ``(time, kind, *args)`` tuples —
        the declarative form of a disruption scenario::

            injector.schedule_timeline([
                (10.0, "crash", machine_b),
                (40.0, "restart", machine_b),
                (60.0, "partition", lan, wan),
                (90.0, "heal", lan, wan),
            ])

        Entries may be listed in any order (the event queue sorts by
        time).  Returns the number of faults booked.
        """
        booked = 0
        for entry in timeline:
            time, kind, *args = entry
            self.schedule(time, kind, *args)
            booked += 1
        return booked

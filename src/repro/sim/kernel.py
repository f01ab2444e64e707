"""The simulator kernel: deterministic discrete-event execution.

:class:`Simulator` owns the clock, the event queue, the topology
(:class:`~repro.sim.network.Internetwork`), the global state σ of all
simulated entities, a seeded RNG, and the trace log.  It provides the
few primitives every experiment builds on: create networks/machines,
spawn processes, send messages with (deterministic) latency, schedule
arbitrary actions, and run.

Message delivery honours the failure state maintained by
:class:`~repro.sim.failures.FailureInjector` (crashed machines,
network partitions, flaky links with seeded drop probability and
latency spikes).

Hot-path notes (see ``docs/performance.md``): :meth:`Simulator.send`
pushes each delivery onto the event queue's heap as a bare message (no
handle, no closure); each send, deliver and drop record is one packed
row of the trace log, its detail formatted only when read — so the log
keeps no message alive and the cyclic collector never rescans it;
:meth:`Simulator.run` and :meth:`Simulator.run_until_settled` — the
pump every request/reply hop pays for — are two entry points of one
loop that pops the heap inline.  Every event order — and therefore
every seeded run — is bit-for-bit identical to the unoptimized kernel
(pinned by ``tests/sim/test_determinism_golden.py``).  With instrumentation on,
the kernel counts messages and events as plain ints and publishes them
into the metrics registry once per pump, when it returns or raises.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.model.state import GlobalState
from repro.obs.instrument import NO_OBS, Instrumentation
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.messages import Message
from repro.sim.network import Internetwork, Machine, Network
from repro.sim.process import SimProcess
from repro.sim.trace import DELIVER, DROP, SEND, TraceLog

__all__ = ["Simulator"]


class Simulator:
    """A deterministic message-passing distributed-system simulator.

    Args:
        seed: Seed for the kernel RNG; identical seeds yield identical
            runs (event order, latencies, workload draws).
        default_latency: Message latency when the sender passes none.
        obs: Optional :class:`~repro.obs.Instrumentation` the kernel
            (and everything built on it) publishes spans and metrics
            into; defaults to the inert :data:`~repro.obs.NO_OBS`, so
            un-instrumented runs pay ~zero observability cost.

    >>> sim = Simulator(seed=7)
    >>> net = sim.network("lan")
    >>> a = sim.spawn(sim.machine(net, label="alpha"), label="client")
    >>> b = sim.spawn(sim.machine(net, label="beta"), label="server")
    >>> _ = a.send(b, payload="ping")
    >>> sim.run()
    1
    >>> b.receive().payload
    'ping'
    """

    def __init__(self, seed: int = 0, default_latency: float = 1.0,
                 obs: Optional[Instrumentation] = None):
        self.obs = obs if obs is not None else NO_OBS
        # Resolved once: the kernel's NO_OBS guard is a single local
        # attribute load instead of two chained ones per emission.
        self._obs_on = self.obs.enabled
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.sigma = GlobalState()
        self.internet = Internetwork()
        # The recorder is bound once — replacing ``sim.trace`` mid-run
        # is unsupported.
        self.trace = TraceLog()
        self._record = self.trace.record
        self.default_latency = float(default_latency)
        self._partitions: set[frozenset[int]] = set()
        # Link pair → (drop probability, max extra latency); seeded
        # draws happen at send/deliver time (see FailureInjector).
        self._flaky_links: dict[frozenset[int], tuple[float, float]] = {}
        # Per-simulator message ids keep traces reproducible run-to-run.
        self._message_ids = itertools.count(1)
        # Boundary gateways (see repro.closure.boundary): each gets to
        # rewrite a message's name attachments at delivery time.
        self._gateways: list[Any] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        # The message totals already published (sent, delivered,
        # dropped); see _flush_message_counters.
        self._flushed_msgs = [0, 0, 0]
        if self._obs_on:
            # Instrument handles are resolved once — the hot paths
            # below never pay a registry lookup.
            metrics = self.obs.metrics
            self._m_sent = metrics.counter("sim_messages_sent_total")
            self._m_delivered = metrics.counter(
                "sim_messages_delivered_total")
            self._m_dropped = metrics.counter(
                "sim_messages_dropped_total")
            self._m_events = metrics.counter(
                "sim_events_processed_total")
            self._g_queue = metrics.gauge("sim_event_queue_depth")

    # -- topology --------------------------------------------------------

    def network(self, label: str = "",
                naddr: Optional[int] = None) -> Network:
        """Create a network."""
        network = Network(self.internet, naddr=naddr, label=label)
        self.trace.record(self.clock.now, "topology",
                          f"network {network.label} naddr={network.naddr}")
        return network

    def machine(self, network: Network, label: str = "",
                maddr: Optional[int] = None) -> Machine:
        """Create a machine on *network*."""
        machine = Machine(network, maddr=maddr, label=label)
        self.trace.record(self.clock.now, "topology",
                          f"machine {machine.label} maddr={machine.maddr}")
        return machine

    def spawn(self, machine: Machine, label: str = "",
              parent: Optional[SimProcess] = None) -> SimProcess:
        """Create a process on *machine*, registered in σ."""
        if not machine.alive:
            raise SimulationError(f"machine {machine.label} is down")
        process = SimProcess(self, machine, label=label, parent=parent)
        self.sigma.add(process)
        detail = f"{process.label} @{process.full_address}"
        if parent is not None and parent.label:
            detail += f" child-of {parent.label}"
        self.trace.record(self.clock.now, "spawn", detail)
        return process

    # -- partitions (used by FailureInjector) ------------------------------

    def partition(self, first: Network, second: Network) -> bool:
        """Sever message delivery between two networks.

        Idempotent: partitioning an already-severed pair changes
        nothing.  Returns True if the link state changed.
        """
        key = frozenset((id(first), id(second)))
        if key in self._partitions:
            return False
        self._partitions.add(key)
        self.trace.record(self.clock.now, "failure",
                          f"partition {first.label} ⇹ {second.label}")
        return True

    def heal(self, first: Network, second: Network) -> bool:
        """Restore delivery between two networks.

        Idempotent: healing an unpartitioned pair changes nothing.
        Returns True if the link state changed.
        """
        key = frozenset((id(first), id(second)))
        if key not in self._partitions:
            return False
        self._partitions.discard(key)
        self.trace.record(self.clock.now, "repair",
                          f"heal {first.label} ⇄ {second.label}")
        return True

    def partitioned(self, first: Network, second: Network) -> bool:
        """True if the two networks are currently partitioned."""
        return frozenset((id(first), id(second))) in self._partitions

    # -- flaky links (used by FailureInjector) -----------------------------

    def set_flaky_link(self, first: Network, second: Network,
                       drop_prob: float,
                       extra_latency: float = 0.0) -> None:
        """Degrade the link between two networks (lossy, slow).

        Every message crossing the link is dropped with probability
        *drop_prob* (drawn from the kernel's seeded RNG — deterministic
        per seed) and, when delivered, delayed by up to
        *extra_latency* additional virtual time (also a seeded draw).
        Pass the same network twice to degrade intra-network traffic.
        Replaces any previous flakiness on the pair.
        """
        if not 0.0 <= drop_prob <= 1.0:
            raise SimulationError("drop_prob must be in [0, 1]")
        if extra_latency < 0:
            raise SimulationError("extra_latency must be nonnegative")
        self._flaky_links[frozenset((id(first), id(second)))] = (
            drop_prob, extra_latency)
        self.trace.record(
            self.clock.now, "failure",
            f"flaky link {first.label} ~ {second.label} "
            f"p={drop_prob:g} +{extra_latency:g}")

    def clear_flaky_link(self, first: Network, second: Network) -> bool:
        """Restore the link to lossless/no-spike (idempotent).

        Returns True if the link was flaky before.
        """
        key = frozenset((id(first), id(second)))
        if self._flaky_links.pop(key, None) is None:
            return False
        self.trace.record(self.clock.now, "repair",
                          f"steady link {first.label} ~ {second.label}")
        return True

    def link_flakiness(self, first: Network,
                       second: Network) -> tuple[float, float]:
        """Current ``(drop_prob, extra_latency)`` of a link pair
        (``(0.0, 0.0)`` when the link is healthy)."""
        return self._flaky_links.get(
            frozenset((id(first), id(second))), (0.0, 0.0))

    # -- messaging ---------------------------------------------------------

    def send(self, sender: SimProcess, receiver: SimProcess,
             payload: Any = None,
             latency: Optional[float] = None) -> Message:
        """Enqueue a message for delivery after *latency* time units.

        The message object is returned immediately so callers can add
        name attachments; the kernel captures the attachment list only
        at delivery time, so attachments added before :meth:`run` are
        carried.
        """
        if latency is None:
            latency = self.default_latency
        if latency < 0:
            raise SimulationError("latency must be nonnegative")
        if self._flaky_links:
            _prob, spike = self.link_flakiness(
                sender.machine.network, receiver.machine.network)
            if spike > 0:
                latency += self.rng.random() * spike
        now = self.clock._now
        deliver_time = now + latency
        # The one place a Message is built, field by field: the
        # kernel's hottest allocation pays no constructor frame.
        # Every name in Message.__slots__ is set here.
        message = Message.__new__(Message)
        message.sender = sender
        message.receiver = receiver
        message.payload = payload
        message.attachments = []
        message.send_time = now
        message.deliver_time = deliver_time
        message.msg_id = next(self._message_ids)
        message.delivered = False
        message.dropped = False
        message.drop_reason = ""
        message.trace_id = None
        message.parent_span_id = None
        self.messages_sent += 1
        # The message itself is the queue payload: no delivery
        # closure, no handle — the pumps dispatch Message entries
        # straight to _deliver.
        queue = self.queue
        heappush(queue._heap, (deliver_time, next(queue._seq), message))
        queue._live += 1
        self._record(now, "send", (SEND, sender.label, receiver.label,
                                   message.msg_id))
        return message

    def _deliver(self, message: Message) -> None:
        receiver = message.receiver
        if not receiver.machine.alive:
            message.dropped = True
            message.drop_reason = "receiver machine down"
        elif self._partitions and self.partitioned(
                message.sender.machine.network, receiver.machine.network):
            message.dropped = True
            message.drop_reason = "network partition"
        elif self._flaky_links:
            drop_prob, _spike = self.link_flakiness(
                message.sender.machine.network, receiver.machine.network)
            if drop_prob > 0 and self.rng.random() < drop_prob:
                message.dropped = True
                message.drop_reason = "flaky link"
        # Tested last so the flaky link's seeded draw stays in order:
        # a process that exited, or died with a machine that has since
        # restarted, is gone.
        if not (message.dropped or receiver.alive):
            message.dropped = True
            message.drop_reason = "receiver dead"
        if message.dropped:
            self.messages_dropped += 1
            self._record(self.clock._now, "drop",
                         (DROP, message.msg_id, message.drop_reason))
            if self._obs_on and message.trace_id is not None \
                    and self.obs.tracer.admit(message.trace_id):
                self.obs.tracer.event(
                    "drop", f"msg#{message.msg_id}", self.clock.now,
                    trace_id=message.trace_id,
                    parent_span_id=message.parent_span_id,
                    attrs={"receiver": receiver.label,
                           "reason": message.drop_reason})
            return
        self.messages_delivered += 1
        message.delivered = True
        if self._gateways:
            for gateway in self._gateways:
                gateway.process(message)
        self._record(self.clock._now, "deliver",
                     (DELIVER, message.msg_id, receiver.label))
        receiver.deliver(message)
        if self._obs_on and message.trace_id is not None \
                and self.obs.tracer.admit(message.trace_id):
            # While the hop that sent the message is still the
            # tracer's active span (a resolver pumping its own leg),
            # the instant inherits that trace's sampling verdict
            # instead of re-deriving it from the id.
            self.obs.tracer.event(
                "deliver", f"msg#{message.msg_id}", self.clock._now,
                trace_id=message.trace_id,
                parent_span_id=message.parent_span_id,
                attrs={"receiver": receiver.label})

    def add_gateway(self, gateway: Any) -> None:
        """Install a boundary gateway; its ``process(message)`` hook
        runs on every delivered message, in installation order (see
        :class:`repro.closure.boundary.BoundaryGateway`)."""
        self._gateways.append(gateway)
        self.trace.record(
            self.clock.now, "topology",
            f"gateway {getattr(gateway, 'label', '?')} installed")

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None],
                 note: str = "") -> ScheduledEvent:
        """Run *action* after *delay* time units."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past")
        return self.queue.push(self.clock._now + delay, action, note=note)

    # -- execution -------------------------------------------------------------

    def run_until_settled(self, messages, max_events: int = 1_000_000) -> int:
        """Pump events, in order, until given messages are delivered
        or dropped.

        This is the kernel fast path for request/reply protocols: a
        sender waiting on its own message(s) no longer pays for
        draining every other outstanding event in the system — only
        events up to the settling of *messages* run, and anything
        scheduled later stays queued.  Event order (and therefore
        determinism) is identical to :meth:`run`; the pump merely
        stops earlier.

        Args:
            messages: One :class:`~repro.sim.messages.Message` or an
                iterable of them.
            max_events: Safety bound on processed events.

        Returns:
            The number of events processed.
        """
        if isinstance(messages, Message):
            return self._pump((messages,), None, max_events)
        return self._pump(tuple(messages), None, max_events)

    def run(self, until: Optional[float] = None,
            max_events: int = 1_000_000) -> int:
        """Process events, in ``(time, seq)`` order, until the queue
        empties (or bounds are hit).

        Args:
            until: Stop before events later than this time (they stay
                queued).
            max_events: Safety bound on processed events; reaching it
                raises.

        Returns:
            The number of events processed.
        """
        processed = self._pump(None, until, max_events)
        if until is not None and self.clock._now < until:
            self.clock.advance_to(until)
        return processed

    def _pump(self, pending: Optional[tuple], until: Optional[float],
              max_events: int) -> int:
        """The one event loop: dispatch events in ``(time, seq)``
        order until every *pending* message has settled (None: never),
        the next event is later than *until* (it goes back), or the
        queue is exhausted; raise at *max_events*."""
        processed = 0
        queue = self.queue
        advance_to = self.clock.advance_to
        deliver = self._deliver
        heap = queue._heap
        single = pending[0] if pending and len(pending) == 1 else None
        try:
            # The settled predicate is re-checked per event: a timer
            # action (e.g. a crash) can settle a message too.
            while True:
                if single is not None:
                    if single.delivered or single.dropped:
                        break
                elif pending is not None and all(
                        message.delivered or message.dropped
                        for message in pending):
                    break
                if processed >= max_events:
                    raise SimulationError(
                        f"{'run' if pending is None else 'run_until_settled'}"
                        f" exceeded max_events={max_events}; likely a livelock")
                # EventQueue.pop, inlined: calling it per event
                # cost 1-2 % of sim-zipf-sharded's ops/s over alternating
                # pairs (docs/performance.md).  compact() rebuilds the
                # heap in place, so this alias survives a mid-pump one.
                while heap:
                    entry = heappop(heap)
                    item = entry[2]
                    if type(item) is ScheduledEvent:
                        if item.cancelled:
                            queue._cancelled -= 1
                            continue
                        item._queue = None
                    queue._live -= 1
                    break
                else:
                    break  # exhausted; undeliverable messages stay unsettled
                if until is not None and entry[0] > until:
                    queue._unpop(entry)
                    break
                advance_to(entry[0])
                if type(item) is Message:
                    deliver(item)
                else:
                    item.action()
                processed += 1
        finally:
            if self._obs_on and processed:
                self._m_events.inc(processed)
                self._flush_message_counters()
        return processed

    def _flush_message_counters(self) -> None:
        """Reconcile the per-message counters from the plain-int
        totals and read the queue depth — the kernel's one way to
        publish them, at the end of each pump, returned or raised."""
        flushed = self._flushed_msgs
        sent = self.messages_sent
        delivered = self.messages_delivered
        dropped = self.messages_dropped
        if sent > flushed[0]:
            self._m_sent.inc(sent - flushed[0])
            flushed[0] = sent
        if delivered > flushed[1]:
            self._m_delivered.inc(delivered - flushed[1])
            flushed[1] = delivered
        if dropped > flushed[2]:
            self._m_dropped.inc(dropped - flushed[2])
            flushed[2] = dropped
        self._g_queue.set(self.queue.approx_len())

    def __repr__(self) -> str:
        return (f"<Simulator t={self.clock.now:g} "
                f"sent={self.messages_sent} "
                f"delivered={self.messages_delivered} "
                f"dropped={self.messages_dropped}>")

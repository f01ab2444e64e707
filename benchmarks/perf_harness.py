"""Wall-clock performance harness for the simulator hot path.

Unlike the pytest-benchmark micro benches (``bench_micro_core.py``),
which measure *relative* per-call cost inside one pytest run, this
harness produces a **persistent perf trajectory**: named scenarios are
timed under ``time.perf_counter`` and written to ``BENCH_<pr>.json``
at the repo root (schema: bench name -> ``{wall_s, events_per_s,
messages_per_s, peak_heap_depth}``), so speedups and regressions are
visible *across* PRs, not just within one.

Scenarios come in two flavours:

* **kernel scenarios** drive the :class:`~repro.sim.kernel.Simulator`
  directly and report exact event/message counts and the peak event
  heap depth;
* **experiment scenarios** wrap the A7/A8/A9 reproduction experiments
  and report wall time only (their kernels are internal), with the
  rate fields null.

Every scenario is deterministic (fixed seeds); wall time is the only
non-deterministic output.  Use ``tools/bench_perf.py`` to run the
suite from the command line and manage baselines/regression gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.kernel import Simulator

__all__ = ["ScenarioStats", "SCENARIOS", "SMOKE_SCENARIOS",
           "run_scenario", "run_suite", "calibrate"]


@dataclass
class ScenarioStats:
    """Counts one scenario run reports back to the timer."""

    events: Optional[int] = None
    messages: Optional[int] = None
    peak_heap_depth: Optional[int] = None


#: name -> scenario callable ``(scale: float) -> ScenarioStats``.
SCENARIOS: dict[str, Callable[[float], ScenarioStats]] = {}

#: The cheap subset CI smoke runs (kernel paths + one experiment).
SMOKE_SCENARIOS = ("kernel_message_throughput", "kernel_same_instant_fanout",
                   "kernel_timers_with_cancellation", "obs_overhead_no_obs",
                   "obs_overhead_sampled", "obs_overhead_full",
                   "a7_batch_resolution", "a10_sharding",
                   "a11_shard_faults")


def scenario(name: str):
    def register(fn: Callable[[float], ScenarioStats]):
        SCENARIOS[name] = fn
        return fn
    return register


def _scaled(base: int, scale: float, floor: int = 10) -> int:
    return max(floor, int(base * scale))


# -- kernel scenarios ------------------------------------------------------

def _message_workload(count: int, obs=None) -> ScenarioStats:
    """The message-throughput loop: 8 processes round-robining *count*
    messages, drained in one :meth:`Simulator.run` — shared by the
    throughput scenario and the ``obs_overhead_*`` family so the
    instrumentation comparison times byte-identical workloads."""
    simulator = Simulator(seed=1, obs=obs)
    network = simulator.network("lan")
    processes = [simulator.spawn(simulator.machine(network), f"p{i}")
                 for i in range(8)]
    for index in range(count):
        sender = processes[index % 8]
        receiver = processes[(index + 3) % 8]
        sender.send(receiver, payload=index)
    peak = simulator.queue.approx_len()
    processed = simulator.run(max_events=count + 1)
    assert simulator.messages_delivered == count
    return ScenarioStats(events=processed,
                         messages=simulator.messages_delivered,
                         peak_heap_depth=peak)


@scenario("kernel_message_throughput")
def kernel_message_throughput(scale: float = 1.0) -> ScenarioStats:
    """The ``bench_micro_core.test_kernel_message_throughput`` loop at
    harness scale."""
    return _message_workload(_scaled(20_000, scale))


@scenario("obs_overhead_no_obs")
def obs_overhead_no_obs(scale: float = 1.0) -> ScenarioStats:
    """Instrumentation overhead baseline: the throughput workload on
    the NO_OBS singleton (same numbers as
    ``kernel_message_throughput``, recorded separately so the
    ``obs_overhead_*`` triple is self-contained in the JSON)."""
    return _message_workload(_scaled(20_000, scale))


@scenario("obs_overhead_sampled")
def obs_overhead_sampled(scale: float = 1.0) -> ScenarioStats:
    """The throughput workload under *sampled* instrumentation: a
    :class:`~repro.obs.trace.SpanSampler` keeps ~5% of traces, and the
    kernel defers per-message counter emission to an end-of-run flush
    (``_flush_message_counters``) — the kernel-only reading of the
    one obs budget (sampled ≤ 1.05× of ``obs_overhead_no_obs``; see
    docs/observability.md, "Span sampling", for the resolver path)."""
    from repro.obs.instrument import Instrumentation
    from repro.obs.trace import SpanSampler

    obs = Instrumentation(max_spans=4096,
                          sampler=SpanSampler(rate=0.05, seed=1))
    stats = _message_workload(_scaled(20_000, scale), obs=obs)
    sent = obs.metrics.counter("sim_messages_sent_total")
    assert sent.value == stats.messages, (sent.value, stats.messages)
    return stats


@scenario("obs_overhead_full")
def obs_overhead_full(scale: float = 1.0) -> ScenarioStats:
    """The throughput workload under full (unsampled) instrumentation
    — every message increments its counters inline; the historical
    ~1.5× configuration the sampling seam exists to avoid."""
    from repro.obs.instrument import Instrumentation

    obs = Instrumentation(max_spans=4096)
    return _message_workload(_scaled(20_000, scale), obs=obs)


@scenario("kernel_same_instant_fanout")
def kernel_same_instant_fanout(scale: float = 1.0) -> ScenarioStats:
    """A broadcast burst: every message lands at the same instant, so
    the whole run is one giant same-time dispatch batch."""
    fanout = _scaled(64, scale, floor=8)
    rounds = _scaled(200, scale)
    simulator = Simulator(seed=2)
    network = simulator.network("lan")
    machine = simulator.machine(network)
    root = simulator.spawn(machine, "root")
    sinks = [simulator.spawn(machine, f"sink{i}") for i in range(fanout)]
    peak = 0
    for _ in range(rounds):
        for sink in sinks:
            root.send(sink, payload="tick", latency=1.0)
        peak = max(peak, simulator.queue.approx_len())
        simulator.run()
    expected = fanout * rounds
    assert simulator.messages_delivered == expected
    return ScenarioStats(events=expected, messages=expected,
                         peak_heap_depth=peak)


@scenario("kernel_timers_with_cancellation")
def kernel_timers_with_cancellation(scale: float = 1.0) -> ScenarioStats:
    """Schedule a dense timer wheel and cancel half of it, exercising
    the cancelled-event bookkeeping (and, post-optimization, heap
    compaction) rather than message delivery."""
    count = _scaled(20_000, scale)
    simulator = Simulator(seed=3)
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    events = [simulator.schedule(1.0 + (index % 97) * 0.25, tick)
              for index in range(count)]
    peak = simulator.queue.approx_len()
    for index, event in enumerate(events):
        if index % 2:
            event.cancel()
    processed = simulator.run()
    live = count - count // 2
    assert fired[0] == live, (fired[0], live)
    return ScenarioStats(events=processed, messages=0,
                         peak_heap_depth=peak)


@scenario("kernel_request_reply")
def kernel_request_reply(scale: float = 1.0) -> ScenarioStats:
    """A synchronous request/reply protocol over
    :meth:`Simulator.run_until_settled` — the resolver-style bounded
    pump, one round trip at a time."""
    rounds = _scaled(4_000, scale)
    simulator = Simulator(seed=4)
    network = simulator.network("lan")
    client = simulator.spawn(simulator.machine(network), "client")
    server = simulator.spawn(simulator.machine(network), "server")

    def reply(process, message) -> None:
        process.send(message.sender, payload=("re", message.payload))

    server.on_message(reply)
    processed = 0
    peak = 0
    for index in range(rounds):
        request = client.send(server, payload=index)
        processed += simulator.run_until_settled(request)
        peak = max(peak, simulator.queue.approx_len())
    simulator.run()  # drain replies still in flight
    assert simulator.messages_delivered == 2 * rounds
    return ScenarioStats(events=2 * rounds, messages=2 * rounds,
                         peak_heap_depth=peak)


# -- transport scenarios (real seconds, localhost sockets) -----------------

def _transport_lookup_workload(lookups: int, *, replicas: int = 1,
                               closed_loop: bool = True) -> ScenarioStats:
    """Lookups/s over real localhost TCP through ``NamingService`` /
    ``RemoteNameClient`` — the same protocol code the simulator
    drives, measured in wall seconds.

    *closed_loop* issues one lookup at a time per client (latency
    bound); open loop launches the whole batch concurrently
    (pipelining bound).  *replicas* > 1 starts that many identical
    services and splits the stream across one client per replica —
    aggregate throughput at replication degree *replicas*.  Unlike the
    kernel scenarios these numbers include real syscalls and scheduler
    jitter; they are trajectory data, not a regression gate.
    """
    import asyncio

    from repro.model.context import context_object
    from repro.model.entities import ObjectEntity
    from repro.transport.service import NamingService, RemoteNameClient

    leaves = 64

    def build_tree():
        root = context_object("root")
        svc = context_object("svc")
        root.state.bind("svc", svc)
        for index in range(leaves):
            svc.state.bind(f"name-{index}", ObjectEntity(f"object-{index}"))
        return root

    names = [f"/svc/name-{index % leaves}" for index in range(lookups)]
    shards = [names[start::replicas] for start in range(replicas)]

    async def scenario() -> None:
        services, clients = [], []
        try:
            for index in range(replicas):
                service = NamingService(build_tree(), seed=index,
                                        label=f"lookupd{index}")
                address = await service.start()
                services.append(service)
                client = RemoteNameClient(
                    [(address.host, address.port)], seed=index,
                    timeout=30.0, label=f"bench-client-{index}")
                await client.connect()
                clients.append(client)

            async def drive(client, todo):
                if closed_loop:
                    for name in todo:
                        outcome = await client.resolve(name)
                        assert outcome.ok, name
                else:
                    outcomes = await asyncio.gather(
                        *(client.resolve(name) for name in todo))
                    assert all(o.ok for o in outcomes)

            await asyncio.gather(*(drive(client, shard)
                                   for client, shard in
                                   zip(clients, shards)))
        finally:
            for client in clients:
                await client.aclose()
            for service in services:
                await service.aclose()

    asyncio.run(scenario())
    return ScenarioStats(events=lookups, messages=lookups)


@scenario("transport_closed_loop_degree1")
def transport_closed_loop_degree1(scale: float = 1.0) -> ScenarioStats:
    """Serial lookups over one localhost service: ``events_per_s`` is
    closed-loop lookups/s (per-lookup latency inverse)."""
    return _transport_lookup_workload(_scaled(400, scale, floor=50))


@scenario("transport_open_loop_degree1")
def transport_open_loop_degree1(scale: float = 1.0) -> ScenarioStats:
    """The whole lookup batch in flight at once against one service:
    pipelined lookups/s."""
    return _transport_lookup_workload(_scaled(1_000, scale, floor=100),
                                      closed_loop=False)


@scenario("transport_closed_loop_replicated")
def transport_closed_loop_replicated(scale: float = 1.0) -> ScenarioStats:
    """Closed-loop lookups split across two replicas (one client
    each, running concurrently): aggregate lookups/s at degree 2."""
    return _transport_lookup_workload(_scaled(400, scale, floor=50),
                                      replicas=2)


@scenario("transport_open_loop_replicated")
def transport_open_loop_replicated(scale: float = 1.0) -> ScenarioStats:
    """Open-loop batch split across two replicas: aggregate pipelined
    lookups/s at degree 2."""
    return _transport_lookup_workload(_scaled(1_000, scale, floor=100),
                                      replicas=2, closed_loop=False)


# -- experiment scenarios --------------------------------------------------

@scenario("a7_batch_resolution")
def a7_batch_resolution(scale: float = 1.0) -> ScenarioStats:
    from repro.bench.experiments_batch import run_a7_batch_resolution
    result = run_a7_batch_resolution(seed=0)
    assert result.all_checks_pass(), result.failed_checks()
    return ScenarioStats()


@scenario("a8_availability")
def a8_availability(scale: float = 1.0) -> ScenarioStats:
    from repro.bench.experiments_availability import run_a8_availability
    result = run_a8_availability(seed=0)
    assert result.all_checks_pass(), result.failed_checks()
    return ScenarioStats()


@scenario("a9_leases")
def a9_leases(scale: float = 1.0) -> ScenarioStats:
    from repro.bench.experiments_leases import run_a9_leases
    result = run_a9_leases(seed=0)
    assert result.all_checks_pass(), result.failed_checks()
    return ScenarioStats()


@scenario("a10_sharding")
def a10_sharding(scale: float = 1.0) -> ScenarioStats:
    """The million-name sharding run: scale 1.0 is the full ROADMAP
    floor (10^6 names, 10^5 open-loop resolutions); smoke scales it
    down — the saturation-vs-flat comparison is scale-invariant."""
    from repro.bench.experiments_sharding import run_a10_sharding
    result = run_a10_sharding(
        seed=0,
        names=_scaled(1_000_000, scale, floor=20_000),
        resolutions=_scaled(100_000, scale, floor=2_000))
    assert result.all_checks_pass(), result.failed_checks()
    return ScenarioStats()


@scenario("a11_shard_faults")
def a11_shard_faults(scale: float = 1.0) -> ScenarioStats:
    """Replicated shards under the scripted crash/restart timeline:
    scale 1.0 is the experiment's full default (2·10^5 names, 2·10^4
    resolutions); smoke scales it down — the availability contrast is
    scale-invariant while the outage windows span many arrivals."""
    from repro.bench.experiments_shard_faults import run_a11_shard_faults
    result = run_a11_shard_faults(
        seed=0,
        names=_scaled(200_000, scale, floor=20_000),
        resolutions=_scaled(20_000, scale, floor=2_000))
    assert result.all_checks_pass(), result.failed_checks()
    return ScenarioStats()


# -- timing ----------------------------------------------------------------

def calibrate(loops: int = 5) -> float:
    """A machine-speed yardstick: iterations/s of a fixed pure-python
    loop.  Recording it beside every bench lets the regression gate
    normalise rates measured on different machines (laptop vs CI
    runner) to first order."""
    best = float("inf")
    for _ in range(loops):
        start = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index % 7
        best = min(best, time.perf_counter() - start)
    assert total >= 0
    return 200_000 / best


def run_scenario(name: str, scale: float = 1.0,
                 repeats: int = 3) -> dict:
    """Time one scenario; the *best* of *repeats* runs is reported
    (least-noise estimator for a deterministic workload).

    Each repeat runs from a collected heap with the cyclic GC frozen:
    earlier scenarios leave megabytes of dead Messages and trace
    entries behind, and whether a gen-2 collection lands inside *this*
    scenario's timed region otherwise depends on suite order — a ~1.5×
    cross-contamination that used to be indistinguishable from real
    overhead (refcounting still frees the workload's garbage; only
    cycle detection is deferred to the inter-repeat collect).
    """
    import gc

    fn = SCENARIOS[name]
    best_wall = float("inf")
    stats = ScenarioStats()
    for _ in range(max(1, repeats)):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            stats = fn(scale)
            wall = time.perf_counter() - start
        finally:
            gc.enable()
        best_wall = min(best_wall, wall)
    record = {
        "wall_s": round(best_wall, 6),
        "events_per_s": (round(stats.events / best_wall, 1)
                         if stats.events else None),
        "messages_per_s": (round(stats.messages / best_wall, 1)
                           if stats.messages else None),
        "peak_heap_depth": stats.peak_heap_depth,
    }
    return record


def run_suite(names=None, scale: float = 1.0, repeats: int = 3,
              verbose: bool = False) -> dict:
    """Run scenarios (all by default) and return name -> record."""
    results: dict[str, dict] = {}
    for name in (names or SCENARIOS):
        if name not in SCENARIOS:
            raise KeyError(f"unknown scenario {name!r}; "
                           f"known: {', '.join(SCENARIOS)}")
        results[name] = run_scenario(name, scale=scale, repeats=repeats)
        if verbose:
            record = results[name]
            rate = record["events_per_s"]
            rate_text = f"{rate:,.0f} events/s" if rate else "wall only"
            print(f"  {name:34} {record['wall_s']*1e3:9.2f} ms  {rate_text}")
    return results

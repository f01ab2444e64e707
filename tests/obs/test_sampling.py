"""Tests for the span-sampling seam: the deterministic
:class:`SpanSampler`, the tracer's sampled storage + always-kept
recent ring, and the kernel's deferred counter flush (PR 8)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.obs import FlightRecorder, Instrumentation, SpanSampler, Tracer
from repro.sim.kernel import Simulator
from repro.workloads.zipf import build_zipf_namespace


def _traced_workload(tracer: Tracer, traces: int = 40):
    """Mint *traces* root spans with one nested hop each."""
    for index in range(traces):
        root = tracer.begin("resolution", f"/n{index}", float(index),
                            parent=None)
        hop = tracer.begin("hop", "query", float(index) + 0.25)
        tracer.end(hop, float(index) + 0.5)
        tracer.end(root, float(index) + 1.0)


class TestSpanSampler:
    def test_decision_is_deterministic_and_stateless(self):
        first = SpanSampler(rate=0.3, seed=7)
        second = SpanSampler(rate=0.3, seed=7)
        decisions = [first.keep_trace(seq) for seq in range(500)]
        assert decisions == [second.keep_trace(seq)
                             for seq in range(500)]
        # Order of queries must not matter (no hidden RNG state).
        assert [first.keep_trace(seq)
                for seq in reversed(range(500))] == decisions[::-1]

    def test_different_seeds_sample_different_traces(self):
        a = SpanSampler(rate=0.3, seed=1)
        b = SpanSampler(rate=0.3, seed=2)
        assert [a.keep_trace(s) for s in range(200)] \
            != [b.keep_trace(s) for s in range(200)]

    def test_keep_fraction_tracks_the_rate(self):
        for rate in (0.05, 0.5, 0.9):
            sampler = SpanSampler(rate=rate, seed=3)
            kept = sum(sampler.keep_trace(seq)
                       for seq in range(10_000))
            assert abs(kept / 10_000 - rate) < 0.03, (rate, kept)

    def test_rate_bounds(self):
        assert all(SpanSampler(rate=1.0).keep_trace(s)
                   for s in range(100))
        assert not any(SpanSampler(rate=0.0).keep_trace(s)
                       for s in range(100))
        with pytest.raises(ValueError):
            SpanSampler(rate=1.5)


class TestTracerSampling:
    def test_main_store_holds_a_deterministic_subset(self):
        sampler = SpanSampler(rate=0.5, seed=11)
        sampled = Tracer(sampler=sampler)
        full = Tracer()
        _traced_workload(sampled)
        _traced_workload(full)
        kept_ids = {span.span_id for span in sampled.spans}
        expected = {span.span_id for span in full.spans
                    if sampler.keep_trace(int(span.trace_id[1:]))}
        assert kept_ids == expected
        assert 0 < len(sampled) < len(full)
        assert sampled.sampled_out == len(full) - len(sampled)

    def test_sampled_out_traces_still_mint_identical_ids(self):
        # Determinism invariant: installing a sampler must not shift
        # a single id — sampled-out spans mint and nest exactly as in
        # the unsampled run, only their storage is skipped.
        sampled = Tracer(sampler=SpanSampler(rate=0.1, seed=5))
        full = Tracer()
        _traced_workload(sampled)
        _traced_workload(full)
        by_id = {span.span_id: span for span in full.spans}
        for span in sampled.spans:
            twin = by_id[span.span_id]
            assert (span.trace_id, span.parent_id, span.kind) \
                == (twin.trace_id, twin.parent_id, twin.kind)

    def test_recent_ring_keeps_sampled_out_spans(self):
        tracer = Tracer(sampler=SpanSampler(rate=0.0, seed=1))
        tracer.keep_recent()
        _traced_workload(tracer, traces=10)
        assert len(tracer) == 0          # nothing in the main store
        window = tracer.recent_window(0.0, 100.0)
        assert len(window) == 20         # every span is in the ring
        assert tracer.recent_window(3.0, 4.0)  # time-filtered view

    def test_recent_ring_is_bounded_by_the_window(self, monkeypatch):
        monkeypatch.setattr(SpanSampler, "window", 8)
        tracer = Tracer(sampler=SpanSampler(rate=0.0, seed=1))
        tracer.keep_recent()
        _traced_workload(tracer, traces=30)
        assert len(tracer.recent_window(0.0, 1e9)) == 8

    def test_no_sampler_recent_window_reads_the_main_store(self):
        tracer = Tracer()
        _traced_workload(tracer, traces=4)
        assert len(tracer.recent_window(0.0, 100.0)) == 8

    def test_a_recorder_starts_the_ring_it_reads(self):
        tracer = Tracer(sampler=SpanSampler(rate=0.0, seed=1))
        _traced_workload(tracer, traces=3)
        assert tracer.recent_window(0.0, 1e9) == []   # nothing reads it
        FlightRecorder(tracer=tracer)
        _traced_workload(tracer, traces=3)
        assert len(tracer.recent_window(0.0, 1e9)) == 6

    def test_instrumentation_carries_the_sampler(self):
        sampler = SpanSampler(rate=0.25, seed=9)
        obs = Instrumentation(sampler=sampler)
        assert obs.sampler is sampler
        assert obs.tracer.sampler is sampler


class TestMutedTraces:
    """A sampled-out trace that no flight recorder reads is muted: no
    :class:`Span` is built for it, yet every id and tally lands where
    the recording tracer puts it."""

    def test_a_muted_trace_builds_no_span(self):
        tracer = Tracer(sampler=SpanSampler(rate=0.0, seed=1))
        root = tracer.begin("resolution", "/n", 0.0, parent=None)
        assert root.muted and tracer.current is root
        assert tracer.event("step", "n", 0.5) is None
        hop = tracer.begin("hop", "query", 0.25)
        assert hop.muted and hop.trace_id == root.trace_id
        assert hop.fail("lost") is hop
        tracer.end(hop, 0.5)
        tracer.end(root, 1.0)
        assert tracer.current is None
        assert len(tracer) == 0 and tracer.sampled_out == 3
        assert (root.span_id, hop.span_id) == ("s1", "s3")

    def test_admit_spends_a_muted_instants_id(self):
        tracer = Tracer(sampler=SpanSampler(rate=0.0, seed=1))
        assert tracer.admit()            # would mint: event() decides
        root = tracer.begin("resolution", "/n", 0.0, parent=None)
        assert not tracer.admit()
        assert not tracer.admit(root.trace_id)
        assert not tracer.admit("t99")   # sampled out by its id
        assert tracer.admit("wire-7")    # foreign ids are always kept
        tracer.end(root, 1.0)
        assert tracer.sampled_out == 4
        assert tracer.begin("hop", "q", 2.0).span_id == "s5"

    def test_admit_passes_what_a_kept_trace_records(self):
        tracer = Tracer(sampler=SpanSampler(rate=1.0, seed=1))
        root = tracer.begin("resolution", "/n", 0.0, parent=None)
        assert not root.muted and tracer.admit()
        assert tracer.sampled_out == 0

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    def test_muted_and_recorded_tracers_agree_on_everything_kept(
            self, rate):
        muted = Tracer(sampler=SpanSampler(rate=rate, seed=2))
        recorded = Tracer(sampler=SpanSampler(rate=rate, seed=2))
        recorded.keep_recent()
        for tracer in (muted, recorded):
            _traced_workload(tracer)
            tracer.event("failure", "crash", 50.0)
        assert [repr(s) for s in muted.spans] \
            == [repr(s) for s in recorded.spans]
        assert muted.sampled_out == recorded.sampled_out

    def test_a_trace_muted_before_the_recorder_stays_muted(self):
        tracer = Tracer(sampler=SpanSampler(rate=0.0, seed=1))
        root = tracer.begin("resolution", "/n", 0.0, parent=None)
        tracer.keep_recent()
        assert tracer.begin("hop", "q", 0.25).muted
        assert tracer.event("step", "n", 0.5) is None
        assert tracer.recent_window(0.0, 1e9) == []
        assert not tracer.begin("resolution", "/m", 2.0,
                                parent=None).muted
        assert root.muted


class TestMutedHops:
    """A hop of a muted trace sends its trace id and no span id: the
    kernel asks :meth:`Tracer.admit` before it would read one."""

    def _hop_contexts(self, rate: float) -> list[tuple]:
        obs = Instrumentation(sampler=SpanSampler(rate=rate, seed=1))
        simulator = Simulator(seed=0, obs=obs)
        network = simulator.network("lan")
        client_m, primary, secondary = (
            simulator.machine(network, label)
            for label in ("client-m", "primary", "secondary"))
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "hot", count=10)
        placement = DirectoryPlacement()
        placement.place(tree.root, client_m)
        placement.place_replicated(namespace.directory, primary, secondary)
        resolver = DistributedResolver(simulator, placement)
        client = simulator.spawn(client_m, "client")
        seen: list[tuple] = []

        class Tap:
            label = "tap"

            def process(self, message):
                seen.append((message.trace_id, message.parent_span_id))

        simulator.add_gateway(Tap())
        _entity, cost = resolver.resolve(client, ProcessContext(tree.root),
                                         "/hot/u1")
        sent = resolver.rebind(namespace.directory, "u1",
                               namespace.shared_leaf)
        assert cost.messages >= 1 and sent == 0
        assert len(seen) == simulator.messages_delivered > cost.messages
        return seen

    def test_a_muted_hop_carries_no_span_id(self):
        for trace_id, parent_span_id in self._hop_contexts(rate=0.0):
            assert trace_id is not None and parent_span_id is None

    def test_a_kept_hop_carries_its_span_id(self):
        for trace_id, parent_span_id in self._hop_contexts(rate=1.0):
            assert trace_id is not None and parent_span_id is not None


class TestKernelSampledMode:
    def _messaging_run(self, obs, count=300):
        simulator = Simulator(seed=1, obs=obs)
        network = simulator.network("lan")
        procs = [simulator.spawn(simulator.machine(network), f"p{i}")
                 for i in range(4)]
        for index in range(count):
            procs[index % 4].send(procs[(index + 1) % 4],
                                  payload=index)
        simulator.run()
        return simulator

    def test_flushed_totals_equal_full_mode_counters(self):
        sampled_obs = Instrumentation(
            sampler=SpanSampler(rate=0.05, seed=1))
        full_obs = Instrumentation()
        sampled = self._messaging_run(sampled_obs)
        full = self._messaging_run(full_obs)
        for name in ("sim_messages_sent_total",
                     "sim_messages_delivered_total",
                     "sim_events_processed_total"):
            assert sampled_obs.metrics.counter(name).value \
                == full_obs.metrics.counter(name).value, name
        assert sampled.messages_delivered == full.messages_delivered

    def test_flush_covers_dropped_messages(self):
        obs = Instrumentation(sampler=SpanSampler(rate=0.0, seed=1))
        simulator = Simulator(seed=2, obs=obs)
        network = simulator.network("lan")
        alive = simulator.spawn(simulator.machine(network), "alive")
        doomed_machine = simulator.machine(network)
        doomed = simulator.spawn(doomed_machine, "doomed")
        alive.send(doomed, payload="never arrives")
        doomed_machine.alive = False
        simulator.run()
        assert simulator.messages_dropped == 1
        assert obs.metrics.counter(
            "sim_messages_dropped_total").value == 1

    def test_repeated_runs_flush_incrementally(self):
        obs = Instrumentation(sampler=SpanSampler(rate=0.5, seed=3))
        simulator = Simulator(seed=3, obs=obs)
        network = simulator.network("lan")
        a = simulator.spawn(simulator.machine(network), "a")
        b = simulator.spawn(simulator.machine(network), "b")
        for round_ in range(3):
            a.send(b, payload=round_)
            simulator.run()
            assert obs.metrics.counter(
                "sim_messages_sent_total").value == round_ + 1

    def test_run_until_settled_flushes_too(self):
        obs = Instrumentation(sampler=SpanSampler(rate=0.5, seed=4))
        simulator = Simulator(seed=4, obs=obs)
        network = simulator.network("lan")
        a = simulator.spawn(simulator.machine(network), "a")
        b = simulator.spawn(simulator.machine(network), "b")
        message = a.send(b, payload="ping")
        simulator.run_until_settled(message)
        assert obs.metrics.counter(
            "sim_messages_delivered_total").value == 1

    @pytest.mark.parametrize("pump", ["run", "run_until_settled"])
    @pytest.mark.parametrize("rate", [None, 0.05],
                             ids=["no-sampler", "rate005"])
    def test_a_pump_that_raises_still_publishes(self, rate, pump):
        # A ping-pong pair never quiesces, so the pump stops at its
        # bound by raising; what it ran must still reach the counters.
        sampler = None if rate is None else SpanSampler(rate=rate, seed=1)
        obs = Instrumentation(sampler=sampler)
        simulator = Simulator(seed=5, obs=obs)
        network = simulator.network("lan")
        ping = simulator.spawn(simulator.machine(network), "ping")
        pong = simulator.spawn(simulator.machine(network), "pong")
        ping.on_message(lambda process, _message: process.send(pong))
        pong.on_message(lambda process, _message: process.send(ping))
        ping.send(pong)
        with pytest.raises(SimulationError):
            if pump == "run":
                simulator.run(max_events=10)
            else:
                simulator.run_until_settled(
                    ping.send(pong, latency=1e9), max_events=10)
        counter = obs.metrics.counter
        assert counter("sim_events_processed_total").value == 10
        assert counter("sim_messages_sent_total").value \
            == simulator.messages_sent > 10
        assert counter("sim_messages_delivered_total").value \
            == simulator.messages_delivered == 10

    def test_sampling_never_perturbs_the_simulation(self):
        # The hard determinism requirement: the kernel trace (event
        # order, timestamps, payload routing) must be identical with
        # and without a sampler installed.
        def digest(obs):
            simulator = self._messaging_run(obs, count=200)
            return [(e.time, e.kind, e.detail)
                    for e in simulator.trace.entries]

        assert digest(None) \
            == digest(Instrumentation(
                sampler=SpanSampler(rate=0.05, seed=1))) \
            == digest(Instrumentation())

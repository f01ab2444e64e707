"""Tests for lazy trace details, the record-time kind filter, and the
lazily built per-kind index (PR 6 performance work)."""

from __future__ import annotations

from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


class TestLazyDetails:
    def test_callable_detail_resolved_once(self):
        log = TraceLog()
        calls = []

        def fmt() -> str:
            calls.append(True)
            return "formatted"

        entry = log.record(1.0, "send", fmt)
        assert calls == []  # nothing formatted at record time
        assert entry.detail == "formatted"
        assert entry.detail == "formatted"
        assert calls == [True]  # resolved exactly once, then cached

    def test_tuple_detail_resolved_lazily(self):
        log = TraceLog()
        calls = []

        def fmt(arg) -> str:
            calls.append(arg)
            return f"msg#{arg}"

        entry = log.record(1.0, "send", (fmt, 7))
        assert calls == []
        assert entry.detail == "msg#7"
        assert calls == [7]
        assert entry.detail == "msg#7"
        assert calls == [7]

    def test_string_detail_unchanged(self):
        log = TraceLog()
        entry = log.record(1.0, "send", "plain")
        assert entry.detail == "plain"

    def test_repr_and_to_dict_resolve(self):
        log = TraceLog()
        entry = log.record(2.0, "send", lambda: "lazy", data=7)
        assert "lazy" in repr(entry)
        assert entry.to_dict() == {"time": 2.0, "kind": "send",
                                   "detail": "lazy", "data": 7}


class TestKindFilter:
    def test_filtered_kinds_are_dropped(self):
        log = TraceLog(kinds=("drop",))
        assert log.record(1.0, "send", "a") is None
        kept = log.record(2.0, "drop", "b")
        assert kept is not None
        assert [e.kind for e in log] == ["drop"]

    def test_unfiltered_log_records_everything(self):
        log = TraceLog()
        log.record(1.0, "send", "a")
        log.record(1.0, "deliver", "b")
        assert len(log) == 2

    def test_simulator_accepts_prebuilt_trace(self):
        filtered = Simulator(
            seed=5, trace=TraceLog(kinds=("drop", "failure")))
        network = filtered.network("lan")
        a = filtered.spawn(filtered.machine(network), "a")
        b = filtered.spawn(filtered.machine(network), "b")
        a.send(b, payload="x")
        filtered.run()
        # Sends/delivers were filtered out of the log ...
        assert len(filtered.trace) == 0
        # ... but the simulation itself is unaffected.
        assert filtered.messages_delivered == 1
        assert b.receive().payload == "x"

    def test_filtered_run_matches_default_run(self):
        def drive(simulator: Simulator) -> list:
            network = simulator.network("lan")
            procs = [simulator.spawn(simulator.machine(network), f"p{i}")
                     for i in range(4)]
            for index in range(40):
                procs[index % 4].send(procs[(index + 1) % 4],
                                      payload=index)
            simulator.run()
            return [(p.label, len(p.mailbox)) for p in procs]

        default = drive(Simulator(seed=9))
        filtered = drive(Simulator(seed=9, trace=TraceLog(kinds=())))
        assert default == filtered


class TestLazyIndex:
    def test_of_kind_after_new_records(self):
        log = TraceLog()
        log.record(1.0, "send", "a")
        assert [e.detail for e in log.of_kind("send")] == ["a"]
        log.record(2.0, "send", "b")  # index must pick up the tail
        assert [e.detail for e in log.of_kind("send")] == ["a", "b"]

    def test_index_entries_are_the_recorded_objects(self):
        log = TraceLog()
        first = log.record(1.0, "send", "a")
        second = log.record(2.0, "deliver", "b")
        assert log.of_kind("send")[0] is first
        assert log.of_kind("deliver")[0] is second

    def test_eviction_rebuilds_index(self):
        log = TraceLog(max_entries=3)
        log.record(1.0, "send", "a")
        log.record(2.0, "deliver", "b")
        assert log.kinds() == ["send", "deliver"]  # index built
        log.record(3.0, "deliver", "c")
        log.record(4.0, "deliver", "d")  # evicts the only "send"
        assert log.evicted == 1
        assert log.of_kind("send") == []
        assert [e.detail for e in log.of_kind("deliver")] == ["b", "c", "d"]
        assert log.kinds() == ["deliver"]

    def test_kernel_trace_kinds_reachable(self):
        simulator = Simulator(seed=3)
        network = simulator.network("lan")
        a = simulator.spawn(simulator.machine(network), "a")
        b = simulator.spawn(simulator.machine(network), "b")
        a.send(b, payload=1)
        simulator.run()
        assert len(simulator.trace.of_kind("send")) == 1
        assert len(simulator.trace.of_kind("deliver")) == 1
        send = simulator.trace.of_kind("send")[0]
        assert send.detail == "a → b msg#1"

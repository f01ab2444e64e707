"""Tests for trace records stored as packed rows, read back (and
filtered by kind) with a scan that builds entries only for the rows
asked for."""

from __future__ import annotations

import gc
import tracemalloc

import repro.sim.trace as trace_module
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceEntry, TraceLog


class TestLazyDetails:
    """A detail is a string, read back as is, or a ``(template,
    *args)`` tuple of atomic values, formatted only when read."""

    def test_string_detail_unchanged(self):
        log = TraceLog()
        assert log.record(1.0, "send", "plain") is None
        assert [entry.detail for entry in log] == ["plain"]

    def test_template_detail_is_formatted_on_read(self):
        log = TraceLog()
        log.record(1.0, "send", ("%s → %s msg#%d", "a", "b", 7), data=3)
        assert list(log) == [TraceEntry(1.0, "send", "a → b msg#7", 3)]
        assert log.window(0.0, 2.0)[0]["detail"] == "a → b msg#7"

    def test_repr_and_to_dict_resolve(self):
        log = TraceLog()
        log.record(2.0, "send", ("%s#%d", "lazy", 1), data=7)
        [entry] = log
        assert repr(entry) == "[t=2] send: lazy#1"
        assert entry.to_dict() == {"time": 2.0, "kind": "send",
                                   "detail": "lazy#1", "data": 7}


def _two_processes(seed: int = 1):
    """A simulator and two processes whose deliveries keep nothing."""
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    a = simulator.spawn(simulator.machine(network), "a")
    b = simulator.spawn(simulator.machine(network), "b")
    b.on_message(lambda process, message: None)
    return simulator, a, b


class TestPlainRecords:
    MESSAGES = 10_000

    def _exchange(self, simulator, a, b) -> None:
        records = len(simulator.trace)
        for _batch in range(self.MESSAGES // 100):
            for index in range(100):
                a.send(b, payload=index)
            simulator.run()
        assert len(simulator.trace) - records == 2 * self.MESSAGES

    def test_message_records_allocate_no_tracked_objects(self):
        simulator, a, b = _two_processes()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            self._exchange(simulator, a, b)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert grown <= 16

    def test_log_retains_at_most_64_bytes_a_message(self):
        simulator, a, b = _two_processes()
        tracemalloc.start()
        try:
            self._exchange(simulator, a, b)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        in_log = snapshot.filter_traces(
            [tracemalloc.Filter(True, trace_module.__file__)])
        retained = sum(stat.size for stat in in_log.statistics("filename"))
        assert retained <= 64 * self.MESSAGES

    def test_entries_are_views_of_the_records(self):
        log = TraceLog()
        log.record(1.0, "send", "a")
        assert log.entries == [TraceEntry(1.0, "send", "a", None)]
        assert log.tail(1) == log.entries


class TestKindFilter:
    """The log has no kind filter: it records every kind."""

    def test_unfiltered_log_records_everything(self):
        log = TraceLog()
        log.record(1.0, "send", "a")
        log.record(1.0, "deliver", "b")
        assert len(log) == 2


class TestLazyIndex:
    def test_of_kind_after_new_records(self):
        log = TraceLog()
        log.record(1.0, "send", "a")
        assert [e.detail for e in log.of_kind("send")] == ["a"]
        log.record(2.0, "send", "b")  # each read scans every row
        assert [e.detail for e in log.of_kind("send")] == ["a", "b"]

    def test_index_entries_are_the_recorded_objects(self):
        log = TraceLog()
        log.record(1.0, "send", "a")
        log.record(2.0, "deliver", "b")
        first, second = log
        assert log.of_kind("send") == [first]
        assert log.of_kind("deliver") == [second]
        assert second == TraceEntry(2.0, "deliver", "b")

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

"""TraceLog per-kind index, growth and export safety."""

from __future__ import annotations

import json

from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


class TestKindIndex:
    def test_of_kind_returns_in_order(self):
        log = TraceLog()
        log.record(0.0, "send", "a")
        log.record(1.0, "deliver", "b")
        log.record(2.0, "send", "c")
        assert [e.detail for e in log.of_kind("send")] == ["a", "c"]
        assert log.of_kind("nope") == []

    def test_kinds_in_first_seen_order(self):
        log = TraceLog()
        log.record(0.0, "send", "a")
        log.record(1.0, "deliver", "b")
        log.record(2.0, "send", "c")
        assert log.kinds() == ["send", "deliver"]

    def test_index_matches_scan(self):
        log = TraceLog()
        for index in range(50):
            log.record(float(index), f"k{index % 3}", str(index))
        for kind in log.kinds():
            assert log.of_kind(kind) == [e for e in log
                                         if e.kind == kind]


class TestRingBuffer:
    """The log has no ring: it keeps every record."""

    def test_unbounded_by_default(self):
        log = TraceLog()
        for index in range(1000):
            log.record(float(index), "send", str(index))
        assert len(log) == 1000


class TestExportSafety:
    def test_to_dict_summarizes_payloads(self):
        log = TraceLog()
        log.record(0.0, "send", "scalar", data=7)
        log.record(1.0, "send", "object", data=object())
        dicts = [entry.to_dict() for entry in log]
        json.dumps(dicts)
        assert dicts[0]["data"] == 7
        assert isinstance(dicts[1]["data"], str)

    def test_tail(self):
        log = TraceLog()
        for index in range(10):
            log.record(float(index), "send", str(index))
        assert [e.detail for e in log.tail(3)] == ["7", "8", "9"]
        assert log.tail(0) == []


class TestKernelIntegration:
    def test_simulator_trace_still_records_messages(self):
        simulator = Simulator(seed=0)
        network = simulator.network("lan")
        machine = simulator.machine(network, "m")
        sender = simulator.spawn(machine, "p1")
        receiver = simulator.spawn(machine, "p2")
        sender.send(receiver, payload="ping")
        simulator.run()
        assert simulator.trace.of_kind("send")
        assert simulator.trace.of_kind("deliver")

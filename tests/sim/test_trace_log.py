"""TraceLog per-kind index, growth and export safety."""

from __future__ import annotations

import json
import random

from repro.sim.kernel import Simulator
from repro.sim.trace import DELIVER, DROP, SEND, TraceEntry, TraceLog

#: Message records (the kernel's templates) interleaved with every other
#: shape of record, and the entries each reads back as.
ROUND_TRIP = [
    ((0.5, "send", (SEND, "client", "server", 1)),
     TraceEntry(0.5, "send", "client → server msg#1")),
    ((0.5, "topology", "gateway g installed"),
     TraceEntry(0.5, "topology", "gateway g installed")),
    ((1.5, "deliver", (DELIVER, 1, "server")),
     TraceEntry(1.5, "deliver", "msg#1 at server")),
    ((2.0, "drop", (DROP, 2, "receiver machine down")),
     TraceEntry(2.0, "drop", "msg#2: receiver machine down")),
    ((2, "failure", "machine m crashed"),
     TraceEntry(2, "failure", "machine m crashed")),
    ((2.25, "drop", (DROP, 3, "network partition")),
     TraceEntry(2.25, "drop", "msg#3: network partition")),
    ((3.0, "spawn", ("%s spawned on %s", "p", "m"), 7),
     TraceEntry(3.0, "spawn", "p spawned on m", 7)),
    ((3.0, "send", (SEND, "server", "client", 40000000000)),
     TraceEntry(3.0, "send", "server → client msg#40000000000")),
    ((3.5, "drop", (DROP, 4, "flaky link")),
     TraceEntry(3.5, "drop", "msg#4: flaky link")),
    ((4.0, "drop", (DROP, 5, "receiver dead")),
     TraceEntry(4.0, "drop", "msg#5: receiver dead")),
    ((4.5, "deliver", (DELIVER, 40000000000, "client")),
     TraceEntry(4.5, "deliver", "msg#40000000000 at client")),
]


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


class TestRoundTrip:
    """Every shape of record reads back exactly, through every reader."""

    def _log(self) -> TraceLog:
        log = TraceLog()
        for args, _entry in ROUND_TRIP:
            log.record(*args)
        return log

    def test_iteration_and_len(self):
        log = self._log()
        expected = [entry for _args, entry in ROUND_TRIP]
        assert len(log) == len(expected)
        assert list(log) == log.entries == expected
        assert [type(entry.time) for entry in log] == \
            [type(entry.time) for entry in expected]

    def test_of_kind_and_kinds(self):
        log = self._log()
        expected = [entry for _args, entry in ROUND_TRIP]
        assert log.kinds() == ["send", "topology", "deliver", "drop",
                               "failure", "spawn"]
        for kind in log.kinds():
            assert log.of_kind(kind) == [entry for entry in expected
                                         if entry.kind == kind]

    def test_tail_and_window(self):
        log = self._log()
        expected = [entry for _args, entry in ROUND_TRIP]
        assert log.tail(4) == expected[-4:]
        assert log.tail(100) == expected
        assert log.window(2, 3.0) == [entry.to_dict()
                                      for entry in expected[3:8]]
        assert [repr(entry) for entry in log.tail(2)] == \
            ["[t=4] drop: msg#5: receiver dead",
             "[t=4.5] deliver: msg#40000000000 at client"]


class TestWindow:
    def test_window_equals_the_filter_over_iteration(self):
        rng = random.Random(5)
        log = TraceLog()
        time = 0.0
        for msg in range(1, 2501):
            time += rng.random()
            log.record(time, "send", (SEND, "a", f"p{msg % 7}", msg))
            log.record(time + 0.25, "deliver", (DELIVER, msg, "b"))
            log.record(time + 0.5, "drop", (DROP, msg, "flaky link"))
            log.record(int(time), "note", f"n{msg}", data=msg)
        assert len(log) == 10_000
        for start in (-1.0, 0.0, 17.5, 400.0, time + 1):
            for width in (0.0, 1.0, 25.0, 10_000.0):
                end = start + width
                assert log.window(start, end) == [
                    entry.to_dict() for entry in log
                    if start <= entry.time <= end]


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

"""Export-safety regression tests for trace snapshots.

Exported dicts must stay stable after later evictions — the flight
recorder hands them out long after the ring has moved on.
"""

from __future__ import annotations

from repro.sim.trace import TraceLog


class TestSnapshotStability:
    def test_window_dicts_outlive_ring_eviction(self):
        log = TraceLog(max_entries=4)
        for index in range(4):
            log.record(float(index), "probe", f"entry {index}")
        window = log.window(0.0, 10.0)
        # Flood the ring: every original entry is evicted.
        for index in range(10, 20):
            log.record(float(index), "flood", "x")
        assert [d["detail"] for d in window] \
            == ["entry 0", "entry 1", "entry 2", "entry 3"]
        assert all(d["kind"] == "probe" for d in window)

    def test_window_bounds_are_inclusive(self):
        log = TraceLog()
        for time in (1.0, 2.0, 3.0, 4.0):
            log.record(time, "t", "x")
        assert [d["time"] for d in log.window(2.0, 3.0)] == [2.0, 3.0]

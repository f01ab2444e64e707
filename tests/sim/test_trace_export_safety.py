"""Export-safety regression tests for trace snapshots."""

from __future__ import annotations

from repro.sim.trace import TraceLog


class TestSnapshotStability:
    def test_window_bounds_are_inclusive(self):
        log = TraceLog()
        for time in (1.0, 2.0, 3.0, 4.0):
            log.record(time, "t", "x")
        assert [d["time"] for d in log.window(2.0, 3.0)] == [2.0, 3.0]

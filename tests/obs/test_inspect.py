"""Hop-tree reconstruction, hot-spot rankings, and the CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    Tracer,
    format_hop_tree,
    hop_tree,
    hottest_directories,
    hottest_servers,
    trace_roots,
)

REPO = Path(__file__).resolve().parents[2]
CLI = REPO / "tools" / "inspect_run.py"


def walk_trace() -> Tracer:
    tracer = Tracer()
    root = tracer.begin("resolution", "/a/b", 0.0, parent=None)
    tracer.event("step", "/", 0.0,
                 attrs={"server": "s-client", "directory": "root"})
    hop = tracer.begin("hop", "query", 0.0)
    tracer.event("deliver", "msg#1", 1.0)
    tracer.end(hop, 1.0)
    tracer.event("step", "a", 1.0,
                 attrs={"server": "s-b", "directory": "root"})
    tracer.event("step", "b", 1.0,
                 attrs={"server": "s-b", "directory": "a"})
    tracer.end(root, 2.0)
    return tracer


class TestHopTree:
    def test_tree_structure(self):
        roots = hop_tree(walk_trace().spans)
        assert len(roots) == 1
        root = roots[0]
        assert root["span"].kind == "resolution"
        kinds = [child["span"].kind for child in root["children"]]
        assert kinds == ["step", "hop", "step", "step"]
        hop_node = root["children"][1]
        assert [c["span"].kind for c in hop_node["children"]] == \
            ["deliver"]

    def test_trace_roots(self):
        tracer = walk_trace()
        assert [s.kind for s in trace_roots(tracer.spans)] == \
            ["resolution"]

    def test_orphan_spans_become_roots(self):
        # A ring-buffered tracer can evict a parent; children must
        # still render rather than vanish.
        tracer = walk_trace()
        spans = [s for s in tracer.spans if s.kind != "resolution"]
        assert len(trace_roots(spans)) == len(
            [s for s in spans if s.kind in ("step", "hop")])

    def test_format_renders_every_span_once(self):
        tracer = walk_trace()
        text = format_hop_tree(tracer.spans)
        assert text.startswith("trace t1")
        assert text.count("step:") == 3
        assert "hop:query" in text
        assert "deliver:msg#1" in text

    def test_format_filters_by_trace(self):
        tracer = walk_trace()
        other = tracer.begin("rebind", "w", 5.0, parent=None)
        tracer.end(other, 6.0)
        text = format_hop_tree(tracer.spans, trace_id=other.trace_id)
        assert "rebind:w" in text
        assert "resolution" not in text

    def test_failed_span_is_flagged(self):
        tracer = Tracer()
        span = tracer.begin("hop", "query", 0.0, parent=None)
        span.fail("receiver machine down")
        tracer.end(span, 1.0)
        assert "FAILED(receiver machine down)" in \
            format_hop_tree(tracer.spans)


class TestHotSpots:
    def test_hottest_servers(self):
        tracer = walk_trace()
        assert hottest_servers(tracer.spans) == [("s-b", 2),
                                                 ("s-client", 1)]

    def test_hottest_directories(self):
        tracer = walk_trace()
        assert hottest_directories(tracer.spans) == [("root", 2),
                                                     ("a", 1)]

    def test_top_bound(self):
        tracer = walk_trace()
        assert len(hottest_servers(tracer.spans, top=1)) == 1


def run_cli(*argv: str) -> str:
    result = subprocess.run(
        [sys.executable, str(CLI), *argv],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(REPO))
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestInspectCli:
    def test_tree_output(self):
        out = run_cli("--scenario", "basic")
        assert "trace t1" in out
        assert "batch:resolve_many" in out
        assert "hop:query" in out
        assert "hottest servers" in out
        assert "resolver_messages_total" in out

    def test_chrome_trace_validates(self, tmp_path):
        target = tmp_path / "trace.json"
        run_cli("--format", "chrome-trace", "--out", str(target))
        document = json.loads(target.read_text())
        events = document["traceEvents"]
        assert any(e.get("ph") == "X" and e.get("cat") == "resolution"
                   for e in events)
        # At least one complete resolution tree is loadable: a
        # resolution X event plus children referencing its span id.
        resolution = next(e for e in events
                          if e.get("cat") == "resolution")
        span_id = resolution["args"]["span_id"]
        assert any(e["args"].get("parent_span_id") == span_id
                   for e in events if e.get("ph") in ("X", "i"))

    def test_summary_reconciles(self, tmp_path):
        target = tmp_path / "summary.json"
        run_cli("--format", "summary", "--out", str(target))
        document = json.loads(target.read_text())
        assert document["span_count"] > 0
        assert document["failed_span_count"] == 0
        [spans] = document["traces"].values()
        hop_messages = sum(s["attrs"].get("messages", 0)
                           for s in spans if s["kind"] == "hop")
        counters = document["metrics"]["counters"]
        assert counters["resolver_messages_total"] == hop_messages

    def test_prometheus_output(self):
        out = run_cli("--format", "prometheus")
        assert "# TYPE sim_messages_sent_total counter" in out
        assert "resolver_resolution_latency_bucket" in out

    @pytest.mark.parametrize("scenario", ["hot", "failure"])
    def test_other_scenarios_run(self, scenario):
        out = run_cli("--scenario", scenario, "--style", "recursive")
        assert "trace t1" in out

    def test_failure_scenario_shows_failed_spans(self):
        out = run_cli("--scenario", "failure")
        assert "FAILED(" in out


def _splits_committed_and_aborted(spans) -> bool:
    splits = [span["attrs"] for span in spans if span["kind"] == "shard"]
    return ({attrs["committed"] for attrs in splits} == {True, False}
            and all({"source", "target", "split_at", "moved", "messages"}
                    <= set(attrs) for attrs in splits))


def _violation_dumps_hold_their_window(flight) -> bool:
    dumps = [dump for dump in flight["dumps"] if dump["kind"] == "violation"]
    return bool(dumps) and all(
        dump["kernel_trace"]
        and all(dump["window"][0] <= entry["time"] <= dump["window"][1]
                for entry in dump["kernel_trace"])
        for dump in dumps)


#: What each scenario's exports must show — asserted here once, for
#: the artifacts CI's ``inspect-smoke`` matrix uploads.  ``spans``:
#: span kinds / event names the summary holds (or a predicate on its
#: spans); ``series`` / ``absent``: Prometheus series the metrics text
#: holds / must not hold (a counter appears with its first increment,
#: so absence is the zero assertion); ``notes``: predicate on the
#: summary's scenario notes; ``flight``: predicate on the
#: ``--flight-out`` document of the scenarios that carry a recorder.
EXPORTS = {
    "basic": dict(
        spans={"batch", "resolution", "hop", "step"},
        series={"resolver_messages_total", "sim_messages_sent_total"},
        notes=lambda n: n["coherent"] and n["messages"] > 0),
    "hot": dict(
        args=("--policy", "invalidate"),
        spans={"batch", "resolution", "cache", "rebind"},
        series={"resolver_invalidation_messages_total",
                "cache_prefix_hits_total"},
        notes=lambda n: n["rounds"] == 3 and n["cached_steps"] > 0),
    "failure": dict(
        spans={"resolution", "failure", "drop"},
        series={"failures_injected_total",
                'resolver_resolution_outcomes_total{outcome="failed"}'},
        notes=lambda n: n["crashed"] == "server2"),
    "chaos": dict(
        spans={"retry", "failover", "circuit", "stale"},
        series={"resolver_retries_total", "resolver_failovers_total",
                "resolver_stale_served_total", "circuit_transitions_total",
                "failures_injected_total"},
        notes=lambda n: n["outcomes"]["weak"] > 0 and n["failovers"] > 0),
    "leases": dict(
        spans={"lease", "lease.grant", "lease.break", "lease.expire",
               "lease.grace"},
        series={"lease_grants_total", "lease_breaks_total",
                "lease_expirations_total", "lease_grace_served_total"},
        notes=lambda n: n["losses"] == 1
        and n["lease_stats"]["grace_hits"] > 0),
    "audit": dict(
        spans={"resolution", "rebind"},
        series={"audit_resolutions_total", "audit_violations_total",
                "audit_staleness_bucket", "slo_events_total"},
        notes=lambda n: n["violations"] >= 1
        and n["audit"]["by_verdict"].get("violation", 0) >= 1
        and n["audit"]["writes"] == 1 and n["audit"]["observed"] > 0
        and not n["audit"]["slo"]["violation-free"]["met"],
        flight=_violation_dumps_hold_their_window),
    "shard": dict(
        spans=_splits_committed_and_aborted,
        series={"resolver_shard_splits_total",
                "resolver_migration_messages_total"},
        notes=lambda n: n["splits"] > 0 and n["partition_ok"]),
    "shard-faults": dict(
        spans={"failover", "anti_entropy"},
        series={"resolver_failovers_total",
                "resolver_anti_entropy_syncs_total",
                "resolver_replica_stale_marked_total",
                "audit_resolutions_total", "failures_injected_total"},
        absent={"audit_violations_total"},
        notes=lambda n: n["outcomes"]["failed"] == 0
        and n["failovers"] > 0 and n["anti_entropy"] > 0
        and n["stale_remaining"] == 0 and n["violations"] == 0
        and n["partition_ok"] and n["audit"]["observed"] > 0
        and n["audit"]["violations"] == 0
        and n["audit"]["slo"]["violation-free"]["met"],
        flight=lambda f: f["captured"] >= 1
        and all(dump["kind"] != "violation" for dump in f["dumps"])),
}


@pytest.mark.parametrize("scenario", sorted(EXPORTS))
def test_scenario_exports_show_what_the_scenario_is_for(scenario, tmp_path):
    want = EXPORTS[scenario]
    select = ("--scenario", scenario, *want.get("args", ()))
    summary_file, flight_file = tmp_path / "summary", tmp_path / "flight"
    run_cli(*select, "--format", "summary", "--out", str(summary_file),
            *(("--flight-out", str(flight_file)) if "flight" in want
              else ()))
    summary = json.loads(summary_file.read_text())
    spans = [span for trace in summary["traces"].values() for span in trace]
    if callable(want["spans"]):
        assert want["spans"](spans)
    else:
        assert want["spans"] <= ({span["kind"] for span in spans}
                                 | {span["name"] for span in spans})
    assert want["notes"](summary["notes"]), summary["notes"]
    if "flight" in want:
        assert want["flight"](json.loads(flight_file.read_text()))
    metrics = run_cli(*select, "--format", "prometheus")
    assert all(series in metrics for series in want["series"])
    assert not any(series in metrics for series in want.get("absent", ()))

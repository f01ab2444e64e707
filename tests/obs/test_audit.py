"""Tests for the coherence auditor: ground-truth staleness
measurement, contract verdicts, SLO burn tracking, and the
violation-triggered flight recorder (PR 8)."""

from __future__ import annotations

import json

from repro.model.state import GlobalState
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.obs import (
    CoherenceAuditor,
    CoherenceContract,
    FlightRecorder,
    Instrumentation,
    SLObjective,
    SLOTracker,
)
from repro.sim.trace import TraceLog


def _world():
    """A small tree with one rebindable binding: /svc/app/cfg, plus a
    spare directory the rebind can point /svc/app at."""
    tree = NamingTree("root", sigma=GlobalState(), parent_links=True)
    tree.mkdir("svc")
    old_dir = tree.mkdir("svc/app")
    old_leaf = tree.mkfile("svc/app/cfg")
    new_dir = tree.mkdir("spare")
    new_leaf = tree.mkfile("spare/cfg")
    context = ProcessContext(tree.root)
    svc = tree.directory("svc")
    return tree, context, svc, old_dir, new_dir, old_leaf, new_leaf


def _rebind(auditor, directory, component, entity, time, epoch=0):
    """Apply a write the way the resolver does: mutate live σ, then
    feed the auditor the committed (old, new, time, epoch)."""
    context = directory.state
    old = context(component)
    context.bind(component, entity)
    return auditor.record_write(directory, component, old, entity, time,
                                epoch)


class TestGroundTruth:
    def test_fresh_answer_measures_zero(self):
        _tree, context, *_rest, old_leaf, _new = _world()
        auditor = CoherenceAuditor()
        assert auditor.measure(context, "/svc/app/cfg", old_leaf,
                               now=5.0) == 0.0

    def test_resolve_as_of_crosses_the_rebind_boundary(self):
        _tree, context, svc, old_dir, new_dir, old_leaf, new_leaf = \
            _world()
        auditor = CoherenceAuditor()
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        # Before the write the old directory (and its leaf) stood.
        assert auditor.resolve_as_of(
            context, "/svc/app/cfg", at=3.0) is old_leaf
        # At and after the commit instant, the new binding answers.
        assert auditor.resolve_as_of(
            context, "/svc/app/cfg", at=10.0) is new_leaf
        assert auditor.resolve_as_of(
            context, "/svc/app/cfg", at=40.0) is new_leaf
        # strict=True excludes the write committed exactly at `at`.
        assert auditor.resolve_as_of(
            context, "/svc/app/cfg", at=10.0, strict=True) is old_leaf

    def test_staleness_is_lag_behind_the_rebind(self):
        _tree, context, svc, _old, new_dir, old_leaf, _new = _world()
        auditor = CoherenceAuditor()
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        assert auditor.measure(context, "/svc/app/cfg", old_leaf,
                               now=25.0) == 25.0 - 10.0

    def test_phantom_answer_measures_from_oldest_write(self):
        tree, context, svc, _old, new_dir, _leaf, _new = _world()
        auditor = CoherenceAuditor()
        phantom = tree.mkfile("phantom")
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        # `phantom` was never the authoritative answer at any instant:
        # the conservative bound is the distance to the oldest commit.
        assert auditor.measure(context, "/svc/app/cfg", phantom,
                               now=30.0) == 30.0 - 10.0

    def test_history_of_records_old_and_new(self):
        _tree, _context, svc, old_dir, new_dir, *_rest = _world()
        auditor = CoherenceAuditor()
        write = _rebind(auditor, svc, "app", new_dir, time=10.0, epoch=3)
        assert write.old is old_dir and write.new is new_dir
        assert write.time == 10.0 and write.epoch == 3
        assert write.to_dict()["component"] == "app"


class TestVerdicts:
    def _stale_world(self):
        world = _world()
        auditor = CoherenceAuditor(
            contract=CoherenceContract(slack=6.0))
        _tree, context, svc, _old, new_dir, old_leaf, _new = world
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        return auditor, context, old_leaf

    def test_fresh(self):
        _tree, context, *_rest, old_leaf, _new = _world()
        auditor = CoherenceAuditor()
        verdict = auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=5.0, policy="none")
        assert verdict == "fresh"

    def test_weak_read_is_stale_declared_never_a_violation(self):
        auditor, context, old_leaf = self._stale_world()
        verdict = auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=100.0,
            policy="invalidate", weak=True)
        assert verdict == "stale_declared"
        assert auditor.violation_count == 0

    def test_invalidate_within_slack_is_allowed(self):
        auditor, context, old_leaf = self._stale_world()
        verdict = auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=14.0,
            policy="invalidate")
        assert verdict == "stale_allowed"

    def test_invalidate_past_slack_is_a_violation(self):
        auditor, context, old_leaf = self._stale_world()
        verdict = auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=30.0,
            policy="invalidate")
        assert verdict == "violation"
        assert auditor.violation_count == 1
        (detail,) = auditor.violations
        assert detail["staleness"] == 20.0

    def test_lease_bound_is_term_plus_slack(self):
        auditor, context, old_leaf = self._stale_world()
        assert auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=40.0,
            policy="lease", lease_term=30.0) == "stale_allowed"
        assert auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=47.0,
            policy="lease", lease_term=30.0) == "violation"

    def test_ttl_bound_is_ttl_plus_slack(self):
        auditor, context, old_leaf = self._stale_world()
        assert auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=70.0,
            policy="ttl", ttl=60.0) == "stale_allowed"
        assert auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=80.0,
            policy="ttl", ttl=60.0) == "violation"

    def test_failed_resolution_is_tallied_not_measured(self):
        auditor, context, old_leaf = self._stale_world()
        assert auditor.observe_resolution(
            context, "/svc/app/cfg", old_leaf, now=99.0,
            policy="invalidate", failed=True) == "failed"
        assert auditor.max_staleness == 0.0

    def test_observe_lookup_measures_binding_level_staleness(self):
        _tree, _context, svc, old_dir, new_dir, *_rest = _world()
        auditor = CoherenceAuditor()
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        assert auditor.observe_lookup(
            svc, "app", old_dir, now=30.0,
            policy="invalidate") == "violation"
        assert auditor.max_staleness == 20.0
        assert auditor.observe_lookup(
            svc, "app", new_dir, now=30.0, policy="invalidate") == "fresh"

    def test_summary_shape(self):
        auditor, context, old_leaf = self._stale_world()
        auditor.observe_resolution(context, "/svc/app/cfg", old_leaf,
                                   now=30.0, policy="invalidate")
        summary = auditor.summary()
        assert summary["observed"] == 1 and summary["writes"] == 1
        assert summary["violations"] == 1 and summary["stale"] == 1
        assert summary["max_claimed_staleness"] == 20.0
        assert summary["by_verdict"] == {"violation": 1}
        json.dumps(summary)  # JSON-safe


class TestMetricsEmission:
    def test_disabled_obs_keeps_tallies_without_metrics(self):
        auditor = CoherenceAuditor()
        obs = Instrumentation(enabled=False, auditor=auditor)
        assert obs.auditor is auditor
        _tree, context, svc, _old, new_dir, old_leaf, _new = _world()
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        auditor.observe_resolution(context, "/svc/app/cfg", old_leaf,
                                   now=30.0, policy="invalidate")
        assert auditor.violation_count == 1
        assert obs.metrics.snapshot()["counters"] == {}

    def test_enabled_obs_gets_staleness_histogram_and_counters(self):
        auditor = CoherenceAuditor()
        obs = Instrumentation(auditor=auditor)
        _tree, context, svc, _old, new_dir, old_leaf, _new = _world()
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        auditor.observe_resolution(context, "/svc/app/cfg", old_leaf,
                                   now=30.0, policy="invalidate")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["audit_writes_total"] == 1
        assert counters[
            'audit_resolutions_total{policy="invalidate",'
            'verdict="violation"}'] == 1
        assert counters[
            'audit_violations_total{policy="invalidate",'
            'shard="-"}'] == 1
        histograms = obs.metrics.snapshot()["histograms"]
        (key,) = [k for k in histograms if k.startswith(
            "audit_staleness")]
        assert histograms[key]["count"] == 1
        assert histograms[key]["sum"] == 20.0


class TestSLOTracker:
    def test_staleness_objective_burns(self):
        slo = SLOTracker([SLObjective("fresh-reads",
                                      max_staleness=5.0)])
        assert slo.observe(staleness=2.0) == []
        assert slo.observe(staleness=9.0) == ["fresh-reads"]
        status = slo.status()["fresh-reads"]
        assert status["events"] == 2 and status["burns"] == 1

    def test_latency_and_violation_objectives(self):
        slo = SLOTracker([
            SLObjective("fast", max_latency=10.0,
                        violation_free=False),
            SLObjective("clean", violation_free=True),
        ])
        assert slo.observe(staleness=0.0, latency=50.0) == ["fast"]
        assert slo.observe(staleness=0.0, violation=True) == ["clean"]

    def test_target_gates_met(self):
        # 0.875 and 1/8 are binary-exact, so the budget comparison is
        # not at the mercy of decimal rounding.
        slo = SLOTracker([SLObjective("mostly-fresh",
                                      max_staleness=1.0,
                                      target=0.875)])
        for _ in range(7):
            slo.observe(staleness=0.0)
        slo.observe(staleness=5.0)
        assert slo.status()["mostly-fresh"]["met"] is True
        slo.observe(staleness=5.0)
        assert slo.status()["mostly-fresh"]["met"] is False

    def test_duplicate_objective_names_rejected(self):
        try:
            SLOTracker([SLObjective("x"), SLObjective("x")])
        except ValueError:
            pass
        else:
            raise AssertionError("duplicate names must be rejected")


class TestFlightRecorder:
    def _violating_auditor(self, **recorder_kwargs):
        trace_log = TraceLog()
        trace_log.record(8.0, "send", "before the window")
        trace_log.record(28.0, "deliver", "inside the window")
        recorder = FlightRecorder(trace_log=trace_log,
                                  **recorder_kwargs)
        auditor = CoherenceAuditor(
            slo=SLOTracker([SLObjective("fresh", max_staleness=1.0)]),
            recorder=recorder)
        _tree, context, svc, _old, new_dir, old_leaf, _new = _world()
        _rebind(auditor, svc, "app", new_dir, time=10.0)
        return auditor, recorder, context, old_leaf

    def test_violation_and_slo_burn_each_capture_a_window(self):
        auditor, recorder, context, old_leaf = \
            self._violating_auditor(window=25.0)
        auditor.observe_resolution(context, "/svc/app/cfg", old_leaf,
                                   now=30.0, policy="invalidate")
        # One violation dump + one slo_burn dump for the same read.
        assert recorder.captured == 2
        kinds = sorted(dump["kind"] for dump in recorder.dumps)
        assert kinds == ["slo_burn", "violation"]
        violation = [d for d in recorder.dumps
                     if d["kind"] == "violation"][0]
        assert violation["window"] == [5.0, 30.0]
        assert violation["detail"]["staleness"] == 20.0
        # Both kernel entries fall inside [5, 30].
        details = [e["detail"] for e in violation["kernel_trace"]]
        assert details == ["before the window", "inside the window"]

    def test_dump_json_roundtrips(self, tmp_path):
        auditor, recorder, context, old_leaf = \
            self._violating_auditor(window=25.0)
        auditor.observe_resolution(context, "/svc/app/cfg", old_leaf,
                                   now=30.0, policy="invalidate")
        path = tmp_path / "flight.json"
        recorder.dump_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["captured"] == 2
        assert loaded["dumps"][0]["kernel_trace"]

    def test_ring_bound_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(FlightRecorder, "max_dumps", 2)
        auditor, recorder, context, old_leaf = \
            self._violating_auditor(window=5.0)
        for now in (30.0, 40.0, 50.0):
            auditor.observe_resolution(context, "/svc/app/cfg",
                                       old_leaf, now=now,
                                       policy="invalidate")
        assert recorder.captured == 6 and len(recorder.dumps) == 2
        assert recorder.dropped == 4
        assert auditor.summary()["flight_dumps"] == 6

"""Unit tests for the `repro.obs` tracer and span model."""

from __future__ import annotations

import dataclasses

from repro.obs import Instrumentation, NO_OBS, Tracer


class TestSpans:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer()
        outer = tracer.begin("resolution", "/a/b", 0.0, parent=None)
        inner = tracer.begin("hop", "query", 1.0)
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        tracer.end(inner, 2.0)
        tracer.end(outer, 3.0)
        assert outer.duration == 3.0
        assert inner.duration == 1.0
        assert tracer.current is None

    def test_parent_none_roots_a_new_trace(self):
        tracer = Tracer()
        first = tracer.begin("resolution", "one", 0.0, parent=None)
        tracer.end(first, 1.0)
        second = tracer.begin("resolution", "two", 1.0, parent=None)
        assert second.trace_id != first.trace_id
        assert second.parent_id is None

    def test_ids_are_deterministic(self):
        spans = []
        for _run in range(2):
            tracer = Tracer()
            root = tracer.begin("batch", "b", 0.0, parent=None)
            tracer.begin("resolution", "r", 0.0)
            spans.append((root.trace_id, root.span_id))
        assert spans[0] == spans[1] == ("t1", "s1")

    def test_non_activated_span_is_not_a_parent(self):
        tracer = Tracer()
        lookup = tracer.begin("lookup", "/a", 0.0, parent=None,
                              activate=False)
        other = tracer.begin("resolution", "/b", 0.0, parent=None)
        assert tracer.current is other
        assert other.trace_id != lookup.trace_id

    def test_end_pops_through_abandoned_children(self):
        tracer = Tracer()
        outer = tracer.begin("resolution", "r", 0.0, parent=None)
        tracer.begin("hop", "query", 0.0)  # never ended
        tracer.end(outer, 2.0)
        assert tracer.current is None

    def test_end_pops_only_down_to_the_ended_span(self):
        # An aborted walk leaves its hop open under the resolution it
        # belongs to; closing the resolution discards the orphan but
        # must leave the enclosing batch active.
        tracer = Tracer()
        batch = tracer.begin("batch", "b", 0.0, parent=None)
        resolution = tracer.begin("resolution", "r", 0.0)
        orphan = tracer.begin("hop", "query", 0.0)  # never ended
        tracer.end(resolution, 1.0)
        assert tracer.current is batch
        assert not orphan.finished
        tracer.end(batch, 2.0)
        assert tracer.current is None

    def test_end_of_a_span_not_on_the_stack_pops_nothing(self):
        # The stack is searched by identity: a value-equal copy of an
        # active span is still a different span.
        tracer = Tracer()
        outer = tracer.begin("resolution", "r", 0.0, parent=None)
        inner = tracer.begin("hop", "query", 0.0)
        twin = dataclasses.replace(outer)
        assert twin == outer and twin is not outer
        tracer.end(twin, 1.0)
        assert tracer.current is inner
        assert twin.end == 1.0 and not outer.finished

    def test_end_twice_is_harmless(self):
        tracer = Tracer()
        outer = tracer.begin("resolution", "r", 0.0, parent=None)
        inner = tracer.begin("hop", "query", 0.0)
        tracer.end(inner, 1.0)
        tracer.end(inner, 1.5)
        assert tracer.current is outer

    def test_fail_records_status_and_reason(self):
        tracer = Tracer()
        span = tracer.begin("hop", "query", 0.0, parent=None)
        span.fail("receiver machine down")
        assert span.status == "failed"
        assert "down" in span.reason

    def test_event_inherits_active_context(self):
        tracer = Tracer()
        root = tracer.begin("resolution", "r", 0.0, parent=None)
        instant = tracer.event("step", "a", 1.0)
        assert instant.trace_id == root.trace_id
        assert instant.parent_id == root.span_id
        assert instant.start == instant.end == 1.0

    def test_event_accepts_raw_message_context(self):
        # Kernel messages carry trace context as plain strings.
        tracer = Tracer()
        instant = tracer.event("deliver", "msg#1", 2.0,
                               trace_id="t9", parent_span_id="s42")
        assert instant.trace_id == "t9"
        assert instant.parent_id == "s42"

    def test_queries(self):
        tracer = Tracer()
        root = tracer.begin("resolution", "r", 0.0, parent=None)
        tracer.event("step", "a", 0.0)
        tracer.end(root, 1.0)
        lone = tracer.begin("rebind", "w", 1.0, parent=None)
        tracer.end(lone, 2.0)
        assert [s.kind for s in tracer.of_kind("step")] == ["step"]
        assert [s.trace_id for s in tracer.spans] == [
            root.trace_id, root.trace_id, lone.trace_id]
        assert len(tracer) == 3


class TestRingBuffer:
    def test_oldest_spans_evicted(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            span = tracer.begin("hop", f"h{index}", float(index),
                                parent=None)
            tracer.end(span, float(index))
        assert len(tracer) == 3
        assert tracer.dropped_spans == 2
        assert [s.name for s in tracer.spans] == ["h2", "h3", "h4"]

    def test_unbounded_by_default(self):
        tracer = Tracer()
        for index in range(100):
            tracer.event("step", str(index), 0.0, trace_id="t1")
        assert len(tracer) == 100
        assert tracer.dropped_spans == 0


class TestInstrumentation:
    def test_enabled_bundle(self):
        obs = Instrumentation()
        assert obs.enabled
        obs.metrics.counter("c").inc()
        assert obs.metrics.value_of("c") == 1.0

    def test_no_obs_is_shared_and_inert(self):
        assert not NO_OBS.enabled
        assert len(NO_OBS.tracer) == 0
        assert len(NO_OBS.metrics) == 0

    def test_max_spans_passes_through(self):
        obs = Instrumentation(max_spans=2)
        for index in range(4):
            obs.tracer.event("step", str(index), 0.0, trace_id="t1")
        assert len(obs.tracer) == 2
        assert obs.tracer.dropped_spans == 2

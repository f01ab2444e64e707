"""Unit tests for the `repro.obs` metrics instruments."""

from __future__ import annotations

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        counter = Counter("messages_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_rejects_decrease(self):
        counter = Counter("messages_total")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(gauge.value + 2)
        gauge.set(gauge.value - 1)
        assert gauge.value == 4.0
        assert gauge.high_water == 5.0

    def test_high_water(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2.0
        assert gauge.high_water == 7.0


class TestHistogram:
    def test_aggregates(self):
        histogram = Histogram("latency", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 3.0, 3.0, 7.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == pytest.approx(113.5)
        assert histogram.mean == pytest.approx(113.5 / 5)
        assert histogram.min_value == 0.5
        assert histogram.max_value == 100.0

    def test_cumulative_buckets(self):
        histogram = Histogram("latency", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 3.0, 3.0, 7.0, 100.0):
            histogram.observe(value)
        cumulative = dict(histogram.cumulative())
        assert cumulative[1.0] == 1
        assert cumulative[5.0] == 3
        assert cumulative[10.0] == 4
        assert cumulative[float("inf")] == 5

    def test_boundary_lands_in_its_bucket(self):
        # le semantics: an observation equal to a bound counts in it.
        histogram = Histogram("latency", buckets=(1.0, 5.0))
        histogram.observe(5.0)
        assert dict(histogram.cumulative())[5.0] == 1

    def test_bounded_storage(self):
        histogram = Histogram("latency", buckets=(1.0, 5.0))
        for index in range(10_000):
            histogram.observe(float(index))
        assert len(histogram.bucket_counts) == 3  # bounds + overflow


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("load", {"server": "s1"}).inc()
        registry.counter("load", {"server": "s2"}).inc(2)
        assert registry.value_of("load", {"server": "s1"}) == 1.0
        assert registry.value_of("load", {"server": "s2"}) == 2.0
        assert registry.total_of("load") == 3.0

    def test_label_order_is_normalised(self):
        registry = MetricsRegistry()
        registry.counter("c", {"a": "1", "b": "2"}).inc()
        assert registry.counter("c", {"b": "2", "a": "1"}).value == 1.0

    def test_value_of_absent_is_zero(self):
        assert MetricsRegistry().value_of("nope") == 0.0

    def test_snapshot_keys_are_prometheus_style(self):
        registry = MetricsRegistry()
        registry.counter("load", {"server": "s1"}).inc()
        registry.gauge("depth").set(2)
        registry.histogram("latency", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {'load{server="s1"}': 1.0}
        assert snap["gauges"]["depth"] == {"value": 2.0,
                                           "high_water": 2.0}
        histogram = snap["histograms"]["latency"]
        assert histogram["count"] == 1
        assert histogram["buckets"] == [[1.0, 1]]
        assert histogram["inf_count"] == 1

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(3)
        json.dumps(registry.snapshot())

    def test_len_counts_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3

"""The obs hot path, counted not timed.

What an observed ``resolve()`` may *not* repeat: the sampling verdict
is asked once per minted trace (every span of the trace inherits it),
and a steady-state resolution finds its labelled series through bound
:class:`~repro.obs.metrics.Family` handles — never by freezing a label
dict again.
"""

from __future__ import annotations

import pytest

from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.obs import (
    CoherenceAuditor,
    Instrumentation,
    MetricsRegistry,
    SpanSampler,
)
from repro.obs import metrics as metrics_module
from repro.sim.kernel import Simulator
from repro.workloads.zipf import build_zipf_namespace


class CountingSampler(SpanSampler):
    __slots__ = ("asked",)

    def __init__(self, rate: float, seed: int = 0):
        super().__init__(rate, seed)
        self.asked: list[int] = []

    def keep_trace(self, trace_seq: int) -> bool:
        self.asked.append(trace_seq)
        return super().keep_trace(trace_seq)


def _deployment(sampler):
    obs = Instrumentation(sampler=sampler, auditor=CoherenceAuditor())
    simulator = Simulator(seed=0, obs=obs)
    network = simulator.network("lan")
    pool = [simulator.machine(network, f"s{i}") for i in range(3)]
    client_m = simulator.machine(network, "client-m")
    tree = NamingTree("root", sigma=simulator.sigma)
    namespace = build_zipf_namespace(tree, "hot", count=60, distinct=8)
    placement = DirectoryPlacement()
    placement.place(tree.root, client_m)
    placement.place_sharded(namespace.directory, *pool, replicas=2)
    resolver = DistributedResolver(
        simulator, placement, retry_policy=RetryPolicy(max_attempts=3))
    client = simulator.spawn(client_m, "client")
    names = ["/hot/" + name for name in namespace.names]
    return obs, resolver, client, ProcessContext(tree.root), names, \
        namespace


class TestOneSamplingDecisionPerTrace:
    @pytest.mark.parametrize("rate", [0.0, 0.05, 1.0])
    def test_keep_trace_is_asked_once_per_minted_trace(self, rate):
        sampler = CountingSampler(rate, seed=1)
        obs, resolver, client, context, names, namespace = \
            _deployment(sampler)
        for name in names:
            resolver.resolve(client, context, name)
        resolver.resolve_many(client, context, names[:10])
        resolver.rebind(namespace.directory, "fresh",
                        namespace.shared_leaf)
        # 60 resolutions + 1 batch + 1 rebind, 8+ spans each — and one
        # question per trace, in minting order.
        minted = len(names) + 2
        assert sampler.asked == list(range(1, minted + 1))
        spans = obs.tracer.sampled_out + len(obs.tracer)
        assert spans > 8 * len(names)

    def test_the_verdict_rides_on_every_span_of_the_trace(self):
        sampler = CountingSampler(0.5, seed=4)
        obs, resolver, client, context, names, _ns = \
            _deployment(sampler)
        obs.tracer.keep_recent()    # what a wired flight recorder does
        for name in names:
            resolver.resolve(client, context, name)
        recent = obs.tracer.recent_window(0.0, 1e9)
        assert {span.kind for span in recent} \
            >= {"resolution", "hop", "step", "deliver"}
        for span in recent:
            assert span.sampled == SpanSampler.keep_trace(
                sampler, int(span.trace_id[1:])), span
        assert {span.sampled for span in recent} == {True, False}


class TestBoundMetricHandles:
    def test_steady_state_resolve_freezes_no_label_set(self, monkeypatch):
        obs, resolver, client, context, names, _ns = _deployment(
            SpanSampler(rate=0.05, seed=1))
        for name in names:          # first sight of every series
            resolver.resolve(client, context, name)
        before = obs.metrics.snapshot()
        frozen: list = []
        freeze = metrics_module._freeze_labels

        def counting(labels):
            frozen.append(labels)
            return freeze(labels)

        monkeypatch.setattr(metrics_module, "_freeze_labels", counting)
        for name in names:
            resolver.resolve(client, context, name)
        assert frozen == []
        after = obs.metrics.snapshot()
        assert list(after["counters"]) == list(before["counters"])
        assert after["counters"]["resolver_resolutions_total"
                                 '{style="iterative"}'] == 2 * len(names)

    def test_family_creates_a_series_on_first_emission_only(self):
        registry = MetricsRegistry()
        load = registry.counter_family("load_total", "server")
        assert len(registry) == 0
        load.labels("a").inc()
        load.labels("a").inc(2)
        load.labels("b").inc()
        assert load.labels("a") is registry.counter("load_total",
                                                    {"server": "a"})
        assert registry.snapshot()["counters"] == {
            'load_total{server="a"}': 3.0, 'load_total{server="b"}': 1.0}

    def test_family_covers_gauges_and_histograms(self):
        registry = MetricsRegistry()
        depth = registry.gauge_family("depth", "process")
        depth.labels("p").set(3)
        lag = registry.histogram_family("lag", "policy", "shard",
                                        buckets=(1.0, 5.0))
        lag.labels("ttl", "-").observe(2.0)
        assert registry.value_of("depth", {"process": "p"}) == 3.0
        histogram = registry.histogram("lag", {"shard": "-",
                                               "policy": "ttl"})
        assert histogram.count == 1 and histogram.buckets == (1.0, 5.0)

    def test_family_rejects_the_wrong_number_of_values(self):
        family = MetricsRegistry().counter_family("c", "a", "b")
        with pytest.raises(ValueError):
            family.labels("only-one")

"""End-to-end acceptance tests for the observability layer.

The load-bearing property (ISSUE 3): a single ``resolve_many`` over a
three-server placement yields ONE trace whose spans reconstruct the
exact hop sequence, and the trace reconciles with the reported
:class:`ResolutionCost` — summed hop-span message counts equal
``cost.messages`` and summed ``prefix.hit`` consumptions equal
``cost.cached_steps`` — for both resolution styles and all three
cache policies.  Under failure injection (a crashed machine, a
partition) the affected spans are marked failed and the message
counters still reconcile.
"""

from __future__ import annotations

import pytest

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver, ResolutionStyle
from repro.nameservice.walk import ResolutionCost
from repro.obs import Instrumentation
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator

TTL = 30.0
STYLES = list(ResolutionStyle)
POLICIES = list(CachePolicy)

NAMES = ["/a/b/c/leaf", "/a/b/c/leaf", "/a/b/f2", "/a/f1",
         "/a/b/c", "/x/y/g", "/a/zzz", "a/b/c/leaf"]


def make_world(policy=CachePolicy.NONE, ttl=TTL, split_c=False):
    """The three-server placement of test_resolver_batch, instrumented.

    root and /a live on the client's machine, /a/b (and /x, /x/y) on
    b-m, /a/b/c on c-m.  With ``split_c`` the c machine sits on its
    own network so a partition can sever it.
    """
    obs = Instrumentation()
    simulator = Simulator(seed=0, obs=obs)
    network = simulator.network("lan")
    c_net = simulator.network("c-net") if split_c else network
    m_client = simulator.machine(network, "client-m")
    m_b = simulator.machine(network, "b-m")
    m_c = simulator.machine(c_net, "c-m")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b/c")
    tree.mkdir("x/y")
    tree.mkfile("a/b/c/leaf")
    tree.mkfile("a/f1")
    tree.mkfile("a/b/f2")
    tree.mkfile("x/y/g")
    placement = DirectoryPlacement()
    placement.place(tree.root, m_client)
    placement.place(tree.directory("a"), m_client)
    placement.place(tree.directory("a/b"), m_b)
    placement.place(tree.directory("a/b/c"), m_c)
    placement.place(tree.directory("x"), m_b)
    placement.place(tree.directory("x/y"), m_b)
    c_v2 = context_object("c-v2")
    simulator.sigma.add(c_v2)
    leaf_v2 = ObjectEntity("leaf-v2")
    simulator.sigma.add(leaf_v2)
    c_v2.state.bind("leaf", leaf_v2)
    placement.place(c_v2, m_c)
    client = simulator.spawn(m_client, "client")
    context = ProcessContext(tree.root)
    resolver = DistributedResolver(simulator, placement,
                                   cache_policy=policy, cache_ttl=ttl)
    return {
        "obs": obs, "simulator": simulator, "resolver": resolver,
        "client": client, "context": context, "tree": tree,
        "machines": {"client": m_client, "b": m_b, "c": m_c},
        "networks": (network, c_net), "c_v2": c_v2,
    }


def hop_message_sum(spans):
    return sum(s.attrs.get("messages", 0) for s in spans
               if s.kind == "hop")


def cached_consumed_sum(spans):
    return sum(s.attrs.get("consumed", 0) for s in spans
               if s.kind == "cache" and s.name == "prefix.hit")


class TestSingleTraceReconciliation:
    """One resolve_many == one trace; trace totals == cost totals."""

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batch_yields_one_reconciled_trace(self, style, policy):
        world = make_world(policy)
        obs = world["obs"]
        results = world["resolver"].resolve_many(
            world["client"], world["context"], NAMES, style)
        cost = ResolutionCost.merge(c for _entity, c in results)

        spans = obs.tracer.spans
        assert len({s.trace_id for s in spans}) == 1

        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].kind == "batch"
        resolutions = [s for s in spans if s.kind == "resolution"]
        assert len(resolutions) == len(NAMES)
        assert all(s.parent_id == roots[0].span_id
                   for s in resolutions)
        assert all(s.finished for s in spans)

        # The reconciliation invariants.
        assert hop_message_sum(spans) == cost.messages
        assert roots[0].attrs["messages"] == cost.messages
        assert cached_consumed_sum(spans) == cost.cached_steps
        walked = [s for s in spans if s.kind == "step"]
        assert len(walked) == cost.steps - cost.cached_steps

        # Per-resolution attrs match per-name costs.  Spans appear in
        # the batch's prefix-sorted processing order (not input
        # order), and the batch's single closing answer hop is
        # charged to the last processed name *after* its span closed
        # — so compare steps/cached_steps as a multiset keyed by name.
        from collections import Counter

        from repro.model.names import CompoundName
        by_span = Counter((s.name, s.attrs["steps"],
                           s.attrs["cached_steps"])
                          for s in resolutions)
        by_cost = Counter((str(CompoundName.coerce(n)) or "<empty>",
                           c.steps, c.cached_steps)
                          for n, (_e, c) in zip(NAMES, results))
        assert by_span == by_cost

        # The resolver-level counter saw every hop message too.
        assert obs.metrics.value_of(
            "resolver_messages_total") == cost.messages

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_sequential_resolves_are_separate_traces(self, style,
                                                     policy):
        world = make_world(policy)
        obs = world["obs"]
        total = 0
        for name_ in ("/a/b/c/leaf", "/a/b/f2"):
            _entity, cost = world["resolver"].resolve(
                world["client"], world["context"], name_, style)
            total += cost.messages
        trace_ids = {s.trace_id for s in obs.tracer.spans}
        assert len(trace_ids) == 2
        for trace_id in trace_ids:
            roots = [s for s in obs.tracer.spans
                     if s.trace_id == trace_id and s.parent_id is None]
            assert [s.kind for s in roots] == ["resolution"]
        assert hop_message_sum(obs.tracer.spans) == total
        assert obs.metrics.value_of("resolver_messages_total") == total


class TestExactHopSequence:
    """The trace reconstructs the walk's message legs in order."""

    def hop_names(self, world):
        return [s.name for s in world["obs"].tracer.of_kind("hop")]

    def test_iterative_cold_walk(self):
        world = make_world(CachePolicy.NONE)
        world["resolver"].resolve(world["client"], world["context"],
                                  "/a/b/c/leaf",
                                  ResolutionStyle.ITERATIVE)
        # client walks / and a locally, queries b-m, is referred back,
        # queries c-m, and the answer comes home.
        assert self.hop_names(world) == ["query", "referral", "query",
                                         "answer"]

    def test_recursive_cold_walk(self):
        world = make_world(CachePolicy.NONE)
        world["resolver"].resolve(world["client"], world["context"],
                                  "/a/b/c/leaf",
                                  ResolutionStyle.RECURSIVE)
        assert self.hop_names(world) == ["forward", "forward", "answer"]

    def test_warm_cache_skips_the_walk(self):
        world = make_world(CachePolicy.TTL)
        for _ in range(2):
            world["resolver"].resolve(world["client"], world["context"],
                                      "/a/b/c/leaf",
                                      ResolutionStyle.ITERATIVE)
        second = [s for s in world["obs"].tracer.spans
                  if s.trace_id == "t2"]
        hops = [s.name for s in second if s.kind == "hop"]
        assert hops == ["query", "answer"]  # straight to c-m and back
        assert cached_consumed_sum(second) == 4

    def test_hops_parent_their_deliveries(self):
        world = make_world(CachePolicy.NONE)
        world["resolver"].resolve(world["client"], world["context"],
                                  "/a/b/c/leaf",
                                  ResolutionStyle.ITERATIVE)
        spans = world["obs"].tracer.spans
        hops = {s.span_id: s for s in spans if s.kind == "hop"}
        deliveries = [s for s in spans if s.kind == "deliver"]
        assert len(deliveries) == len(hops)
        for delivery in deliveries:
            assert delivery.parent_id in hops
            assert delivery.trace_id == hops[delivery.parent_id].trace_id


class TestFailureInjection:
    """Satellite (c): spans under crashes and partitions."""

    @pytest.mark.parametrize("style", STYLES)
    def test_crashed_machine_marks_spans_failed(self, style):
        world = make_world(CachePolicy.NONE)
        obs = world["obs"]
        resolver = world["resolver"]
        _entity, warm = resolver.resolve(
            world["client"], world["context"], "/a/b/c/leaf", style)
        FailureInjector(world["simulator"]).crash_machine(
            world["machines"]["c"])
        _entity, cost = resolver.resolve(
            world["client"], world["context"], "/a/b/c/leaf", style)

        failed_hops = [s for s in obs.tracer.of_kind("hop")
                       if s.status == "failed"]
        assert failed_hops, "the severed legs must be visible"
        assert all(s.reason for s in failed_hops)
        resolution = obs.tracer.of_kind("resolution")[-1]
        assert resolution.status == "failed"
        assert obs.tracer.of_kind("failure")[0].attrs["injected"] == \
            "crash"
        assert obs.metrics.value_of("failures_injected_total",
                                    {"kind": "crash"}) == 1.0
        # Counters still reconcile: every counted message is a hop span.
        assert hop_message_sum(obs.tracer.spans) == \
            warm.messages + cost.messages
        assert obs.metrics.value_of("resolver_messages_total") == \
            warm.messages + cost.messages

    @pytest.mark.parametrize("style", STYLES)
    def test_partition_marks_spans_failed(self, style):
        world = make_world(CachePolicy.NONE, split_c=True)
        obs = world["obs"]
        resolver = world["resolver"]
        _entity, warm = resolver.resolve(
            world["client"], world["context"], "/a/b/c/leaf", style)
        network, c_net = world["networks"]
        FailureInjector(world["simulator"]).partition(network, c_net)
        _entity, cost = resolver.resolve(
            world["client"], world["context"], "/a/b/c/leaf", style)

        failed_hops = [s for s in obs.tracer.of_kind("hop")
                       if s.status == "failed"]
        assert failed_hops
        resolution = obs.tracer.of_kind("resolution")[-1]
        assert resolution.status == "failed"
        drops = obs.tracer.of_kind("drop")
        assert drops and all(
            d.parent_id in {s.span_id for s in failed_hops}
            for d in drops)
        assert obs.metrics.value_of("failures_injected_total",
                                    {"kind": "partition"}) == 1.0
        assert hop_message_sum(obs.tracer.spans) == \
            warm.messages + cost.messages
        assert obs.metrics.value_of("resolver_messages_total") == \
            warm.messages + cost.messages
        assert obs.metrics.value_of(
            "sim_messages_dropped_total") == len(drops)


class TestRebindAndInvalidate:
    def test_rebind_span_covers_the_fanout(self):
        world = make_world(CachePolicy.INVALIDATE)
        resolver = world["resolver"]
        obs = world["obs"]
        resolver.resolve(world["client"], world["context"],
                         "/a/b/c/leaf", ResolutionStyle.ITERATIVE)
        resolver.rebind(world["tree"].directory("a/b"), "c",
                        world["c_v2"])
        rebinds = obs.tracer.of_kind("rebind")
        assert len(rebinds) == 1
        assert rebinds[0].attrs["messages"] == \
            resolver.invalidation_messages > 0
        invalidated = [s for s in obs.tracer.of_kind("cache")
                       if s.name == "prefix.invalidated"]
        assert invalidated
        assert obs.metrics.total_of(
            "cache_prefix_invalidations_total") > 0

    def test_ttl_expiry_is_observable(self):
        world = make_world(CachePolicy.TTL, ttl=5.0)
        resolver = world["resolver"]
        obs = world["obs"]
        resolver.resolve(world["client"], world["context"],
                         "/a/b/c/leaf", ResolutionStyle.ITERATIVE)
        world["simulator"].schedule(10.0, lambda: None, note="wait")
        world["simulator"].run()
        resolver.resolve(world["client"], world["context"],
                         "/a/b/c/leaf", ResolutionStyle.ITERATIVE)
        expired = [s for s in obs.tracer.of_kind("cache")
                   if s.name == "prefix.expired"]
        assert expired
        assert obs.metrics.total_of(
            "cache_prefix_expirations_total") > 0


class TestDisabledByDefault:
    def test_uninstrumented_run_records_nothing(self):
        simulator = Simulator(seed=0)
        assert not simulator.obs.enabled
        network = simulator.network("lan")
        machine = simulator.machine(network, "m")
        sender = simulator.spawn(machine, "p1")
        receiver = simulator.spawn(machine, "p2")
        sender.send(receiver, payload="ping")
        simulator.run()
        assert len(simulator.obs.tracer) == 0
        assert len(simulator.obs.metrics) == 0

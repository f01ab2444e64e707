"""Failure spans under batched resolution and failover.

Satellite coverage for ISSUE 4: a replica crashes *mid-batch* (booked
on the kernel's event queue, so the fault fires while the batch's hop
traffic is in flight) and the trace must still tell the whole story —
per-name outcomes, hop-by-hop message reconciliation against the
merged :class:`ResolutionCost`, and failed-hop spans that balance with
the kernel's drop accounting.  A second suite pins the exact hop
sequence of a failover walk, retried legs included.
"""

from __future__ import annotations

from repro.model.resolution import resolve as local_resolve
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.walk import ResolutionCost
from repro.obs import Instrumentation
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator

NAMES = ["/a/b/f0", "/a/b/f1", "/x/y/g0", "/x/y/g1"]

#: The batch walks /a/b (on m1) first; its referral leg lands at
#: t=2.0, so a crash at t=2.5 severs m2 exactly while the batch's
#: first query toward /x/y is in flight.
CRASH_AT = 2.5


def make_world(retry: bool):
    """Two directory chains: /a/b on m1 (single placement) and /x/y
    replicated on m2 (primary) + m3, roots on the client machine."""
    obs = Instrumentation()
    simulator = Simulator(seed=0, obs=obs)
    network = simulator.network("lan")
    m_client = simulator.machine(network, "client-m")
    m1 = simulator.machine(network, "m1")
    m2 = simulator.machine(network, "m2")
    m3 = simulator.machine(network, "m3")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("a/b")
    tree.mkdir("x/y")
    for name_ in ("a/b/f0", "a/b/f1", "x/y/g0", "x/y/g1"):
        tree.mkfile(name_)
    placement = DirectoryPlacement()
    placement.place(tree.root, m_client)
    placement.place(tree.directory("a"), m_client)
    placement.place(tree.directory("a/b"), m1)
    placement.place(tree.directory("x"), m_client)
    placement.place_replicated(tree.directory("x/y"), m2, m3)
    client = simulator.spawn(m_client, "client")
    context = ProcessContext(tree.root)
    policy = RetryPolicy(max_attempts=2, base_backoff=0.2,
                         max_backoff=0.5, jitter=0.0) if retry else None
    resolver = DistributedResolver(simulator, placement,
                                   cache_policy=CachePolicy.NONE,
                                   retry_policy=policy)
    return {"obs": obs, "simulator": simulator, "resolver": resolver,
            "client": client, "context": context, "tree": tree,
            "machines": {"m1": m1, "m2": m2, "m3": m3},
            "injector": FailureInjector(simulator)}


def run_batch_with_midbatch_crash(retry: bool):
    world = make_world(retry)
    world["injector"].schedule(CRASH_AT, "crash",
                               world["machines"]["m2"])
    results = world["resolver"].resolve_many(
        world["client"], world["context"], NAMES)
    return world, results


def hop_spans(obs):
    return obs.tracer.of_kind("hop")


def hop_message_sum(obs):
    return sum(s.attrs.get("messages", 0) for s in hop_spans(obs))


class TestMidBatchCrashWithFailover:
    def test_per_name_outcomes_all_recover(self):
        world, results = run_batch_with_midbatch_crash(retry=True)
        assert not world["machines"]["m2"].alive  # the fault fired
        for name_, (entity, cost) in zip(NAMES, results):
            assert entity is local_resolve(world["context"], name_)
            assert not cost.failed, name_
        merged = ResolutionCost.merge(c for _e, c in results)
        assert merged.retries >= 1
        assert merged.failovers == 1  # /x/y served by m3
        assert not merged.weak
        # The failover is charged to the name that crossed the crash.
        assert results[2][1].failovers == 1

    def test_cost_reconciles_with_hop_spans(self):
        world, results = run_batch_with_midbatch_crash(retry=True)
        obs = world["obs"]
        merged = ResolutionCost.merge(c for _e, c in results)
        assert all(s.finished for s in obs.tracer.spans)
        assert hop_message_sum(obs) == merged.messages
        assert obs.metrics.value_of("resolver_messages_total") == \
            merged.messages
        batch = [s for s in obs.tracer.spans if s.kind == "batch"]
        assert len(batch) == 1
        assert batch[0].attrs["messages"] == merged.messages

    def test_failed_hop_spans_balance_with_kernel_drops(self):
        world, _results = run_batch_with_midbatch_crash(retry=True)
        obs = world["obs"]
        failed = [s for s in hop_spans(obs) if s.status == "failed"]
        assert failed and all(s.reason for s in failed)
        # Every failed hop here carried a real (dropped) message, and
        # every kernel drop event parents one of those hop spans.
        drops = obs.tracer.of_kind("drop")
        assert len(drops) == len(failed)
        assert sum(s.attrs["messages"] for s in failed) == len(drops)
        failed_ids = {s.span_id for s in failed}
        assert all(d.parent_id in failed_ids for d in drops)
        assert obs.metrics.value_of("sim_messages_dropped_total") == \
            len(drops)

    def test_recovered_resolutions_are_not_marked_failed(self):
        world, _results = run_batch_with_midbatch_crash(retry=True)
        obs = world["obs"]
        resolutions = obs.tracer.of_kind("resolution")
        assert len(resolutions) == len(NAMES)
        assert all(s.status != "failed" for s in resolutions)
        assert all(s.attrs["coherence"] == "coherent"
                   for s in resolutions)
        assert obs.metrics.value_of(
            "resolver_failovers_total") == 1.0
        assert obs.metrics.value_of("failures_injected_total",
                                    {"kind": "crash"}) == 1.0


class TestMidBatchCrashFailFast:
    def test_per_name_outcomes_and_failed_spans(self):
        world, results = run_batch_with_midbatch_crash(retry=False)
        merged = ResolutionCost.merge(c for _e, c in results)
        # /a names finished before the crash; each /x name lost its one
        # query toward dead m2, so its step failed and read on at home.
        assert not results[0][1].failed and not results[1][1].failed
        assert results[2][1].failed and results[3][1].failed
        assert merged.retries == 0 and merged.failovers == 0
        obs = world["obs"]
        failed = [s for s in hop_spans(obs) if s.status == "failed"]
        assert [s.name for s in failed] == ["query", "query"]
        assert all("m2" in s.attrs["to"] for s in failed)
        resolutions = obs.tracer.of_kind("resolution")
        assert [s.status for s in resolutions] == \
            ["ok", "ok", "failed", "failed"]
        assert all(s.reason == "directory y unreachable"
                   for s in resolutions[2:])
        # The walk never stood at the unreached m2, so no leg leaves it.
        assert not [s for s in hop_spans(obs) if "m2" in s.attrs["from"]]

    def test_cost_still_reconciles(self):
        world, results = run_batch_with_midbatch_crash(retry=False)
        obs = world["obs"]
        merged = ResolutionCost.merge(c for _e, c in results)
        assert hop_message_sum(obs) == merged.messages
        # Every hop span carried a real message: no zero-message leg
        # from a dead sender.
        assert all(s.attrs["messages"] == 1 for s in hop_spans(obs))
        assert obs.metrics.value_of("resolver_messages_total") == \
            merged.messages
        batch = [s for s in obs.tracer.spans if s.kind == "batch"]
        assert batch[0].attrs["messages"] == merged.messages


class TestFailoverHopSequence:
    def test_retried_legs_emit_one_hop_span_per_attempt(self):
        world = make_world(retry=True)
        m2 = world["machines"]["m2"]
        resolver = world["resolver"]
        # Warm once so m2's server process exists, then crash it.
        resolver.resolve(world["client"], world["context"], "/x/y/g0")
        world["injector"].crash_machine(m2)
        seen = len(world["obs"].tracer.spans)
        entity, cost = resolver.resolve(world["client"],
                                        world["context"], "/x/y/g0")
        assert entity is local_resolve(world["context"], "/x/y/g0")
        hops = [s for s in world["obs"].tracer.spans[seen:]
                if s.kind == "hop"]
        # Two dropped query attempts against dead m2, the successful
        # failover query to m3, and the answer home.
        assert [s.name for s in hops] == ["query", "query", "query",
                                          "answer"]
        assert [s.status == "failed" for s in hops] == \
            [True, True, False, False]
        assert all("m2" in s.attrs["to"] for s in hops[:2])
        assert "m3" in hops[2].attrs["to"]
        assert cost.retries == 1 and cost.failovers == 1
        assert cost.messages == 4
        assert sum(s.attrs["messages"] for s in hops) == cost.messages

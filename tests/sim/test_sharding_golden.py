"""Determinism goldens for shard splitting and migration.

Live splits are placement mutations driven by observed load, with
migrations travelling as simulated messages — so they must be exactly
as deterministic as any other kernel workload: for a fixed seed, the
same splits at the same points, the same migration traffic, and a
byte-identical trace log.  These tests pin sha256 digests of a
canonical split-and-migrate scenario (including an aborted split onto
a crashed machine) and of the A10 and A11 experiments' full result
dicts at reduced scale, across seeds 0/1/7/42.

Regenerate (only when a change is *intended* to alter observable
behaviour)::

    PYTHONPATH=src python tests/sim/test_sharding_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.sharding import ShardManager
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.workloads.zipf import ZipfSampler, build_zipf_namespace

SEEDS = (0, 1, 7, 42)

#: sha256 of the canonical split scenario's formatted trace log.
TRACE_GOLDENS = {
    0: "4b80051d6b8c41865314a260139d6653d0721b1b555075af7b70b40775c0d2cc",
    1: "a41b3a4ee27dc9f8eccd248c2d4cd3cd8b63c08dbe73c60c42cd03052ad48e15",
    7: "2debda8461e8bd4e9d5e92d970c9b25c0ec2f93079629b3336629118307a935a",
    42: "0b5b6ae2ca8b56b00dc229f49589ed339cec6e77364682ac75597603b52ced04",
}

#: sha256 of A10's full ``ExperimentResult.to_dict()`` (reduced scale).
EXPERIMENT_GOLDENS = {
    0: "61b0811d637d5c6180789efbac96a17ebe297809cb6340f4564382e527e48bd3",
    1: "baf3b57d2b8f28ea1fca86c53772124391223ac7357ae3a3eedca85f427f65fa",
    7: "c7ee5410523f100b57e98ee3a6dd9133b4a0310cc0f0d5f4bb53ca501091c52f",
    42: "2a0f28ae12889cc7f316f65c07c60ff482d23a38a99de88f7d130cd09c43c9fe",
}

#: sha256 of A11's full ``ExperimentResult.to_dict()`` (reduced scale).
A11_GOLDENS = {
    0: "f995450db2124b76fdfb522117bb564b01cb013bc2eda96da0c8640583439fa7",
    1: "8c3d143e3d0b33b3091b2070614aa219c74759b62be809f44724dac6a8502d27",
    7: "a343860ea67b1a36345dd09b1fcda34f3c1013386833a620154392e44a92a1e4",
    42: "7fa7f2bf7d309f932baeda30349d1d70d8657f92cfdb62e1c21338eb72e7c066",
}


def run_split_scenario(seed: int) -> Simulator:
    """A fixed sharding workload touching every migration path: a
    Zipf run hot enough to trigger several live splits, a rebind into
    a shard, and a split aborted against a crashed target."""
    simulator = Simulator(seed=seed)
    network = simulator.network("lan")
    pool = [simulator.machine(network, f"s{i}") for i in range(4)]
    client_m = simulator.machine(network, "client-m")
    tree = NamingTree("root", sigma=simulator.sigma)
    namespace = build_zipf_namespace(tree, "hot", count=3000,
                                     distinct=64)
    placement = DirectoryPlacement()
    placement.place(tree.root, client_m)
    shard_map = placement.place_sharded(namespace.directory, pool[0])
    client = simulator.spawn(client_m, "client")
    resolver = DistributedResolver(simulator, placement)
    resolver.shard_manager = ShardManager(
        resolver, pool=pool, split_fraction=0.3,
        check_every=100, min_window=50)
    context = ProcessContext(tree.root)
    sampler = ZipfSampler(3000, rng=random.Random(seed))
    for rank in sampler.sample_many(800):
        resolver.resolve(client, context,
                         "/hot/" + namespace.names[rank])
    resolver.rebind(namespace.directory, "fresh",
                    namespace.shared_leaf)
    # One split against a crashed target: commit-last must abort it
    # without disturbing the map (and the abort is itself traced).
    victim = pool[3]
    FailureInjector(simulator).crash_machine(victim)
    widest = max(shard_map.shards, key=lambda s: (s.span, -s.lo))
    committed = resolver.split_shard(namespace.directory, widest,
                                     victim)
    assert not committed
    assert shard_map.is_partition()
    assert resolver.shard_splits > 0
    return simulator


def trace_digest(simulator: Simulator) -> str:
    lines = [f"{entry.time:g}|{entry.kind}|{entry.detail}"
             for entry in simulator.trace]
    lines.append(f"sent={simulator.messages_sent}"
                 f"|delivered={simulator.messages_delivered}"
                 f"|dropped={simulator.messages_dropped}"
                 f"|t={simulator.clock.now:g}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_a10_reduced(seed: int):
    from repro.bench.experiments_sharding import run_a10_sharding
    return run_a10_sharding(seed=seed, names=20_000,
                            resolutions=3_000)


def run_a11_reduced(seed: int):
    from repro.bench.experiments_shard_faults import run_a11_shard_faults
    return run_a11_shard_faults(seed=seed, names=20_000,
                                resolutions=2_000)


def experiment_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestSplitTraceGoldens:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_log_matches_pinned_digest(self, seed):
        assert trace_digest(run_split_scenario(seed)) == \
            TRACE_GOLDENS[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeated_runs_are_bit_identical(self, seed):
        first = run_split_scenario(seed)
        second = run_split_scenario(seed)
        assert [entry.detail for entry in first.trace] == \
            [entry.detail for entry in second.trace]
        assert trace_digest(first) == trace_digest(second)


class TestA10Goldens:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a10_matches_pinned_digest(self, seed):
        result = run_a10_reduced(seed)
        assert result.all_checks_pass(), result.failed_checks()
        assert experiment_digest(result) == EXPERIMENT_GOLDENS[seed]


class TestA11Goldens:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a11_matches_pinned_digest(self, seed):
        result = run_a11_reduced(seed)
        assert result.all_checks_pass(), result.failed_checks()
        assert experiment_digest(result) == A11_GOLDENS[seed]


def _regenerate() -> None:  # pragma: no cover - maintenance helper
    print("TRACE_GOLDENS = {")
    for seed in SEEDS:
        print(f'    {seed}: "{trace_digest(run_split_scenario(seed))}",')
    print("}")
    print("EXPERIMENT_GOLDENS = {")
    for seed in SEEDS:
        print(f'    {seed}: "{experiment_digest(run_a10_reduced(seed))}",')
    print("}")
    print("A11_GOLDENS = {")
    for seed in SEEDS:
        print(f'    {seed}: "{experiment_digest(run_a11_reduced(seed))}",')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()

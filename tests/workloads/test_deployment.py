"""Tests for the deployment spec and its one builder."""

from __future__ import annotations

import json

import pytest

from repro.errors import SchemeError
from repro.nameservice.cache import CachePolicy
from repro.workloads.deployment import SPEC_KEYS, build_world

#: Every key: two networks, a replicated and a sharded directory, a
#: split manager, a retry policy and the restart hook.
SPEC = {
    "networks": ["lan", "srv"],
    "machines": [["client-m", "lan"], ["s0", "srv"], ["s1", "srv"],
                 ["s2", "srv"]],
    "parent_links": True,
    "paths": ["svc/", "svc/f0", "svc/deep/g"],
    "zipf": {"path": "hot", "count": 64, "distinct": 8},
    "place": [["/", "client-m"], ["svc", "s0", "s1"], ["svc/deep", "s2"]],
    "shard": [["hot", ["s0", "s1", "s2"], 2]],
    "clients": [["client-m", "app0"], ["client-m", "app1"]],
    "resolver": {"cache_policy": "lease", "lease_term": 7.0,
                 "retry_policy": {"max_attempts": 2, "jitter": 0.0}},
    "restart_sync": True,
    "splits": {"pool": ["s0", "s1", "s2"], "check_every": 10},
}


def shape(world) -> dict:
    """What a world is, by label: topology, replica sets, shard map,
    epoch and configuration."""
    tree, placement = world.tree, world.placement
    shard_map = placement.shard_map_of(world.namespace.directory)
    return {
        "networks": list(world.networks),
        "machines": {label: machine.network.label
                     for label, machine in world.machines.items()},
        "clients": [(c.machine.label, c.label) for c in world.clients],
        "replicas": {path: [m.label for m in placement.replicas_of(
            tree.root if path == "/" else tree.directory(path))]
            for path in ("/", "svc", "svc/deep")},
        "shards": [(s.lo, s.hi, [m.label for m in s.replicas],
                    sorted(s.names)) for s in shard_map.shards],
        "epoch": placement.epoch,
        "policy": world.resolver.cache_policy,
        "retry": world.resolver.retry_policy,
        "pool": [m.label for m in world.resolver.shard_manager.pool],
    }


class TestBuildWorld:
    def test_a_json_round_trip_builds_the_same_world(self):
        direct = build_world(SPEC, seed=3)
        loaded = build_world(json.loads(json.dumps(SPEC)), seed=3)
        assert shape(loaded) == shape(direct)
        assert shape(direct)["replicas"] == {
            "/": ["client-m"], "svc": ["s0", "s1"], "svc/deep": ["s2"]}
        assert shape(direct)["epoch"] == 4
        assert direct.resolver.cache_policy is CachePolicy.LEASE
        assert direct.resolver.retry_policy.max_attempts == 2

    def test_the_built_world_resolves(self):
        world = build_world(SPEC)
        assert world.client is world.clients[0]
        for path in ("/svc/f0", "/svc/deep/g", "/hot/u3"):
            entity, cost = world.resolver.resolve(world.client,
                                                  world.context, path)
            assert entity is world.tree.lookup(path)
            assert not cost.failed

    def test_restart_sync_wires_anti_entropy(self):
        world = build_world(SPEC)
        svc = world.tree.directory("svc")
        s1 = world.machines["s1"]
        world.injector.crash_machine(s1)
        world.placement.mark_stale(svc, s1)
        world.injector.restart_machine(s1)
        assert not world.placement.is_stale(svc, s1)

    def test_an_empty_spec_builds_a_bare_world(self):
        world = build_world({})
        assert world.machines == {} and world.clients == []
        assert world.namespace is None
        assert world.resolver.shard_manager is None

    @pytest.mark.parametrize("key", ["replicas", "cache_policy", "place_"])
    def test_an_unknown_key_raises(self, key):
        assert key not in SPEC_KEYS
        with pytest.raises(SchemeError, match=key):
            build_world({**SPEC, key: None})

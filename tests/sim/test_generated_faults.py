"""Generated fault schedules over a sharded, replicated world.

A ``RuleBasedStateMachine`` drives one deployment — 24 names under
``/hot``, sharded over s0–s2 of four pool machines at ``replicas=2``,
the pool on an ``srv`` network and the client on ``lan``, plus
``/etc/app/cfg`` served by ``cfg-m`` on ``srv``, whose ``σ(etc)(app)``
the client's cached prefix consumes, so rebinding it sends
invalidations or lease breaks and acks — through
interleavings of lookups, batches, rebinds, crashes, restarts,
partitions, shard splits and clock advances, under a cache policy
drawn from all four.  One more rule books a fault a moment ahead
before an operation, so the fault lands mid-walk, mid-fan-out or
mid-migration instead of between operations.

After every step:

* the coherence auditor has recorded no violation;
* the shard map still tiles the hash space (exactly one owner per
  binding);
* no lookup asked a replica that was stale-marked both before and
  after it (a mark only "before" is not enough: a restart booked
  mid-walk syncs a replica the walk may then rightly ask);
* after each restart, no stale mark left on the restarted machine
  has a live, fresh sync source;
* every message the kernel sent since the build is counted exactly
  once: by the lookup that paid for it (``cost.messages``) or by one of
  the resolver's replication, invalidation, anti-entropy and migration
  counters.
"""

from __future__ import annotations

import json

from hypothesis import note, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.model.entities import ObjectEntity
from repro.nameservice.cache import CachePolicy
from repro.obs.audit import CoherenceAuditor
from repro.obs.instrument import Instrumentation
from repro.workloads.deployment import build_world

NAMES = 24
POOL = 4
ENTITIES = 8

machines = st.integers(0, POOL - 1)
names = st.integers(0, NAMES - 1)
delays = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.5])


class ShardedFaultsMachine(RuleBasedStateMachine):

    @initialize(policy=st.sampled_from(list(CachePolicy)),
                seed=st.integers(0, 3))
    def build(self, policy, seed):
        pool = [f"s{i}" for i in range(POOL)]
        spec = {
            "networks": ["lan", "srv"],
            "machines": [[label, "srv"] for label in pool]
            + [["cfg-m", "srv"], ["client-m", "lan"]],
            "paths": ["etc/", "etc/app/", "etc/alt/", "etc/app/cfg",
                      "etc/alt/cfg"],
            "zipf": {"path": "hot", "count": NAMES, "distinct": NAMES},
            "place": [["/", "client-m"]]
            + [[path, "cfg-m"] for path in ("etc", "etc/app", "etc/alt")],
            # s3 stays unplaced: a split onto it spawns its server.
            "shard": [["hot", pool[:3], 2]],
            "clients": [["client-m", "client"]],
            "resolver": {"cache_policy": policy.value, "cache_ttl": 5.0,
                         "retry_policy": {"max_attempts": 2,
                                          "base_backoff": 0.1,
                                          "max_backoff": 0.4},
                         "breaker_threshold": 2, "breaker_cooldown": 5.0,
                         "lease_term": 5.0},
            "restart_sync": True}
        # A shrunk failure prints the world it ran, as data.
        note(f"seed={seed} spec={json.dumps(spec)}")
        self.auditor = CoherenceAuditor()
        world = build_world(spec, seed, Instrumentation(
            enabled=False, auditor=self.auditor))
        self.simulator, self.injector = world.simulator, world.injector
        self.lan, self.srv = world.networks["lan"], world.networks["srv"]
        self.pool = [world.machines[label] for label in pool]
        self.directory = world.namespace.directory
        self.names = world.namespace.names
        self.placement = world.placement
        self.shard_map = self.placement.shard_map_of(self.directory)
        self.client, self.context = world.client, world.context
        self.resolver = world.resolver
        self.injector.on_restart(self._check_synced)
        self.sent_at_build = self.simulator.messages_sent
        self.charged = 0  # cost.messages over every lookup
        self.entities = [ObjectEntity(f"v{i}") for i in range(ENTITIES)]
        self.etc = world.tree.directory("etc")
        self.apps = [world.tree.directory("etc/app"),
                     world.tree.directory("etc/alt")]

    # -- helpers -----------------------------------------------------------

    def _stale_servers(self) -> set:
        return {f"dirserver@{m.label}" for m in self.pool
                if self.placement.is_stale(self.directory, m)}

    def _path(self, index: int) -> str:
        return f"/hot/{self.names[index]}"

    def _check_synced(self, machine) -> None:
        """Runs after ``handle_restart``: what anti-entropy left stale
        on *machine* has no live, fresh source to sync from."""
        if not machine.alive:
            return  # crashed again mid-sync by a booked fault
        for uid in self.placement.stale_uids_of(machine):
            assert self.placement.sync_source_for(uid, machine) is None

    def _crash(self, index: int) -> None:
        machine = self.pool[index]
        if machine.alive:
            self.injector.crash_machine(machine)

    def _fault(self, kind: str, index: int) -> None:
        if kind == "crash":
            self._crash(index)
        elif kind == "restart":
            self.injector.restart_machine(self.pool[index])
        elif kind == "partition":
            self.injector.partition(self.lan, self.srv)
        else:
            self.injector.heal(self.lan, self.srv)

    # -- operations --------------------------------------------------------

    @rule(index=names)
    def resolve(self, index):
        before = self._stale_servers()
        _entity, cost = self.resolver.resolve(self.client, self.context,
                                              self._path(index))
        self.charged += cost.messages
        assert not cost.servers_touched & before & self._stale_servers()

    @rule(indices=st.lists(names, min_size=1, max_size=4))
    def resolve_many(self, indices):
        before = self._stale_servers()
        results = self.resolver.resolve_many(
            self.client, self.context, [self._path(i) for i in indices])
        after = self._stale_servers()
        for _entity, cost in results:
            self.charged += cost.messages
            assert not cost.servers_touched & before & after

    @rule(index=names, entity=st.integers(0, ENTITIES - 1))
    def rebind(self, index, entity):
        self.resolver.rebind(self.directory, self.names[index],
                             self.entities[entity])

    @rule()
    def resolve_through_etc(self):
        _entity, cost = self.resolver.resolve(self.client, self.context,
                                              "/etc/app/cfg")
        self.charged += cost.messages

    @rule(alt=st.integers(0, 1))
    def rebind_etc(self, alt):
        self.resolver.rebind(self.etc, "app", self.apps[alt])

    @rule(shard=st.integers(0, 63), onto=machines)
    def split(self, shard, onto):
        shards = self.shard_map.shards
        hot = shards[shard % len(shards)]
        if hot.span >= 2:
            self.resolver.split_shard(self.directory, hot,
                                      self.pool[onto])

    # -- faults and time ---------------------------------------------------

    @rule(index=machines)
    def crash(self, index):
        self._crash(index)

    @rule(index=machines)
    def restart(self, index):
        self.injector.restart_machine(self.pool[index])

    @rule()
    def partition(self):
        self.injector.partition(self.lan, self.srv)

    @rule()
    def heal(self):
        self.injector.heal(self.lan, self.srv)

    @rule(delta=st.sampled_from([0.5, 3.0, 12.0]))
    def advance(self, delta):
        self.simulator.run(until=self.simulator.clock.now + delta)

    @rule(kind=st.sampled_from(["crash", "restart", "partition", "heal"]),
          index=machines, delay=delays,
          then=st.sampled_from(["resolve", "resolve_many", "rebind",
                                "split"]),
          arg=names)
    def fault_mid_operation(self, kind, index, delay, then, arg):
        """Book a fault *delay* ahead, then start an operation that
        runs across it.  Guarded: the fault may find its machine
        already down (or up) by the time it fires."""
        self.simulator.schedule(delay, lambda: self._fault(kind, index),
                                note=f"generated {kind}")
        if then == "resolve":
            self.resolve(arg)
        elif then == "resolve_many":
            self.resolve_many([arg, (arg + 7) % NAMES])
        elif then == "rebind":
            self.rebind(arg, arg % ENTITIES)
        else:
            self.split(arg, index)

    # -- invariants --------------------------------------------------------

    @invariant()
    def no_audit_violation(self):
        assert self.auditor.violation_count == 0, \
            list(self.auditor.violations)

    @invariant()
    def every_binding_has_one_owner(self):
        assert self.shard_map.is_partition()

    @invariant()
    def every_message_is_counted_once(self):
        resolver = self.resolver
        counted = (self.charged + resolver.replication_messages
                   + resolver.invalidation_messages
                   + resolver.anti_entropy_messages
                   + resolver.migration_messages)
        sent = self.simulator.messages_sent - self.sent_at_build
        assert sent == counted, (sent, counted)


ShardedFaultsMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None,
    derandomize=True)
TestGeneratedFaults = ShardedFaultsMachine.TestCase

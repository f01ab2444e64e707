"""The three simulator workloads: scripts, deployments, timed loops.

Each workload is a class with the same methods:

* ``script(seed, ops, warmup)`` — the seeded inputs, generated once per
  run *by the benchmark* (its own Zipf table, not the repo's sampler),
  so the program only ever receives generated inputs;
* ``build()`` — one deployment from scratch through the public API;
* ``run(deployment, script)`` — warm-up, then the closed single-caller
  loop with ``perf_counter_ns`` around every op, then the answer oracle
  over what the loop recorded;
* ``repeat(script)`` — ``build`` (timed as ``setup_s``) and ``run``.

The timed loops touch nothing but ``DistributedResolver.resolve`` /
``rebind``; every counter they report is read from public attributes
before and after the timed region.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from zlib import crc32

from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.sharding import ShardManager
from repro.obs.audit import CoherenceAuditor
from repro.obs.instrument import Instrumentation
from repro.obs.trace import SpanSampler
from repro.sim.kernel import Simulator
from repro.workloads.zipf import build_zipf_namespace

__all__ = ["zipf_ranks", "SLICE_OPS", "RepeatResult", "ZipfSharded",
           "LeaseChurn", "sim_workload"]

_now = time.perf_counter_ns
_cpu = time.process_time_ns


def zipf_ranks(count: int, skew: float, draws: int,
               rng: random.Random) -> list[int]:
    """*draws* ranks from Zipf(*skew*) over ``range(count)`` (0 hottest):
    one cumulative table, one uniform draw and one bisect per rank."""
    cumulative, total = [], 0.0
    for rank in range(count):
        total += (rank + 1.0) ** -skew
        cumulative.append(total)
    uniform = rng.random
    return [bisect_left(cumulative, uniform() * total) for _ in range(draws)]


#: Ops between two ``(wall, cpu)`` marks of a simulator loop (every
#: workload object carries its own as ``slice_ops``).  Every repeat does
#: identical work, so slice *s* of one repeat is comparable with slice
#: *s* of another — which is what lets run.py drop the slices a noisy
#: neighbour slowed down (see its ``_composite``).
SLICE_OPS = 100


@dataclass
class RepeatResult:
    """What one timed repeat recorded (all of it outside the op timers)."""

    ops: int
    #: ``(perf_counter_ns, process CPU ns)`` when the timed region
    #: starts, after every ``slice_ops`` completed ops, and after the last.
    marks: list[tuple[int, int]]
    op_ns: list[int]                    #: each op's latency, completion order
    rebind_flags: list[bool] | None = None  #: which of op_ns are rebinds
    failed: int = 0
    msgs: int = 0                       #: kernel messages / wire frames
    digest: int = 0                     #: crc32 over every answer, in order
    #: counters that must repeat exactly, repeat after repeat
    deterministic: dict = field(default_factory=dict)
    #: public-stat deltas feeding the per-layer extras
    stats: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    server_cpu_ns: int = 0              #: share of cpu_ns spent in the child
    server_rss_mb: float = 0.0

    @property
    def wall_ns(self) -> int:
        return self.marks[-1][0] - self.marks[0][0]

    @property
    def cpu_ns(self) -> int:
        return self.marks[-1][1] - self.marks[0][1]

    @property
    def lookup_ns(self) -> list[int]:
        if self.rebind_flags is None:
            return self.op_ns
        return [ns for ns, flag in zip(self.op_ns, self.rebind_flags)
                if not flag]

    @property
    def rebind_ns(self) -> list[int]:
        if self.rebind_flags is None:
            return []
        return [ns for ns, flag in zip(self.op_ns, self.rebind_flags) if flag]


def _label(entity) -> str:
    return "FAILED" if entity is None else entity.label


def _digest(labels_and_msgs) -> int:
    value = 0
    for label, messages in labels_and_msgs:
        value = crc32(f"{label}:{messages};".encode(), value)
    return value


class _SimWorkload:
    slice_ops = SLICE_OPS

    def repeat(self, script: dict, rec=None,
               trace_out=None) -> tuple[float, RepeatResult]:
        """One repeat from scratch: ``(setup_s, result)``."""
        start = time.perf_counter()
        deployment = self.build()
        setup_s = time.perf_counter() - start
        return setup_s, self.run(deployment, script, rec)


# -- sim-zipf-sharded (and its -obs twin) -----------------------------------


class ZipfSharded(_SimWorkload):
    """ROADMAP's canonical A10 shape, closed loop, one client."""

    POOL = 8                #: machines the split policy may use
    INITIAL = 4             #: machines the directory starts sharded over
    REPLICAS = 2
    SKEW = 1.0

    def __init__(self, *, names: int = 200_000, observed: bool = False):
        self.names = names
        self.observed = observed

    def settings(self) -> dict:
        return {"loop": "closed", "callers": 1, "names": self.names,
                "zipf_s": self.SKEW, "policy": "NONE",
                "pool": self.POOL, "initial_shards": self.INITIAL,
                "replicas": self.REPLICAS, "split_fraction": 0.2,
                "max_shards": 32, "retry_max_attempts": 3,
                "obs": ("max_spans=4096 sampler=0.05/seed1 + auditor"
                        if self.observed else "NO_OBS")}

    def script(self, seed: int, ops: int, warmup: int) -> dict:
        ranks = zipf_ranks(self.names, self.SKEW, ops,
                           random.Random(seed))
        return {"ranks": ranks, "names": [f"/hot/u{r}" for r in ranks]}

    def build(self) -> dict:
        obs = None
        if self.observed:
            obs = Instrumentation(
                max_spans=4096, sampler=SpanSampler(rate=0.05, seed=1),
                auditor=CoherenceAuditor())
        simulator = Simulator(seed=0, obs=obs)
        network = simulator.network("lan")
        pool = [simulator.machine(network, f"shard{i}")
                for i in range(self.POOL)]
        client_machine = simulator.machine(network, "client-m")
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "hot", count=self.names)
        placement = DirectoryPlacement()
        placement.place(tree.root, client_machine)
        placement.place_sharded(namespace.directory, *pool[:self.INITIAL],
                                replicas=self.REPLICAS)
        client = simulator.spawn(client_machine, "client")
        resolver = DistributedResolver(
            simulator, placement, cache_policy=CachePolicy.NONE,
            retry_policy=RetryPolicy(max_attempts=3))
        resolver.shard_manager = ShardManager(
            resolver, pool=pool, split_fraction=0.2, check_every=1000,
            min_window=100, max_shards=32)
        return {"simulator": simulator, "resolver": resolver,
                "placement": placement, "client": client,
                "context": ProcessContext(tree.root),
                "namespace": namespace, "obs": obs}

    @staticmethod
    def _counters(dep: dict) -> dict:
        resolver, obs = dep["resolver"], dep["obs"]
        out = {"msgs": dep["simulator"].messages_sent,
               "splits": resolver.shard_splits,
               "migration_msgs": resolver.migration_messages}
        if obs is not None:
            out["audit_observed"] = obs.auditor.observed
        return out

    def run(self, dep: dict, script: dict, rec=None) -> RepeatResult:
        resolve = dep["resolver"].resolve
        client, context = dep["client"], dep["context"]
        names = script["names"]
        count = len(names)
        answers: list = [None] * count
        messages = [0] * count
        op_ns = [0] * count
        failed_hops = steps = retries = failovers = 0
        before = self._counters(dep)
        if rec is not None:
            rec.active = True
        marks = [(_now(), _cpu())]
        for base in range(0, count, SLICE_OPS):
            for index in range(base, min(base + SLICE_OPS, count)):
                t0 = _now()
                entity, cost = resolve(client, context, names[index])
                op_ns[index] = _now() - t0
                if cost.failed_hops:
                    failed_hops += cost.failed_hops
                    entity = None   # a failed op is a wrong answer
                answers[index] = entity
                messages[index] = cost.messages
                steps += cost.steps
                retries += cost.retries
                failovers += cost.failovers
            marks.append((_now(), _cpu()))
        if rec is not None:
            rec.active = False
        after = self._counters(dep)
        delta = {key: after[key] - before[key] for key in after}

        bindings = dep["namespace"].directory.state
        wrong = sum(1 for index in range(count)
                    if answers[index] is not bindings(names[index][5:]))
        shard_map = dep["placement"].shard_map_of(
            dep["namespace"].directory)
        problems = []
        if not shard_map.is_partition():
            problems.append("shard map is not a partition at the end")
        if failed_hops:
            problems.append(f"{failed_hops} failed hops on a healthy net")
        obs = dep["obs"]
        stats = {"steps": steps, "retries": retries,
                 "failovers": failovers, "shards_final": len(shard_map),
                 **delta}
        if obs is not None:
            summary = obs.auditor.summary()
            stats["audit_violations"] = summary["violations"]
            stats["spans_recorded"] = len(obs.tracer)
            stats["spans_dropped"] = obs.tracer.dropped_spans
            if summary["violations"]:
                problems.append(f"auditor saw {summary['violations']} "
                                "violations")
        return RepeatResult(
            ops=count, marks=marks, op_ns=op_ns,
            failed=wrong, msgs=delta["msgs"],
            digest=_digest(zip(map(_label, answers), messages)),
            deterministic={"msgs": delta["msgs"], "splits": delta["splits"],
                           "shards_final": len(shard_map),
                           "migration_msgs": delta["migration_msgs"]},
            stats=stats, problems=problems)


# -- sim-lease-churn --------------------------------------------------------


class LeaseChurn(_SimWorkload):
    """LEASE-policy reads from 8 clients beside 5% rebinds."""

    CLIENTS = 8
    SERVERS = 4
    SKEW = 0.9
    LEASE_TERM = 2000.0
    REBIND_EVERY = 20       #: one op in twenty is a rebind (5%)
    VERIFY_OPS = 10_000     #: prefix the audited verify pass replays

    def __init__(self, *, directories: int = 256, leaves: int = 128):
        self.directories = directories
        self.leaves = leaves

    def settings(self) -> dict:
        return {"loop": "closed", "callers": 1, "clients": self.CLIENTS,
                "directories": self.directories,
                "leaves_per_directory": self.leaves, "zipf_s": self.SKEW,
                "policy": "LEASE", "lease_term": self.LEASE_TERM,
                "rebind_share": 1 / self.REBIND_EVERY,
                "servers": self.SERVERS, "replicas": 2,
                "retry_max_attempts": 3, "obs": "NO_OBS"}

    def script(self, seed: int, ops: int, warmup: int) -> dict:
        """``(is_rebind, client, directory, leaf)`` per op.  Exactly one
        op in twenty is a rebind (positions shuffled), so the mix — and
        with it msgs_per_op — barely moves from seed to seed."""
        rng = random.Random(seed)
        total = warmup + ops
        ranks = zipf_ranks(self.directories * self.leaves, self.SKEW,
                           total, rng)
        rebinds = set(rng.sample(range(total), total // self.REBIND_EVERY))
        steps = []
        for index, rank in enumerate(ranks):
            steps.append((index in rebinds, rng.randrange(self.CLIENTS),
                          rank % self.directories,
                          rank // self.directories))
        return {"steps": steps, "warmup": warmup}

    def build(self, audited: bool = False) -> dict:
        obs = None
        if audited:
            # Disabled instrumentation: the auditor keeps its tallies
            # without the resolver paying for spans or metrics.
            obs = Instrumentation(enabled=False, auditor=CoherenceAuditor())
        simulator = Simulator(seed=0, obs=obs)
        lan = simulator.network("lan")
        servers = [simulator.machine(lan, f"srv{i}")
                   for i in range(self.SERVERS)]
        client_machines = [simulator.machine(lan, f"client-m{i}")
                           for i in range(self.CLIENTS)]
        tree = NamingTree("root", sigma=simulator.sigma)
        svc = tree.mkdir("svc")
        placement = DirectoryPlacement()
        placement.place_replicated(svc, servers[0], servers[1])
        # versions[v][k] is version v of directory k; version 0 starts
        # bound at /svc/d<k>, version 1 is pre-built and pre-placed.
        versions: list[list[ObjectEntity]] = [[], []]
        for k in range(self.directories):
            for v, path in enumerate((f"svc/d{k}", f"alt/d{k}")):
                directory = tree.mkdir(path)
                bind = directory.state.bind
                for j in range(self.leaves):
                    bind(f"n{j}", ObjectEntity(f"d{k}.n{j}.v{v}"))
                placement.place_replicated(
                    directory, servers[k % self.SERVERS],
                    servers[(k + 1) % self.SERVERS])
                versions[v].append(directory)
        clients = [simulator.spawn(machine, f"client{i}")
                   for i, machine in enumerate(client_machines)]
        resolver = DistributedResolver(
            simulator, placement, cache_policy=CachePolicy.LEASE,
            lease_term=self.LEASE_TERM,
            retry_policy=RetryPolicy(max_attempts=3))
        return {"simulator": simulator, "resolver": resolver,
                "placement": placement, "svc": svc, "versions": versions,
                "clients": clients,
                "contexts": [ProcessContext(tree.root) for _ in clients],
                "obs": obs}

    @staticmethod
    def _counters(dep: dict) -> dict:
        resolver = dep["resolver"]
        leases, cache = resolver.lease_stats(), resolver.cache_stats()
        return {"msgs": dep["simulator"].messages_sent,
                "replication_msgs": resolver.replication_messages,
                "invalidation_msgs": resolver.invalidation_messages,
                "grants": leases["grants"], "renewals": leases["renewals"],
                "acks": leases["server_acks"],
                "server_breaks": leases["server_breaks"],
                "cache_hits": cache["hits"],
                "cache_misses": cache["misses"],
                "cache_invalidations": cache["invalidations"],
                "cache_expirations": cache["expirations"]}

    def run(self, dep: dict, script: dict, rec=None,
            limit: int | None = None) -> RepeatResult:
        """Warm up, then time ``script`` (or its first *limit* timed
        ops — the audited verify pass replays a prefix)."""
        resolver = dep["resolver"]
        resolve, rebind = resolver.resolve, resolver.rebind
        svc, versions = dep["svc"], dep["versions"]
        clients, contexts = dep["clients"], dep["contexts"]
        warmup = script["warmup"]
        steps = script["steps"]
        if limit is not None:
            steps = steps[:warmup + limit]
        live = [0] * self.directories    # which version /svc/d<k> binds
        # Bind every op to this deployment's objects before the clock
        # starts: (is_rebind, a, b, c) is rebind(svc, a, b) or
        # resolve(a, b, c).
        bound = []
        for is_rebind, c, k, j in steps:
            if is_rebind:
                live[k] ^= 1
                bound.append((True, f"d{k}", versions[live[k]][k], None))
            else:
                bound.append((False, clients[c], contexts[c],
                              f"/svc/d{k}/n{j}"))
        for is_rebind, a, b, c in bound[:warmup]:
            rebind(svc, a, b) if is_rebind else resolve(a, b, c)
        timed = bound[warmup:]
        count = len(timed)
        answers: list = [None] * count
        messages = [0] * count
        op_ns = [0] * count
        failed_hops = steps_taken = cached = retries = failovers = 0
        before = self._counters(dep)
        if rec is not None:
            rec.active = True
        marks = [(_now(), _cpu())]
        for base in range(0, count, SLICE_OPS):
            for index in range(base, min(base + SLICE_OPS, count)):
                is_rebind, a, b, c = timed[index]
                if is_rebind:
                    t0 = _now()
                    sent = rebind(svc, a, b)
                    op_ns[index] = _now() - t0
                    messages[index] = sent
                    continue
                t0 = _now()
                entity, cost = resolve(a, b, c)
                op_ns[index] = _now() - t0
                if cost.failed_hops:
                    failed_hops += cost.failed_hops
                    entity = None   # a failed op is a wrong answer
                answers[index] = entity
                messages[index] = cost.messages
                steps_taken += cost.steps
                cached += cost.cached_steps
                retries += cost.retries
                failovers += cost.failovers
            marks.append((_now(), _cpu()))
        if rec is not None:
            rec.active = False
        after = self._counters(dep)
        delta = {key: after[key] - before[key] for key in after}

        # Oracle: replay the version flips and require the leaf of the
        # version that was bound when each lookup ran.
        live = [0] * self.directories
        wrong = 0
        labels = []
        for position, (is_rebind, _c, k, j) in enumerate(steps):
            if is_rebind:
                live[k] ^= 1
            if position < warmup:
                continue
            index = position - warmup
            if is_rebind:
                labels.append((f"rebind d{k}", messages[index]))
                continue
            expected = versions[live[k]][k].state(f"n{j}")
            if answers[index] is not expected:
                wrong += 1
            labels.append((_label(answers[index]), messages[index]))
        problems = []
        if failed_hops:
            problems.append(f"{failed_hops} failed hops on a healthy net")
        stats = {"steps": steps_taken, "cached_steps": cached,
                 "retries": retries, "failovers": failovers,
                 "rebinds": sum(op[0] for op in timed),
                 "prefix_digest": _digest(labels[:self.VERIFY_OPS]),
                 **delta}
        if dep["obs"] is not None:
            summary = dep["obs"].auditor.summary()
            stats["audit_observed"] = summary["observed"]
            stats["audit_violations"] = summary["violations"]
        return RepeatResult(
            ops=count, marks=marks, op_ns=op_ns,
            rebind_flags=[op[0] for op in timed],
            failed=wrong, msgs=delta["msgs"], digest=_digest(labels),
            deterministic={key: delta[key] for key in
                           ("msgs", "grants", "renewals", "acks",
                            "replication_msgs", "invalidation_msgs")},
            stats=stats, problems=problems)

    def verify(self, script: dict) -> tuple[int, list[str]]:
        """The untimed audited pass: replays the first ``VERIFY_OPS``
        timed ops with a CoherenceAuditor attached.  Returns the prefix
        digest (to compare with the timed repeats') and any problems."""
        result = self.run(self.build(audited=True), script,
                          limit=self.VERIFY_OPS)
        problems = list(result.problems)
        if result.failed:
            problems.append(f"verify pass: {result.failed} wrong answers")
        if not result.stats["audit_observed"]:
            problems.append("verify pass: the auditor observed nothing")
        if result.stats["audit_violations"]:
            problems.append(f"verify pass: "
                            f"{result.stats['audit_violations']} coherence "
                            "violations")
        return result.stats["prefix_digest"], problems


def sim_workload(name: str, smoke: bool):
    """The workload object for *name* at full or smoke scale."""
    if name == "sim-zipf-sharded":
        return ZipfSharded(names=10_000 if smoke else 200_000)
    if name == "sim-zipf-sharded-obs":
        return ZipfSharded(names=10_000 if smoke else 200_000,
                           observed=True)
    if name == "sim-lease-churn":
        return LeaseChurn(directories=64 if smoke else 256,
                          leaves=32 if smoke else 128)
    raise KeyError(name)

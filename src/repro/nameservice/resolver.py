"""Distributed compound-name resolution with measured cost.

:class:`DistributedResolver` performs the section-2 recursion over
*placed* directories: each step whose directory is hosted on a machine
other than where the previous step ran costs a message round-trip
through the simulator kernel (so latencies, traces and server load are
all observable).  Two classic interaction styles are supported:

* ``ITERATIVE`` — the client asks each directory's server in turn
  (every remote step is a client↔server round trip);
* ``RECURSIVE`` — the request is forwarded server-to-server and only
  the final answer returns to the client (one hop per transfer plus
  one reply).

Two mechanisms make resolution cheap at scale (both extensions,
DNS/AFS-style, measured by ablations A5 and A7):

* a per-machine **prefix cache** (:class:`~repro.nameservice.cache.
  PrefixCache`): repeated resolutions skip the walk up to the deepest
  live cached prefix, under the same NONE/TTL/INVALIDATE coherence
  policies as the binding cache, with :meth:`DistributedResolver.rebind`
  as the write discipline that keeps INVALIDATE exact;
* a **batch API** (:meth:`DistributedResolver.resolve_many`) that
  sorts names by shared prefix, dedupes common steps within the batch,
  and coalesces queries to the same server into one round trip.

A third mechanism makes resolution *survive faults* (ablation A8):
with a :class:`~repro.nameservice.retry.RetryPolicy` the walk retries
dropped hops with exponential backoff and seeded jitter over virtual
time, keeps a per-server :class:`~repro.nameservice.retry.
CircuitBreaker`, and **fails over** to the next live replica of a
directory (:meth:`~repro.nameservice.placement.DirectoryPlacement.
place_replicated`) instead of failing the resolution.  When *no*
authoritative replica is reachable, the policy-gated ``serve_stale``
mode answers from the client's possibly-stale prefix cache and tags
the result **weakly coherent** (``cost.weak``) — degraded answers are
never silently passed off as coherent.

The resolver is semantics-preserving: with caching off its result is
always identical to :func:`repro.model.resolution.resolve` on the same
context — the distribution changes *cost*, never *meaning*.  With
caching on, coherence is weakened only in the bounded way the cache
policy allows (TTL staleness windows; nothing after an INVALIDATE
delivery; explicitly-tagged weak answers in ``serve_stale`` mode).
(Property-tested.)

When the simulator carries an :class:`~repro.obs.Instrumentation`,
every resolution becomes a typed span tree (`repro.obs`): a
``resolution`` (or ``batch``) root, one ``hop`` span per message leg
carrying trace context into the kernel, ``step`` instants per
component consumed, ``cache`` instants per prefix probe, ``retry`` /
``failover`` / ``circuit`` / ``stale`` instants for the
fault-tolerance layer, and ``rebind`` spans whose replication and
invalidation fan-outs parent their deliveries.  Span message/step
counts reconcile exactly with the returned :class:`ResolutionCost`
(tested), so the trace *is* the cost accounting, hop by hop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import SchemeError
from repro.model.context import Context
from repro.model.entities import Entity, ObjectEntity, UNDEFINED_ENTITY
from repro.model.names import ROOT_NAME, CompoundName, NameLike
from repro.nameservice.cache import (
    CachePolicy,
    PrefixCache,
    PrefixEntry,
    binding_dep,
    context_dep,
)
# callback_fanout is kept bound here although the fan-out now runs in
# repro.nameservice.writes: benchmarks/e2e patches it by this name.
from repro.nameservice.leases import (  # noqa: F401
    LeaseManager,
    LeaseTable,
    callback_fanout,
)
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.retry import (BreakerState, CircuitBreaker,
                                     RetryPolicy)
from repro.nameservice.sharding import Shard
from repro.nameservice.writes import WritePath
from repro.sim.kernel import Simulator
from repro.sim.network import Machine
from repro.sim.process import SimProcess

__all__ = ["ResolutionStyle", "ResolutionCost", "DistributedResolver",
           "check_semantics_preserved"]


class ResolutionStyle(enum.Enum):
    """Who chases the referrals."""

    ITERATIVE = "iterative"
    RECURSIVE = "recursive"

    def __str__(self) -> str:
        return self.value


@dataclass
class ResolutionCost:
    """Measured cost of one distributed resolution."""

    steps: int = 0            #: components consumed
    local_steps: int = 0      #: steps served on the current machine
    remote_steps: int = 0     #: steps that needed another machine
    cached_steps: int = 0     #: steps skipped via a cached/deduped prefix
    messages: int = 0         #: simulator messages exchanged
    latency: float = 0.0      #: virtual time spent (incl. backoff waits)
    failed_hops: int = 0      #: unrecovered lost legs / unreachable dirs
    retries: int = 0          #: hop re-sends under the retry policy
    failovers: int = 0        #: replicas abandoned for the next one
    stale_steps: int = 0      #: directory steps served from stale cache
    weak: bool = False        #: True if any step was answered degraded
    servers_touched: set[str] = field(default_factory=set)

    @property
    def failed(self) -> bool:
        """True if the walk lost a leg it could not recover — the
        answer is not authoritative (fail-fast resolutions under a
        crash/partition land here; failover resolutions only when
        every replica was unreachable and no stale serve applied)."""
        return self.failed_hops > 0

    @property
    def coherence(self) -> str:
        """``"weak"`` for degraded (stale-served) answers, else
        ``"coherent"`` — the paper's §3 distinction, operational."""
        return "weak" if self.weak else "coherent"

    def __add__(self, other: "ResolutionCost") -> "ResolutionCost":
        if not isinstance(other, ResolutionCost):
            return NotImplemented
        return ResolutionCost(
            steps=self.steps + other.steps,
            local_steps=self.local_steps + other.local_steps,
            remote_steps=self.remote_steps + other.remote_steps,
            cached_steps=self.cached_steps + other.cached_steps,
            messages=self.messages + other.messages,
            latency=self.latency + other.latency,
            failed_hops=self.failed_hops + other.failed_hops,
            retries=self.retries + other.retries,
            failovers=self.failovers + other.failovers,
            stale_steps=self.stale_steps + other.stale_steps,
            weak=self.weak or other.weak,
            servers_touched=self.servers_touched | other.servers_touched)

    def __radd__(self, other) -> "ResolutionCost":
        if other == 0:  # so sum(costs) works without a start value
            return self + ResolutionCost()
        return NotImplemented

    @classmethod
    def merge(cls, costs: Iterable["ResolutionCost"]) -> "ResolutionCost":
        """Aggregate many per-resolution costs into one report."""
        total = cls()
        for cost in costs:
            total.steps += cost.steps
            total.local_steps += cost.local_steps
            total.remote_steps += cost.remote_steps
            total.cached_steps += cost.cached_steps
            total.messages += cost.messages
            total.latency += cost.latency
            total.failed_hops += cost.failed_hops
            total.retries += cost.retries
            total.failovers += cost.failovers
            total.stale_steps += cost.stale_steps
            total.weak = total.weak or cost.weak
            total.servers_touched |= cost.servers_touched
        return total

    def __str__(self) -> str:
        extra = ""
        if self.failed_hops or self.retries or self.failovers:
            extra = (f" failed={self.failed_hops} retries={self.retries} "
                     f"failovers={self.failovers}")
        if self.weak:
            extra += " WEAK"
        return (f"steps={self.steps} remote={self.remote_steps} "
                f"cached={self.cached_steps} "
                f"messages={self.messages} latency={self.latency:g}"
                f"{extra}")


class DistributedResolver:
    """Resolves names against placed directories, through the kernel.

    Args:
        simulator: The kernel carrying the resolution traffic.
        placement: Directory → machine placement (possibly replicated).
        latency: One-way message latency for server hops.
        cache_policy: Coherence policy for the per-machine prefix
            caches (``NONE`` disables prefix caching entirely).
        cache_ttl: Expiry window for ``TTL`` prefix entries, in
            virtual time.
        retry_policy: When set, dropped hops are retried with backoff
            and seeded jitter, a per-server circuit breaker skips
            servers that keep dropping, and the walk fails over across
            a directory's replica set.  ``None`` (the default) keeps
            the seed fail-fast behaviour: a lost leg fails the walk.
        serve_stale: Policy gate for degraded reads — when no
            authoritative replica of a directory is reachable, answer
            the step from the client's possibly-stale prefix cache and
            tag the resolution weakly coherent.  Requires a cache
            policy other than ``NONE`` and a retry policy.  The
            ``LEASE`` policy implies this gate (its *grace mode*).
        breaker_threshold / breaker_cooldown: Circuit-breaker tuning
            (consecutive drops to trip; virtual-time cooldown before
            half-opening).
        lease_term: Virtual-time term of ``LEASE``-policy grants; the
            bound on claimed-coherent staleness is this term plus one
            delivery delay.
    """

    def __init__(self, simulator: Simulator,
                 placement: DirectoryPlacement,
                 latency: float = 1.0,
                 cache_policy: CachePolicy = CachePolicy.NONE,
                 cache_ttl: float = 10.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 serve_stale: bool = False,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 lease_term: float = 30.0,
                 migration_batch: int = 100_000):
        self._sim = simulator
        self._placement = placement
        self._latency = latency
        self._obs = simulator.obs
        self._servers: dict[int, SimProcess] = {}
        self.cache_policy = cache_policy
        self.cache_ttl = cache_ttl
        self.retry_policy = retry_policy
        self.serve_stale = serve_stale
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.lease_term = lease_term
        if self._obs.enabled:
            metrics = self._obs.metrics
            self._m_messages = metrics.counter("resolver_messages_total")
            self._m_latency = metrics.histogram(
                "resolver_resolution_latency")
            self._m_res_messages = metrics.histogram(
                "resolver_resolution_messages",
                buckets=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0))
            self._m_load = metrics.counter_family(
                "resolver_server_load_total", "server")
            self._m_resolutions = metrics.counter_family(
                "resolver_resolutions_total", "style")
            self._m_outcomes = metrics.counter_family(
                "resolver_resolution_outcomes_total", "outcome")
            self._m_steps = metrics.counter_family(
                "resolver_steps_total", "kind")
        self._prefix_caches: dict[int, PrefixCache] = {}
        # Per-server-process circuit breakers, keyed by process uid.
        self._breakers: dict[int, CircuitBreaker] = {}
        #: The write discipline (rebind → replicate → invalidate /
        #: lease-break), its holder registry, lease state and counters.
        self.writes = WritePath(
            simulator, placement, cache_policy, latency=latency,
            retry_policy=retry_policy, lease_term=lease_term,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            speaker=self._speaker_for, drop_copies=self._drop_prefixes)
        #: The LEASE policy's server-side manager (``None`` otherwise).
        self.leases: Optional[LeaseManager] = self.writes.leases
        # Per-server load, keyed by process uid — labels are not
        # identities (two machines may share one), so counters never
        # collide; `load` aggregates by label for reporting only.
        self._load: dict[int, int] = {}
        self._server_labels: dict[int, str] = {}
        self.anti_entropy_messages = 0
        # Sharding: bindings moved per migration message, the live
        # split policy (wired by the deployment as
        # ``resolver.shard_manager = ShardManager(resolver, pool=…)``)
        # and migration accounting.
        self.migration_batch = migration_batch
        self.shard_manager = None
        self.migration_messages = 0
        self.migration_latency = 0.0
        self.shard_splits = 0
        self.shard_split_aborts = 0
        self.shard_merges = 0
        self.shard_merge_aborts = 0

    @property
    def replication_messages(self) -> int:
        """Replica-propagation messages sent by :meth:`rebind`."""
        return self.writes.replication_messages

    @property
    def invalidation_messages(self) -> int:
        """Invalidation / lease-callback / ack messages sent."""
        return self.writes.invalidation_messages

    @property
    def invalidation_latency(self) -> float:
        """Virtual time :meth:`rebind` spent draining its fan-outs."""
        return self.writes.invalidation_latency

    @property
    def invalidation_losses(self) -> int:
        """Undeliverable invalidations plus broken leases."""
        return self.writes.invalidation_losses

    @property
    def placement(self) -> DirectoryPlacement:
        """The placement this resolver routes against."""
        return self._placement

    def server_for(self, machine: Machine) -> SimProcess:
        """The (lazily spawned) directory-server process of a machine.

        A server whose process died with a machine crash is respawned
        here once the machine is back up — the lazy half of the
        restart story (:meth:`handle_restart` is the eager half, wired
        as a :meth:`~repro.sim.failures.FailureInjector.on_restart`
        hook, which also runs anti-entropy).
        """
        server = self._servers.get(id(machine))
        if server is None or (not server.alive and machine.alive):
            server = self._sim.spawn(machine,
                                     label=f"dirserver@{machine.label}")
            self._servers[id(machine)] = server
            self._server_labels[server.uid] = server.label
        return server

    def _speaker_for(self, machine: Machine) -> Optional[SimProcess]:
        """The process that can speak for *machine* right now: its
        server while the machine is up, else whatever (dead) server it
        last ran — ``None`` if it never ran one."""
        if machine.alive:
            return self.server_for(machine)
        return self._servers.get(id(machine))

    def _breaker_for(self, server: SimProcess) -> CircuitBreaker:
        breaker = self._breakers.get(server.uid)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                label=server.label, obs=self._obs)
            self._breakers[server.uid] = breaker
        return breaker

    def breaker_of(self, machine: Machine) -> CircuitBreaker:
        """The circuit breaker guarding a machine's current server."""
        return self._breaker_for(self.server_for(machine))

    def breaker_allows(self, machine: Machine) -> bool:
        """Whether *machine*'s breaker would admit a request — a
        **pure read** for policy decisions (the split-target choice).

        Unlike :meth:`breaker_of` this never spawns a server, and
        unlike :meth:`CircuitBreaker.allow` it never flips an open
        breaker to half-open — probing is the failover path's job, not
        a placement scan's.  A machine with no server (or no breaker)
        has no recorded failures, so it is allowed.
        """
        server = self._servers.get(id(machine))
        if server is None:
            return True
        breaker = self._breakers.get(server.uid)
        if breaker is None or breaker.state is not BreakerState.OPEN:
            return True
        return (self._sim.clock.now - breaker.opened_at
                >= breaker.cooldown)

    # -- load reporting ----------------------------------------------------

    @property
    def load(self) -> dict[str, int]:
        """Per-server load report, keyed by server label — for
        **reporting only**.

        Counters are kept per server *process*; labels are not
        identities (two servers may share one, and a respawned server
        is a new process under the old label), so this label-summed
        view is ambiguous.  Anything that *decides* off load — shard
        splitting, queue models, failover scoring — must key on uid
        via :meth:`load_by_uid`, :meth:`load_of` or
        :meth:`load_of_machine`.
        """
        report: dict[str, int] = {}
        for uid, count in self._load.items():
            label = self._server_labels[uid]
            report[label] = report.get(label, 0) + count
        return report

    def load_by_uid(self) -> dict[int, int]:
        """Per-server load keyed by server-process uid — the
        collision-free view placement decisions must use (a snapshot;
        diff two snapshots for a window)."""
        return dict(self._load)

    def load_of(self, server: SimProcess) -> int:
        """Steps served by one specific server process."""
        return self._load.get(server.uid, 0)

    def load_of_machine(self, machine: Machine) -> int:
        """Steps served by *machine*'s current server process (0 if
        no server ever ran there; a crashed-and-respawned server
        counts only its current incarnation)."""
        server = self._servers.get(id(machine))
        if server is None:
            return 0
        return self._load.get(server.uid, 0)

    def reset_load(self) -> None:
        """Clear the per-server load counters."""
        self._load.clear()

    def _charge(self, server: SimProcess) -> None:
        """Account one directory step served by *server*."""
        self._load[server.uid] = self._load.get(server.uid, 0) + 1
        if self._obs.enabled:
            self._m_load.labels(server.label).inc()

    # -- prefix caching ----------------------------------------------------

    def prefix_cache_of(self, machine: Machine) -> PrefixCache:
        """The (lazily created) prefix cache of a client machine."""
        cache = self._prefix_caches.get(id(machine))
        if cache is None:
            leased = self.cache_policy is CachePolicy.LEASE
            cache = PrefixCache(
                machine, obs=self._obs,
                # LEASE keeps expired entries for grace-mode serving
                # even without the explicit serve_stale gate.
                keep_expired=self.serve_stale or leased,
                lease_table=(self.lease_table_of(machine)
                             if leased else None))
            self._prefix_caches[id(machine)] = cache
        return cache

    def lease_table_of(self, machine: Machine) -> LeaseTable:
        """The (lazily created) client-side lease table of a machine."""
        return self.writes.lease_table_of(machine)

    def lease_stats(self) -> dict[str, int]:
        """Server-side plus aggregated client-side lease counters."""
        totals = {"grants": 0, "renewals": 0, "revocations": 0,
                  "expirations": 0, "grace_hits": 0, "revalidations": 0}
        for table in self.writes.lease_tables.values():
            for key, value in table.stats().items():
                if key in totals:
                    totals[key] += value
        if self.leases is not None:
            for key, value in self.leases.stats().items():
                totals[f"server_{key}"] = value
        return totals

    def cache_stats(self) -> dict[str, int]:
        """Aggregate hit/miss/invalidation/expiry/stale counts over
        every machine's prefix cache."""
        totals = {"hits": 0, "misses": 0, "invalidations": 0,
                  "expirations": 0, "stale_hits": 0}
        for cache in self._prefix_caches.values():
            for key, value in cache.stats().items():
                totals[key] += value
        return totals

    # -- messaging helpers -------------------------------------------------

    def _hop(self, sender: SimProcess, receiver: SimProcess,
             cost: ResolutionCost, what: str,
             count_failure: bool = True) -> bool:
        """One message leg, pumped through the kernel only as far as
        its own delivery (a hop no longer drains unrelated events).

        Returns True if the leg was delivered.  With *count_failure*
        a lost leg is terminal: it bumps ``cost.failed_hops`` and
        fails the enclosing span.  The failover path passes False and
        does its own recovery accounting (retries / failovers).
        """
        if sender is receiver:
            return True
        obs = self._obs
        before = self._sim.clock.now
        if not sender.alive:
            # A downed server answers/refers nothing: no message ever
            # leaves it, so the walk records a failed zero-message hop
            # instead of raising out of the resolution.
            if count_failure:
                cost.failed_hops += 1
            if obs.enabled:
                span = obs.tracer.begin(
                    "hop", what, before,
                    attrs={"from": sender.label, "to": receiver.label,
                           "messages": 0})
                span.fail(f"sender {sender.label} down")
                obs.tracer.end(span, before)
                if count_failure and obs.tracer.current is not None:
                    obs.tracer.current.fail(
                        f"hop {what} lost: sender {sender.label} down")
            return False
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "hop", what, before,
                attrs={"from": sender.label, "to": receiver.label,
                       "messages": 1})
        message = sender.send(receiver, payload={"ns": what},
                              latency=self._latency)
        if span is not None:
            message.trace_id = span.trace_id
            message.parent_span_id = span.span_id
        self._sim.run_until_settled(message)
        cost.messages += 1
        cost.latency += self._sim.clock.now - before
        if message.dropped and count_failure:
            cost.failed_hops += 1
        if span is not None:
            if message.dropped:
                span.fail(message.drop_reason)
            obs.tracer.end(span, self._sim.clock.now)
            if message.dropped and count_failure \
                    and obs.tracer.current is not None:
                # The walk lost a leg — surface it on the enclosing
                # resolution/batch span too.
                obs.tracer.current.fail(
                    f"hop {what} dropped: {message.drop_reason}")
            self._m_messages.inc()
        return not message.dropped

    def _walk_to(self, client_server: SimProcess, at: SimProcess,
                 target: SimProcess, cost: ResolutionCost,
                 style: ResolutionStyle) -> SimProcess:
        if target is at:
            return at
        cost.servers_touched.add(target.label)
        if style is ResolutionStyle.ITERATIVE:
            # Referral back to the client, then query the next server.
            self._hop(at, client_server, cost, "referral")
            self._hop(client_server, target, cost, "query")
        else:
            self._hop(at, target, cost, "forward")
        return target

    def _hop_retried(self, sender: SimProcess, receiver: SimProcess,
                     cost: ResolutionCost, what: str) -> bool:
        """A hop that honours the retry policy (no failover — the
        endpoints are fixed, e.g. the answer leg home).  Without a
        policy it is exactly :meth:`_hop`."""
        policy = self.retry_policy
        if policy is None:
            return self._hop(sender, receiver, cost, what)
        obs = self._obs
        for attempt in range(1, policy.max_attempts + 1):
            if self._hop(sender, receiver, cost, what,
                         count_failure=False):
                return True
            if attempt >= policy.max_attempts:
                break
            cost.retries += 1
            delay = policy.backoff(attempt, self._sim.rng)
            if obs.enabled:
                obs.metrics.counter("resolver_retries_total").inc()
                obs.tracer.event(
                    "retry", f"{what}→{receiver.label}",
                    self._sim.clock.now,
                    attrs={"attempt": attempt, "backoff": delay,
                           "server": receiver.label})
            before = self._sim.clock.now
            self._sim.run(until=before + delay)
            cost.latency += self._sim.clock.now - before
        cost.failed_hops += 1
        if obs.enabled and obs.tracer.current is not None:
            obs.tracer.current.fail(f"hop {what} lost after "
                                    f"{policy.max_attempts} attempts")
        return False

    def _return_home(self, client_server: SimProcess, at: SimProcess,
                     cost: ResolutionCost,
                     style: ResolutionStyle) -> None:
        if at is not client_server:
            self._hop_retried(at, client_server, cost, "answer")

    @staticmethod
    def _count_locality(client_server: SimProcess, at: SimProcess,
                        cost: ResolutionCost) -> None:
        if at is client_server:
            cost.local_steps += 1
        else:
            cost.remote_steps += 1

    def _route_host(self, directory: Entity, component: Optional[str],
                    routes: Optional[dict]) -> Optional[Machine]:
        """The machine serving *component*'s binding in *directory*,
        through the batch route memo when one is active.

        The memo saves re-hashing shared prefixes across a sorted
        batch, but a route is only as good as the placement epoch it
        was computed under: a shard split landing **mid-batch** bumps
        the epoch, and serving later names from pre-split routes would
        send them to a server whose bindings just migrated away.  The
        memo therefore records its epoch and self-clears on any bump —
        later batch items re-route against the live shard map.

        With no sharded placements at all there is nothing to hash and
        nothing for the memo to save, so the whole apparatus is
        skipped — an unsharded deployment pays one boolean check over
        the classic per-directory lookup.
        """
        if routes is None or not self._placement.has_sharding:
            return self._placement.host_of_binding(directory, component)
        epoch = self._placement.epoch
        if routes.get("epoch") != epoch:
            routes.clear()
            routes["epoch"] = epoch
        key = (directory.uid, component)
        if key in routes:
            # Memo hit — still record the routing hit against the
            # owning shard, or the split policy would go blind to
            # exactly the hot repeated lookups it exists to catch.
            self._placement.note_binding_load(directory, component)
            return routes[key]
        host = self._placement.host_of_binding(directory, component)
        routes[key] = host
        return host

    def _step_into(self, directory: Entity, at: SimProcess,
                   component: Optional[str],
                   routes: Optional[dict]) -> SimProcess:
        # Inlined no-sharding fast path (hot: once per walk step).
        placement = self._placement
        if routes is None or not placement.has_sharding:
            host = placement.host_of_binding(directory, component)
        else:
            host = self._route_host(directory, component, routes)
        if host is None:
            # Unplaced directories (e.g. per-process private roots)
            # are wherever the walk already is.
            return at
        server = self.server_for(host)
        self._charge(server)
        return server

    # -- failover ----------------------------------------------------------

    def _enter_directory(self, client_server: SimProcess,
                         directory: ObjectEntity, at: SimProcess,
                         cost: ResolutionCost,
                         style: ResolutionStyle,
                         component: Optional[str] = None,
                         routes: Optional[dict] = None,
                         ) -> Optional[SimProcess]:
        """Move the walk to the server answering the next lookup.

        *component* is the binding about to be consulted in
        *directory*: for sharded directories the serving machine is
        per-binding (the owning shard), not per-directory, so routing
        needs to know what will be asked.  ``None`` (no next lookup)
        routes to the directory's representative host.

        Without a retry policy this is the seed fail-fast path: one
        attempt against the primary, lost legs fail the walk.  With
        one, candidates are tried in replica order (preferring the
        server the walk already parks at), each with bounded backoff
        retries and a circuit breaker; stale replicas are skipped.
        Returns the server now serving the walk, or None when *every*
        replica was unreachable (the caller degrades or fails).
        """
        if self.retry_policy is None:
            return self._walk_to(client_server, at,
                                 self._step_into(directory, at,
                                                 component, routes),
                                 cost, style)
        return self._enter_with_failover(client_server, directory, at,
                                         cost, style, component)

    def _enter_with_failover(self, client_server: SimProcess,
                             directory: ObjectEntity, at: SimProcess,
                             cost: ResolutionCost,
                             style: ResolutionStyle,
                             component: Optional[str] = None,
                             ) -> Optional[SimProcess]:
        replicas = list(self._placement.replicas_for_binding(directory,
                                                             component))
        if not replicas:
            return at  # unplaced — local state, nothing to reach
        # Prefer the replica the walk is already parked at: entering
        # it is free (batch coalescing depends on this).
        if at.machine in replicas:
            replicas.remove(at.machine)
            replicas.insert(0, at.machine)
        policy = self.retry_policy
        obs = self._obs
        iterative = style is ResolutionStyle.ITERATIVE
        origin = at if at.alive else client_server
        referred = False
        # Candidates passed over (stale-skipped, breaker-skipped, or
        # attempt-exhausted) before one answered: serving from any
        # later replica is a failover.
        passed_over = 0
        for machine in replicas:
            if self._placement.is_stale(directory, machine):
                # A replica that missed a write must not serve reads
                # until anti-entropy catches it up.
                passed_over += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "resolver_stale_replica_skips_total").inc()
                    obs.tracer.event(
                        "failover", "replica.stale-skip",
                        self._sim.clock.now,
                        attrs={"directory": directory.label,
                               "replica": machine.label})
                continue
            if not machine.alive and id(machine) not in self._servers:
                # The machine is down and no server process ever ran
                # there — there is nothing to address a message to, so
                # the candidate is unreachable without spending a hop.
                passed_over += 1
                if obs.enabled:
                    obs.tracer.event(
                        "failover", "replica.down-skip",
                        self._sim.clock.now,
                        attrs={"directory": directory.label,
                               "replica": machine.label})
                continue
            server = self.server_for(machine)
            if server is at:
                self._charge(server)
                return at
            now = self._sim.clock.now
            breaker = self._breaker_for(server)
            if not breaker.allow(now):
                passed_over += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "resolver_circuit_open_skips_total").inc()
                    obs.tracer.event(
                        "circuit", "skip", now,
                        attrs={"server": server.label,
                               "directory": directory.label})
                continue
            cost.servers_touched.add(server.label)
            if iterative and not referred and at is not client_server:
                # One referral leaves the current server, however many
                # candidate queries follow.
                self._hop_retried(at, client_server, cost, "referral")
                referred = True
            sender = client_server if iterative else origin
            what = "query" if iterative else "forward"
            for attempt in range(1, policy.max_attempts + 1):
                if self._hop(sender, server, cost, what,
                             count_failure=False):
                    breaker.record_success(self._sim.clock.now)
                    self._charge(server)
                    if passed_over:
                        cost.failovers += 1
                        if obs.enabled:
                            obs.metrics.counter(
                                "resolver_failovers_total").inc()
                            obs.tracer.event(
                                "failover", directory.label,
                                self._sim.clock.now,
                                attrs={"directory": directory.label,
                                       "to": server.label,
                                       "passed_over": passed_over})
                    return server
                breaker.record_failure(self._sim.clock.now)
                if attempt >= policy.max_attempts or \
                        not breaker.allow(self._sim.clock.now):
                    break
                cost.retries += 1
                delay = policy.backoff(attempt, self._sim.rng)
                if obs.enabled:
                    obs.metrics.counter("resolver_retries_total").inc()
                    obs.tracer.event(
                        "retry", f"{what}→{server.label}",
                        self._sim.clock.now,
                        attrs={"attempt": attempt, "backoff": delay,
                               "server": server.label})
                before = self._sim.clock.now
                self._sim.run(until=before + delay)
                cost.latency += self._sim.clock.now - before
            passed_over += 1
        return None

    def _degraded_step(self, client_server: SimProcess, context: Context,
                       rooted: bool, consumed: tuple[str, ...],
                       directory: ObjectEntity, cost: ResolutionCost,
                       ) -> tuple[SimProcess, Optional[PrefixEntry]]:
        """Every replica of *directory* was unreachable: serve the
        step from the client's stale prefix cache (tagging the answer
        weakly coherent) if the ``serve_stale`` gate allows, else mark
        the walk failed.  Either way the walk continues at the client.

        Under ``LEASE`` this is *grace mode*: the client enters grace
        (it cannot renew) and keeps answering from its expired leased
        entries — returning the **cached** directory, which may predate
        a rebind it never heard about, so the caller must continue the
        walk in the returned entry's state.  The grace answer is
        always tagged weak; on heal, :meth:`LeaseTable.exit_grace`
        revalidates before anything is promoted back to fresh.

        Returns ``(server the walk continues at, stale entry or
        None)``; a non-None entry means the step was served degraded.
        """
        obs = self._obs
        now = self._sim.clock.now
        leased = self.cache_policy is CachePolicy.LEASE
        if (self.serve_stale or leased) \
                and self.cache_policy is not CachePolicy.NONE:
            cache = self.prefix_cache_of(client_server.machine)
            entry = cache.lookup_stale(context, rooted, consumed)
            if leased:
                # Grace mode: the cached entry may point at an *older*
                # directory than the true σ does (a rebind we never
                # heard about) — serve the promise we still hold,
                # weak-tagged.  A *revoked* promise (delivered break
                # callback) was dropped from the cache, so it can
                # never be resurrected here.
                if entry is not None:
                    self.lease_table_of(
                        client_server.machine).enter_grace(now)
            elif entry is not None and entry.directory is not directory:
                entry = None
            if entry is not None:
                cost.stale_steps += 1
                cost.weak = True
                if leased:
                    self.lease_table_of(
                        client_server.machine).served_in_grace(now)
                if obs.enabled:
                    obs.metrics.counter(
                        "resolver_stale_served_total").inc()
                    obs.tracer.event(
                        "stale", "serve.degraded", now,
                        attrs={"directory": entry.directory.label,
                               "prefix": "/".join(consumed),
                               "machine": client_server.machine.label})
                return client_server, entry
        cost.failed_hops += 1
        if obs.enabled:
            obs.metrics.counter("resolver_unreachable_total").inc()
            obs.tracer.event(
                "failover", "exhausted", now,
                attrs={"directory": directory.label,
                       "prefix": "/".join(consumed)})
            if obs.tracer.current is not None:
                obs.tracer.current.fail(
                    f"directory {directory.label} unreachable")
        return client_server, None

    # -- the walk ----------------------------------------------------------

    def _deepest_prefix(self, client_machine: Machine, context: Context,
                        rooted: bool, comps: list[str],
                        memo: Optional[dict]):
        """The deepest usable memoized prefix of *comps*.

        Batch-local memo entries (always coherent — nothing external
        interleaves within one batch) and the machine's policy-gated
        prefix cache are both consulted; the deeper wins.  Returns
        ``(consumed, directory, deps, source)`` or None, where
        *source* says which layer won (``"memo"`` or ``"cache"``).
        """
        best = None
        if memo is not None:
            for length in range(len(comps) - 1, 0, -1):
                hit = memo.get((id(context), rooted, tuple(comps[:length])))
                if hit is not None:
                    best = (length, hit[0], hit[1], "memo")
                    break
        if self.cache_policy is not CachePolicy.NONE:
            cache = self.prefix_cache_of(client_machine)
            found = cache.lookup_longest(context, rooted, comps,
                                         self._sim.clock.now,
                                         self._placement.epoch)
            if found is not None and (best is None or found[0] > best[0]):
                entry = found[1]
                best = (found[0], entry.directory, entry.deps, "cache")
        return best

    def _remember_prefix(self, client_machine: Machine, context: Context,
                         rooted: bool, consumed: tuple[str, ...],
                         directory: ObjectEntity, deps: tuple,
                         memo: Optional[dict]) -> None:
        if memo is not None:
            memo[(id(context), rooted, consumed)] = (directory, deps)
        if self.cache_policy is CachePolicy.NONE:
            return
        if self._placement.host_of(directory) is None:
            return  # local state — there is no walk to skip
        cache = self.prefix_cache_of(client_machine)
        ttl = self.cache_ttl if self.cache_policy is CachePolicy.TTL else None
        now = self._sim.clock.now
        epoch = self._placement.epoch
        cache.fill(context, rooted, consumed, directory, deps,
                   now, ttl, epoch)
        if self.cache_policy is CachePolicy.LEASE:
            table = self.lease_table_of(client_machine)
            if table.in_grace \
                    and self._placement.host_of(directory) \
                    is not client_machine:
                # A *remote* authoritative step succeeded again: the
                # partition healed.  Revalidate before promoting
                # anything back to fresh.  (Locally-placed directories
                # answer through any partition, so they prove nothing.)
                table.exit_grace(now, epoch)
        self.writes.note_copies(client_machine, deps)

    def _walk_one(self, client_server: SimProcess, context: Context,
                  name_: CompoundName, style: ResolutionStyle,
                  cost: ResolutionCost, at: SimProcess,
                  memo: Optional[dict],
                  routes: Optional[dict] = None,
                  ) -> tuple[Entity, SimProcess]:
        """Resolve one coerced name; mirrors the section-2 recursion of
        :func:`repro.model.resolution.resolve_traced` exactly.

        The final answer hop is *not* sent — the caller decides when
        the walk returns home (once per resolution, or once per batch).
        Returns ``(entity, server the walk parked at)``.
        """
        parts = list(name_.parts)
        rooted = name_.rooted
        # The root binding is one walk step like any other component.
        comps = ([ROOT_NAME] + parts) if rooted else parts
        if not comps:
            return UNDEFINED_ENTITY, at

        current: Context = context
        entered: Optional[ObjectEntity] = None
        deps: list = []
        start = 0
        obs = self._obs
        # Once a step is served degraded (or unreachable) the walk's
        # remaining prefixes must not be memoized as coherent.
        tainted = False

        hit = self._deepest_prefix(client_server.machine, context,
                                   rooted, comps, memo)
        if hit is not None:
            start, directory, hit_deps, source = hit
            if obs.enabled:
                obs.tracer.event(
                    "cache", "prefix.hit", self._sim.clock.now,
                    attrs={"consumed": start, "source": source,
                           "machine": client_server.machine.label,
                           "prefix": "/".join(comps[:start])})
            cost.steps += start
            cost.cached_steps += start
            entered = directory
            current = directory.state
            deps = list(hit_deps)
            nxt = self._enter_directory(client_server, directory, at,
                                        cost, style, comps[start],
                                        routes)
            if nxt is None:
                at, stale_entry = self._degraded_step(
                    client_server, context, rooted,
                    tuple(comps[:start]), directory, cost)
                if stale_entry is not None:
                    entered = stale_entry.directory
                    current = entered.state
                tainted = True
            else:
                at = nxt
            self._count_locality(client_server, at, cost)
        elif obs.enabled and (memo is not None
                              or self.cache_policy is not CachePolicy.NONE):
            obs.tracer.event(
                "cache", "prefix.miss", self._sim.clock.now,
                attrs={"machine": client_server.machine.label,
                       "prefix": "/".join(comps[:-1])})

        for index in range(start, len(comps)):
            component = comps[index]
            entity = current(component)
            cost.steps += 1
            if obs.enabled:
                obs.tracer.event(
                    "step", component, self._sim.clock.now,
                    attrs={"index": index, "server": at.label,
                           "directory": (entered.label
                                         if entered is not None
                                         else "<context>")})
            if index == len(comps) - 1:
                return entity, at
            if not entity.is_defined():
                return UNDEFINED_ENTITY, at
            state = entity.state
            if not isinstance(state, Context):
                return UNDEFINED_ENTITY, at
            deps.append(binding_dep(entered, component)
                        if entered is not None
                        else context_dep(context, component))
            entered = entity  # type: ignore[assignment]
            current = state
            nxt = self._enter_directory(client_server, entered, at,
                                        cost, style, comps[index + 1],
                                        routes)
            if nxt is None:
                at, stale_entry = self._degraded_step(
                    client_server, context, rooted,
                    tuple(comps[:index + 1]), entered, cost)
                if stale_entry is not None:
                    # Continue in the *cached* (possibly older)
                    # directory — the degraded walk must not read
                    # through true state it could never have reached.
                    entered = stale_entry.directory
                    current = entered.state
                tainted = True
            else:
                at = nxt
            self._count_locality(client_server, at, cost)
            if not tainted:
                self._remember_prefix(client_server.machine, context,
                                      rooted, tuple(comps[:index + 1]),
                                      entered, tuple(deps), memo)
        return UNDEFINED_ENTITY, at  # pragma: no cover - loop returns

    # -- observability -----------------------------------------------------

    def _begin_resolution(self, name_: CompoundName, style: ResolutionStyle,
                          client: SimProcess, root: bool):
        """Open one name's ``resolution`` span (instrumented runs)."""
        return self._obs.tracer.begin(
            "resolution", str(name_) or "<empty>", self._sim.clock.now,
            **({"parent": None} if root else {}),
            attrs={"style": str(style), "policy": str(self.cache_policy),
                   "client": client.label})

    def _finish_resolution(self, span, cost: ResolutionCost,
                           entity: Entity, style: ResolutionStyle) -> None:
        """Close a ``resolution`` span and publish its metrics."""
        span.attrs.update(messages=cost.messages, steps=cost.steps,
                          cached_steps=cost.cached_steps,
                          resolved=entity.is_defined(),
                          coherence=cost.coherence)
        self._obs.tracer.end(span, self._sim.clock.now)
        self._m_resolutions.labels(style.value).inc()
        self._m_outcomes.labels("failed" if cost.failed
                                else cost.coherence).inc()
        self._m_latency.observe(cost.latency)
        self._m_res_messages.observe(cost.messages)
        steps = self._m_steps
        for kind, amount in (("local", cost.local_steps),
                             ("remote", cost.remote_steps),
                             ("cached", cost.cached_steps)):
            if amount:
                steps.labels(kind).inc(amount)

    # -- API ---------------------------------------------------------------

    def resolve(self, client: SimProcess, context: Context,
                name_: NameLike,
                style: ResolutionStyle = ResolutionStyle.ITERATIVE,
                ) -> tuple[Entity, ResolutionCost]:
        """Resolve *name_* in *context* on behalf of *client*.

        The context's own bindings (including the root binding) are
        consulted locally — a process's context is kernel state on its
        own machine; only steps into *placed* directories can be
        remote.  With a cache policy active, the walk starts at the
        deepest live cached prefix instead of the root.

        Check ``cost.failed`` before trusting the answer under
        faults: a fail-fast walk that lost a leg (or a failover walk
        that exhausted every replica) is flagged there, and a
        stale-served answer carries ``cost.weak``.
        """
        name_ = CompoundName.coerce(name_)
        cost = ResolutionCost()
        client_server = self.server_for(client.machine)
        span = (self._begin_resolution(name_, style, client, root=True)
                if self._obs.enabled else None)
        entity, at = self._walk_one(client_server, context, name_, style,
                                    cost, client_server, None)
        self._return_home(client_server, at, cost, style)
        if span is not None:
            self._finish_resolution(span, cost, entity, style)
        auditor = self._obs.auditor
        if auditor is not None:
            auditor.observe_resolution(
                context, name_, entity, now=self._sim.clock.now,
                policy=self.cache_policy.value, weak=cost.weak,
                failed=cost.failed, latency=cost.latency,
                ttl=self.cache_ttl, lease_term=self.lease_term,
                placement=self._placement)
        if self.shard_manager is not None:
            self.shard_manager.on_resolution()
        return entity, cost

    def resolve_many(self, client: SimProcess, context: Context,
                     names: Sequence[NameLike],
                     style: ResolutionStyle = ResolutionStyle.ITERATIVE,
                     ) -> list[tuple[Entity, ResolutionCost]]:
        """Resolve a batch of names, amortizing shared work.

        Names are processed sorted by shared prefix; every directory
        step is paid at most once per batch (a batch-local memo layered
        over the prefix cache), and consecutive queries served by the
        same server are coalesced into its one visit — the walk parks
        at each server instead of returning home between names, and a
        single answer hop closes the batch.

        Returns one ``(entity, cost)`` per input name, **in input
        order**, entity-for-entity identical to what sequential
        :meth:`resolve` calls would yield (property-tested).  Messages
        are charged to the name that first needed them; aggregate with
        :meth:`ResolutionCost.merge`.
        """
        coerced = [CompoundName.coerce(n) for n in names]
        if not coerced:
            return []
        order = sorted(range(len(coerced)),
                       key=lambda i: (not coerced[i].rooted,
                                      coerced[i].parts, i))
        client_server = self.server_for(client.machine)
        obs = self._obs
        batch_span = None
        if obs.enabled:
            batch_span = obs.tracer.begin(
                "batch", f"resolve_many[{len(coerced)}]",
                self._sim.clock.now, parent=None,
                attrs={"names": len(coerced), "style": str(style),
                       "policy": str(self.cache_policy),
                       "client": client.label})
        results: list = [None] * len(coerced)
        auditor = obs.auditor
        memo: dict = {}
        # Batch route memo (see _route_host): epoch-guarded so a
        # shard split landing mid-batch re-routes the rest of the
        # batch instead of serving pre-split routes.
        routes: dict = {"epoch": self._placement.epoch}
        at = client_server
        for i in order:
            cost = ResolutionCost()
            span = (self._begin_resolution(coerced[i], style, client,
                                           root=False)
                    if obs.enabled else None)
            entity, at = self._walk_one(client_server, context,
                                        coerced[i], style, cost, at,
                                        memo, routes)
            results[i] = (entity, cost)
            if span is not None:
                self._finish_resolution(span, cost, entity, style)
            if auditor is not None:
                auditor.observe_resolution(
                    context, coerced[i], entity,
                    now=self._sim.clock.now,
                    policy=self.cache_policy.value, weak=cost.weak,
                    failed=cost.failed, latency=cost.latency,
                    ttl=self.cache_ttl, lease_term=self.lease_term,
                    placement=self._placement)
            if self.shard_manager is not None:
                # Per-walk, not per-batch: a hot batch must be able to
                # trigger a split while it is still running.
                self.shard_manager.on_resolution()
        # One answer hop closes the whole batch, charged to the last
        # name processed (its span parents under the batch span).
        self._return_home(client_server, at, results[order[-1]][1], style)
        if batch_span is not None:
            batch_span.attrs["messages"] = sum(
                cost.messages for _entity, cost in results)
            obs.tracer.end(batch_span, self._sim.clock.now)
        return results

    # -- writes ------------------------------------------------------------

    def rebind(self, directory: ObjectEntity, name_: str,
               entity: Entity) -> int:
        """Change ``σ(directory)(name_)`` under the write discipline
        (:meth:`repro.nameservice.writes.WritePath.rebind`): commit,
        replicate, then invalidate or break the leases on every cached
        prefix that consumed the binding.  All binding writes to
        placed directories must come through here.

        Returns the number of invalidation/callback messages sent.
        """
        return self.writes.rebind(directory, name_, entity)

    def _drop_prefixes(self, machine_id: int, directory: ObjectEntity,
                       name_: str) -> int:
        """Drop a holder's cached prefixes through one binding."""
        cache = self._prefix_caches.get(machine_id)
        if cache is None:
            return 0
        return cache.invalidate_through(binding_dep(directory, name_))

    # -- shard splits / migration ------------------------------------------

    def split_shard(self, directory: ObjectEntity, shard: Shard,
                    machine: Machine) -> bool:
        """Split *shard* of a sharded directory, migrating the upper
        half-range of its bindings to *machine* — as simulated
        messages, so traces, failure injection and the retry/breaker
        machinery all apply to rebalancing traffic.

        The migration is **commit-last**: binding batches stream from
        the source shard's server to the target first (⌈moved /
        :attr:`migration_batch`⌉ messages, minimum one — an empty
        range still hands off ownership), each leg going through the
        retried-hop path; only when every batch lands does
        :meth:`~repro.nameservice.placement.DirectoryPlacement.
        apply_split` commit the new map and bump the placement epoch
        exactly once.  An undeliverable batch (or a dead source)
        aborts the split with the old map — and the old epoch —
        intact, so no route ever points at a half-migrated shard; on a
        replicated map the aborted range keeps being served by the old
        shard's surviving replicas, so a crash at *any* fault point of
        the migration leaves every binding with exactly one live
        owner range.

        On a replicated map the new shard's secondaries
        (``plan.targets[1:]``) are drawn from the source shard's own
        replica set — machines that already hold the migrating
        bindings — so only the new primary receives migration traffic
        and the replication degree carries over with zero extra
        copies.

        Returns True if the split committed.
        """
        shard_map = self._placement.shard_map_of(directory)
        if shard_map is None:
            raise SchemeError(
                f"directory {directory.label!r} is not sharded")
        plan = shard_map.plan_split(shard, machine)
        return self._migrate(
            "split", directory, plan, shard.machine, [machine],
            self._placement.apply_split,
            {"directory": directory.label,
             "source": shard.machine.label,
             "target": machine.label,
             "split_at": plan.split_at,
             "moved": len(plan.moved),
             "replicas": len(plan.targets)})

    def merge_shards(self, directory: ObjectEntity, left: Shard,
                     right: Shard) -> bool:
        """Fold *right*'s range into *left* (adjacent shards of a
        sharded directory) — the inverse of :meth:`split_shard`, under
        the same commit-last discipline.

        Binding batches stream from *right*'s primary to every *left*
        replica that is not already a *right* replica (those already
        hold the range's bindings); only when every receiver has every
        batch does :meth:`~repro.nameservice.placement.
        DirectoryPlacement.apply_merge` commit the widened map and
        bump the epoch exactly once.  Any undeliverable batch — or an
        unaddressable endpoint — aborts with the old map intact: a
        left replica that missed the data must never become an owner
        of the merged range.

        Returns True if the merge committed.
        """
        shard_map = self._placement.shard_map_of(directory)
        if shard_map is None:
            raise SchemeError(
                f"directory {directory.label!r} is not sharded")
        plan = shard_map.plan_merge(left, right)
        return self._migrate(
            "merge", directory, plan, right.machine,
            [m for m in left.replicas if m not in right.replicas],
            self._placement.apply_merge,
            {"directory": directory.label,
             "source": right.machine.label,
             "target": left.machine.label,
             "merge_at": right.lo,
             "moved": len(plan.moved)})

    def _migrate(self, kind: str, directory: ObjectEntity, plan,
                 source_machine: Machine, receivers: list[Machine],
                 commit, attrs: dict) -> bool:
        """The commit-last migration behind :meth:`split_shard` and
        :meth:`merge_shards`: stream ``plan.moved`` from
        *source_machine*'s server to every receiver in ⌈moved /
        :attr:`migration_batch`⌉ retried ``migrate`` hops each
        (minimum one — an empty range still hands off ownership), and
        ``commit(plan)`` only when every batch reached every receiver.
        """
        obs = self._obs
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "shard", f"{kind}:{directory.label}", self._sim.clock.now,
                parent=None, attrs=attrs)
        committed = False
        cost = ResolutionCost()  # migration accounting only
        # A migration endpoint that is down and has never had a server
        # cannot even be addressed — abort without sending anything
        # (a dead machine with an existing server still gets messages
        # sent at it, which fail and abort through the hop path).
        if all(m.alive or id(m) in self._servers
               for m in [source_machine, *receivers]):
            source = self.server_for(source_machine)
            batches = max(
                1, -(-len(plan.moved) // max(1, self.migration_batch)))
            committed = True
            for receiver in receivers:
                target = self.server_for(receiver)
                if not all(self._hop_retried(source, target, cost,
                                             "migrate")
                           for _index in range(batches)):
                    # A receiver that missed data must never become
                    # an owner of the range.
                    committed = False
                    break
            if committed:
                commit(plan)
        self.migration_messages += cost.messages
        self.migration_latency += cost.latency
        tally = f"shard_{kind}s" if committed else f"shard_{kind}_aborts"
        setattr(self, tally, getattr(self, tally) + 1)
        if obs.enabled:
            obs.metrics.counter(
                f"resolver_shard_{kind}s_total",
                {"outcome": "committed" if committed else "aborted"}
            ).inc()
            if cost.messages:
                obs.metrics.counter(
                    "resolver_migration_messages_total"
                ).inc(cost.messages)
            if span is not None:
                span.attrs["messages"] = cost.messages
                span.attrs["committed"] = committed
                span.attrs["shards"] = len(
                    self._placement.shard_map_of(directory))
                if not committed:
                    span.fail(
                        f"migration undeliverable — {kind} aborted")
                obs.tracer.end(span, self._sim.clock.now)
        return committed

    # -- restart / anti-entropy --------------------------------------------

    def handle_restart(self, machine: Machine) -> int:
        """Respawn hook: bring a restarted machine's server back and
        anti-entropy its stale replicas.

        Wire as ``injector.on_restart(resolver.handle_restart)`` so
        :meth:`~repro.sim.failures.FailureInjector.restart_machine`
        calls it.  The machine's dead directory-server process is
        re-registered (fresh process, fresh circuit breaker), and each
        directory whose copy here missed a write is synced from its
        sync source — the directory's primary, or for a sharded
        directory a live fresh fellow replica of the stale shard
        (:meth:`~repro.nameservice.placement.DirectoryPlacement.
        sync_source_for`) — one message per directory, counted in
        :attr:`anti_entropy_messages`; a sync with no reachable source
        leaves the mark in place.  Returns the number of directories
        synced.
        """
        server = self._servers.get(id(machine))
        if server is not None and not server.alive and machine.alive:
            del self._servers[id(machine)]
            server = self.server_for(machine)
        stale = self._placement.stale_uids_of(machine)
        if not stale:
            return 0
        obs = self._obs
        span = None
        if obs.enabled:
            span = obs.tracer.begin(
                "anti_entropy", machine.label, self._sim.clock.now,
                parent=None, attrs={"machine": machine.label,
                                    "stale": len(stale)})
        synced = 0
        messages = 0
        for uid in stale:
            source = self._placement.sync_source_for(uid, machine)
            if source is None and self._placement.is_placed_uid(uid):
                continue  # no live fresh source — stays stale
            if source is not None and source is not machine:
                source_server = self._speaker_for(source)
                if source_server is None or not source_server.alive:
                    continue  # stays stale; a later restart retries
                message = source_server.send(
                    self.server_for(machine),
                    payload={"ns": "anti-entropy"}, latency=self._latency)
                if span is not None:
                    message.trace_id = span.trace_id
                    message.parent_span_id = span.span_id
                self._sim.run_until_settled(message)
                self.anti_entropy_messages += 1
                messages += 1
                if message.dropped:
                    continue  # unreachable source — stays stale
            if self._placement.clear_stale(uid, machine):
                synced += 1
        if obs.enabled:
            if synced:
                obs.metrics.counter(
                    "resolver_anti_entropy_syncs_total").inc(synced)
            if span is not None:
                span.attrs["synced"] = synced
                span.attrs["messages"] = messages
                obs.tracer.end(span, self._sim.clock.now)
        return synced


def check_semantics_preserved(resolver: DistributedResolver,
                              client: SimProcess, context: Context,
                              name_: NameLike,
                              style: ResolutionStyle =
                              ResolutionStyle.ITERATIVE) -> bool:
    """True if the distributed walk returns exactly what the local
    section-2 recursion returns (used by tests)."""
    from repro.model.resolution import resolve as local_resolve

    distributed, _cost = resolver.resolve(client, context, name_, style)
    return distributed is local_resolve(context, name_)

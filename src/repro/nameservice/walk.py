"""The walk: section-2 name resolution, defined once, sans-IO.

:func:`walk_effects` is the paper's recursion over *placed* directories
as an effect-yielding generator — the shape the write discipline,
:func:`repro.nameservice.writes.write_effects`, shares.  It owns
everything that decides a resolution — the loop over the name's components, the
prefix-cache probe and fill, the replica candidates of each directory
with their stale / down / open-breaker skips, the bounded retry with
seeded backoff (:func:`retry_effects`), the retry / failover
accounting and the serve-stale / ``LEASE``-grace degraded step — and
performs no I/O.  It yields two effects:

* :class:`Ask` — "ask *target* for ``directory(component)``, attempt
  *n*"; the driver resumes the generator with the entity bound there
  (``⊥E`` if none), with a *trail* or with :data:`LOST`.  A trail is
  the answer of a server that kept walking ``Ask.rest`` (§2: the rest
  of the name belongs with whoever holds the context just reached): a
  list of one entity per component consumed, ``⊥E`` only last.  The
  walk takes each as one more remote step at that server — cost,
  ``charge``, deps and prefix fills as if it had asked — and carries
  on from the last one through its own router;
* :class:`~repro.nameservice.leases.Wait` — let a backoff pass; the
  driver resumes with ``None``, or with the reply the previous ask was
  still owed if that arrived first.

Steps that cost no message yield nothing: the context's own bindings,
unplaced directories and a directory served where the walk already
stands are read in place.  Two drivers run it:
:class:`~repro.nameservice.resolver.DistributedResolver` pumps the
simulator kernel (an ask is its referral/query/forward hops, a wait is
``sim.run(until=…)``) and
:class:`~repro.nameservice.protocol.AsyncNameClient` is message-driven
(an ask is a request frame plus a timeout timer) on either transport.

The *host* argument is the driver; the walk reads from it the names
of :data:`HOST_PROTOCOL` and nothing else (a tier-1 test holds it to
that):

* the regime: ``retry_policy`` (asks per candidate and the backoff
  between them; ``None`` = exactly ``RetryPolicy(max_attempts=1)`` on
  the primary: one ask, no failover, on every driver) and ``parks``
  (after an answered ask the walk stands at the target, so its next
  steps there are free; a host that does not park stays at *home* and
  gets the unresolved suffix on every ask, to ship with it);
* the copies: ``cache_of(home)`` — the home node's
  :class:`~repro.nameservice.cache.PrefixCache`, which takes its
  policy's decisions itself, or ``None`` (no probe, no fill, no
  degraded serve);
* routing: ``replicas(directory, component)`` (candidate nodes,
  preferred first, empty if unplaced), ``target_on(directory, node)``
  (whom to ask there, or :data:`STALE` / :data:`DOWN`),
  ``node_of(target)``, ``breaker_for(target)`` (may be ``None``) and
  ``charge(target)`` (one step served);
* ``now()``, ``rng`` and ``obs``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Optional, Union

from repro.model.context import Context
from repro.model.entities import ObjectEntity, UNDEFINED_ENTITY
from repro.model.names import ROOT_NAME, CompoundName
from repro.nameservice.cache import (PrefixCache, PrefixEntry, binding_dep,
                                     context_dep)
from repro.nameservice.leases import Wait
from repro.nameservice.retry import CircuitBreaker

__all__ = ["HOST_PROTOCOL", "LOST", "STALE", "DOWN", "Ask",
           "ResolutionCost", "retry_effects", "walk_effects"]

#: Every attribute :func:`walk_effects` and :func:`retry_effects` read
#: from their host (see the module docstring).  Widening the protocol
#: means adding a name here.
HOST_PROTOCOL = ("retry_policy", "parks", "cache_of", "replicas",
                 "target_on", "node_of", "breaker_for", "charge", "now",
                 "rng", "obs")


class _Verdict(enum.Enum):
    LOST = "lost"
    STALE = "stale"
    DOWN = "down"

    def __repr__(self) -> str:
        return self.name


#: Reply to an :class:`Ask` that got no answer (dropped, timed out).
LOST = _Verdict.LOST
#: ``target_on`` verdict: the replica missed a write — skip it until
#: anti-entropy catches it up.
STALE = _Verdict.STALE
#: ``target_on`` verdict: the node is down and nothing ever ran there
#: to address — unreachable without spending a message.
DOWN = _Verdict.DOWN


class Ask:
    """Effect: one message leg toward *target* — for the walk, "what
    does *directory* bind *component* to?".

    One ``Ask`` serves a whole step: the walk re-yields it with the
    next ``attempt`` or ``target``.  *at* is where the walk stood when
    the step began; *rest* is the components after *component* (empty
    for a host that parks), which the target may resolve too and
    answer with a trail; ``origin`` is the driver's own note across
    the step's asks.
    """

    __slots__ = ("target", "what", "directory", "component", "at", "rest",
                 "attempt", "origin")

    def __init__(self, target: Any, what: str,
                 directory: Optional[ObjectEntity] = None,
                 component: Optional[str] = None, at: Any = None,
                 rest: Any = ()):
        self.target = target
        self.what = what
        self.directory = directory
        self.component = component
        self.at = at
        self.rest = rest
        self.attempt = 1
        self.origin: Any = None


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
    retries: int = 0          #: re-asks under the retry policy
    failovers: int = 0        #: replicas abandoned for the next one
    stale_steps: int = 0      #: directory steps served from stale cache
    weak: bool = False        #: True if any step was answered degraded
    servers_touched: set[str] = field(default_factory=set)

    @property
    def failed(self) -> bool:
        """True if the walk lost a leg it could not recover — the
        answer is then ``⊥E`` (fail-fast resolutions under a
        crash/partition land here; failover resolutions only when
        every replica was unreachable and no stale serve applied)."""
        return self.failed_hops > 0

    @property
    def coherence(self) -> str:
        """``"weak"`` for degraded (stale-served) answers, else
        ``"coherent"`` — the paper's §3 distinction, operational."""
        return "weak" if self.weak else "coherent"

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


Effects = Generator[Union[Ask, Wait], Any, Any]


def retry_effects(host: Any, cost: ResolutionCost, ask: Ask,
                  breaker: Optional[CircuitBreaker] = None) -> Effects:
    """The bounded retry of an ask that was just lost.

    Re-yields *ask* with the next attempt number until it is answered,
    ``host.retry_policy.max_attempts`` are spent (no policy: one) or
    *breaker* trips, waiting out ``host.retry_policy.backoff(attempt,
    host.rng)`` before each re-ask.  Returns the reply, or
    :data:`LOST`.
    """
    policy = host.retry_policy
    attempts = 1 if policy is None else policy.max_attempts
    obs = host.obs
    while True:
        now = host.now()
        if breaker is not None:
            breaker.record_failure(now)
        if ask.attempt >= attempts or \
                (breaker is not None and not breaker.allow(now)):
            return LOST
        cost.retries += 1
        delay = policy.backoff(ask.attempt, host.rng)
        if obs.enabled:
            obs.metrics.counter("resolver_retries_total").inc()
            if obs.tracer.admit():
                obs.tracer.event(
                    "retry", f"{ask.what}→{ask.target.label}", now,
                    attrs={"attempt": ask.attempt, "backoff": delay,
                           "server": ask.target.label})
        late = yield Wait(delay)
        if late is not None:
            return late
        ask.attempt += 1
        reply = yield ask
        if reply is not LOST:
            return reply


def walk_effects(host: Any, cost: ResolutionCost, context: Context,
                 name_: CompoundName, home: Any, at: Any, what: str,
                 memo: Optional[dict] = None) -> Effects:
    """Resolve one coerced name; mirrors the section-2 recursion of
    :func:`repro.model.resolution.resolve_traced` exactly.

    The walk starts where it stands (*at*; *home* is the client's own
    place) and charges *cost*.  *memo* is a batch-local prefix memo
    (always coherent — nothing external interleaves within one batch)
    layered over the prefix cache.  The answer is not carried home —
    the caller decides when (once per resolution, or once per batch).
    Returns ``(entity, where the walk now stands)``, and ``(⊥E,
    home)`` at the first leg it loses and cannot recover.
    """
    rooted = name_.rooted
    # The root binding is one walk step like any other component.
    comps = [ROOT_NAME, *name_.parts] if rooted else list(name_.parts)
    if not comps:
        return UNDEFINED_ENTITY, at
    last = len(comps) - 1
    obs = host.obs
    tracing = obs.enabled
    tracer = obs.tracer
    cache: Optional[PrefixCache] = host.cache_of(home)
    remembering = cache is not None or memo is not None
    parks = host.parks
    # No policy: the primary alone is a candidate (no failover).
    failover = host.retry_policy is not None

    current: Context = context
    entered: Optional[ObjectEntity] = None
    deps: list = []
    start = 0
    # Once a step is served degraded (or unreachable) the walk's
    # remaining prefixes must not be memoized as coherent.
    tainted = False
    # What a trail still owes the walk (next step last) and who sent it.
    owed: list = []
    owed_by: Any = None

    if remembering:
        hit = _deepest_prefix(cache, context, rooted, comps, host.now(),
                              memo)
        if hit is not None:
            start, entered, hit_deps, source = hit
            if tracing and tracer.admit():
                tracer.event(
                    "cache", "prefix.hit", host.now(),
                    attrs={"consumed": start, "source": source,
                           "machine": host.node_of(home).label,
                           "prefix": "/".join(comps[:start])})
            cost.steps += start
            cost.cached_steps += start
            current = entered.state
            deps = list(hit_deps)
        elif tracing and tracer.admit():
            tracer.event(
                "cache", "prefix.miss", host.now(),
                attrs={"machine": host.node_of(home).label,
                       "prefix": "/".join(comps[:-1])})

    for index in range(start, last + 1):
        component = comps[index]
        entity = None
        # The context's own bindings are read in place; a directory the
        # walk stepped into is read wherever it is served.
        if entered is not None:
            served = None  # who answers; None: nobody could be reached
            if owed:
                # Already asked and answered: the server of the last
                # ask walked on through this step.
                entity, served = owed.pop(), owed_by
                host.charge(served)
            else:
                replicas = host.replicas(entered, component)
                if not failover:
                    replicas = replicas[:1]
                if not replicas:
                    served = at  # unplaced — local state, nothing to reach
                else:
                    # Prefer the replica the walk already stands at:
                    # entering it is free (batch coalescing depends on
                    # this).
                    if len(replicas) > 1:
                        here = host.node_of(at)
                        if replicas[0] is not here and here in replicas:
                            replicas = [here, *(node for node in replicas
                                                if node is not here)]
                    ask = None
                    # Candidates passed over (stale, down, breaker-
                    # skipped or attempt-exhausted) before one answered:
                    # serving from any later replica is a failover.
                    passed_over = 0
                    for node in replicas:
                        candidate = host.target_on(entered, node)
                        if candidate is STALE or candidate is DOWN:
                            passed_over += 1
                            if tracing:
                                _note_skip(obs, host.now(), candidate,
                                           entered, node)
                            continue
                        if candidate is at:
                            host.charge(at)
                            served = at
                            break
                        breaker = host.breaker_for(candidate)
                        if breaker is not None \
                                and not breaker.allow(host.now()):
                            passed_over += 1
                            if tracing:
                                obs.metrics.counter(
                                    "resolver_circuit_open_skips_total"
                                ).inc()
                                if tracer.admit():
                                    tracer.event(
                                        "circuit", "skip", host.now(),
                                        attrs={"server": candidate.label,
                                               "directory":
                                                   entered.label})
                            continue
                        cost.servers_touched.add(candidate.label)
                        if ask is None:
                            ask = Ask(candidate, what, entered, component,
                                      at, () if parks else comps[index + 1:])
                        else:
                            ask.target, ask.attempt = candidate, 1
                        reply = yield ask
                        if reply is LOST:
                            reply = yield from retry_effects(
                                host, cost, ask, breaker)
                            if reply is LOST:
                                passed_over += 1
                                continue
                        if breaker is not None:
                            breaker.record_success(host.now())
                        host.charge(candidate)
                        if passed_over:
                            cost.failovers += 1
                            if tracing:
                                obs.metrics.counter(
                                    "resolver_failovers_total").inc()
                                if tracer.admit():
                                    tracer.event(
                                        "failover", entered.label,
                                        host.now(),
                                        attrs={"directory": entered.label,
                                               "to": candidate.label,
                                               "passed_over":
                                                   passed_over})
                        if reply.__class__ is list:  # a trail
                            owed, owed_by = reply[:0:-1], candidate
                            reply = reply[0]
                        entity, served = reply, candidate
                        break
            if served is None:
                stale = _degraded_step(host, cost, cache, context, rooted,
                                       tuple(comps[:index]), entered)
                if stale is None:
                    # The first unrecovered loss ends the lookup: it
                    # cannot read a directory it could not reach.
                    return UNDEFINED_ENTITY, home
                # Continue in the *cached* (possibly older) directory —
                # the degraded walk must not read through true state it
                # could never have reached.
                entered = stale.directory
                current = entered.state
                tainted = True
                served = home
            if parks:
                at = served
            if served is home:
                cost.local_steps += 1
            else:
                cost.remote_steps += 1
            # (A prefix-cache hit's own step is already remembered.)
            if remembering and not tainted and index > start:
                consumed, consumed_deps = tuple(comps[:index]), tuple(deps)
                if memo is not None:
                    memo[(context.uid, rooted, consumed)] = (entered,
                                                             consumed_deps)
                if cache is not None:
                    cache.remember(context, rooted, consumed, entered,
                                   consumed_deps, host.now())
        if entity is None:
            entity = current(component)
        cost.steps += 1
        if tracing and tracer.admit():
            tracer.event(
                "step", component, host.now(),
                attrs={"index": index, "server": at.label,
                       "directory": (entered.label if entered is not None
                                     else "<context>")})
        if index == last:
            return entity, at
        if not entity.is_defined():
            break
        state = entity.state
        if not isinstance(state, Context):
            break
        if remembering:
            deps.append(binding_dep(entered, component)
                        if entered is not None
                        else context_dep(context, component))
        entered = entity  # type: ignore[assignment]
        current = state
    return UNDEFINED_ENTITY, at


def _note_skip(obs: Any, now: float, verdict: Any,
               directory: ObjectEntity, node: Any) -> None:
    if verdict is STALE:
        obs.metrics.counter("resolver_stale_replica_skips_total").inc()
    if obs.tracer.admit():
        obs.tracer.event(
            "failover",
            "replica.stale-skip" if verdict is STALE
            else "replica.down-skip",
            now, attrs={"directory": directory.label,
                        "replica": node.label})


def _deepest_prefix(cache: Optional[PrefixCache], context: Context,
                    rooted: bool, comps: list[str], now: float,
                    memo: Optional[dict]):
    """The deepest usable memoized prefix of *comps*: the batch memo
    and the home node's prefix cache are both consulted; the deeper
    wins.  Returns ``(consumed, directory, deps, source)`` or None,
    *source* naming the layer that won."""
    best = None
    if memo is not None:
        for length in range(len(comps) - 1, 0, -1):
            hit = memo.get((context.uid, rooted, tuple(comps[:length])))
            if hit is not None:
                best = (length, hit[0], hit[1], "memo")
                break
    if cache is not None:
        found = cache.probe(context, rooted, comps, now)
        if found is not None and (best is None or found[0] > best[0]):
            entry = found[1]
            best = (found[0], entry.directory, entry.deps, "cache")
    return best


def _degraded_step(host: Any, cost: ResolutionCost,
                   cache: Optional[PrefixCache], context: Context,
                   rooted: bool, consumed: tuple[str, ...],
                   directory: ObjectEntity) -> Optional[PrefixEntry]:
    """Every replica of *directory* was unreachable: serve the step
    from what the home node's cache retained
    (:meth:`~repro.nameservice.cache.PrefixCache.serve_degraded`),
    tagging the answer weakly coherent and going on at home, else mark
    the walk failed — it then answers ``⊥E``.

    Returns the stale entry the step was served from, or None.
    """
    obs = host.obs
    now = host.now()
    if cache is not None:
        entry = cache.serve_degraded(context, rooted, consumed, directory,
                                     now)
        if entry is not None:
            cost.stale_steps += 1
            cost.weak = True
            if obs.enabled:
                obs.metrics.counter("resolver_stale_served_total").inc()
                if obs.tracer.admit():
                    obs.tracer.event(
                        "stale", "serve.degraded", now,
                        attrs={"directory": entry.directory.label,
                               "prefix": "/".join(consumed),
                               "machine": cache.machine.label})
            return entry
    cost.failed_hops += 1
    if obs.enabled:
        obs.metrics.counter("resolver_unreachable_total").inc()
        if obs.tracer.admit():
            obs.tracer.event(
                "failover", "exhausted", now,
                attrs={"directory": directory.label,
                       "prefix": "/".join(consumed)})
        if obs.tracer.current is not None:
            obs.tracer.current.fail(
                f"directory {directory.label} unreachable")
    return None

"""Lease-based cache coherence: promises with expiry (extension).

The paper's shared-naming-graph systems (Andrew ``/vice``, DCE cells)
keep client caches coherent with server-driven callbacks; our
``CachePolicy.INVALIDATE`` reproduces that, but a callback protocol
that assumes reliable delivery degrades badly under partitions — one
dropped invalidation leaves a client weakly coherent *forever*.  A
*lease* (Gray & Cheriton's promise-with-expiry, Andrew-style callback
breaking) restores a provable bound: the server promises to call back
for a bounded term; if the callback cannot be delivered, the promise
simply runs out, so a partitioned client's staleness is bounded by

    lease term + one delivery delay.

Three cooperating pieces:

* :class:`LeaseManager` — server side.  Grants per-client, per-
  dependency-key leases over virtual time, remembers which machine
  holds which promise, fans callbacks out on rebind (via
  :func:`callback_fanout`, reusing :class:`~repro.nameservice.retry.
  RetryPolicy` and :class:`~repro.nameservice.retry.CircuitBreaker`
  directly), tracks acks, and *breaks* leases whose callbacks cannot
  be delivered — the broken promise expires on the client by term.
* :class:`LeaseTable` — client side.  Gates cached entries: an entry
  is fresh iff its covering lease is unexpired (replacing blind TTLs
  for leased clients).  In *grace mode* — entered when the client
  cannot renew across a partition — expired grants keep answering,
  but every answer must be tagged weakly coherent by the caller; on
  heal, :meth:`LeaseTable.exit_grace` revalidates epochs before
  entries may be promoted back to fresh.
* :func:`fanout_effects` — the bounded-retry callback delivery loop as
  an effect-yielding generator, with :func:`callback_fanout` its
  simulator-pumping driver (the asyncio driver lives in
  :mod:`repro.transport.leases`).

Everything runs over the simulator's virtual clock and seeded RNG, so
lease schedules are deterministic per seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Generator, NamedTuple,
                    Optional, Union)

from repro.errors import SimulationError
from repro.nameservice.retry import CircuitBreaker, RetryPolicy
from repro.obs.instrument import NO_OBS, Instrumentation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache.py)
    from repro.nameservice.cache import DepKey

__all__ = ["LeaseState", "Lease", "LeaseTable", "LeaseManager",
           "FanoutReport", "Deliver", "Wait", "fanout_effects",
           "callback_fanout"]


class LeaseState(enum.Enum):
    """Lifecycle of one granted lease."""

    ACTIVE = "active"        #: promise holds — server will call back
    RELEASED = "released"    #: client gave it up voluntarily
    BROKEN = "broken"        #: callback undeliverable — left to expire
    EXPIRED = "expired"      #: term ran out

    def __str__(self) -> str:
        return self.value


@dataclass
class Lease:
    """One promise: *dep* stays valid on *machine* until *expires_at*
    unless the server calls back first."""

    dep: "DepKey"
    machine_id: int
    granted_at: float
    expires_at: float
    epoch: int
    state: LeaseState = LeaseState.ACTIVE
    renewals: int = 0
    machine_label: str = ""   #: holder's display label (metrics only)

    def live(self, now: float) -> bool:
        return self.state is LeaseState.ACTIVE and now < self.expires_at


@dataclass
class _Grant:
    """Client-side view of a lease (no server state is shared)."""

    expires_at: float
    epoch: int
    expiry_counted: bool = field(default=False)


class LeaseTable:
    """The client side of the lease protocol, one table per machine.

    Cached entries (:class:`~repro.nameservice.cache.PrefixCache`
    prefixes) are gated through :meth:`fresh` / :meth:`covers_all`: an
    entry is only served as live while every dependency it consumed
    has an unexpired, unrevoked lease — blind TTLs never apply.

    *Grace mode* models disconnected operation: while the client
    cannot renew (a partition), :meth:`enter_grace` lets expired
    grants keep answering — the caller must tag each such answer
    weakly coherent — and :meth:`exit_grace` (on heal) purges every
    grant that expired or predates the current placement epoch, so
    nothing stale is ever silently promoted back to fresh.
    """

    def __init__(self, machine_label: str,
                 obs: Optional[Instrumentation] = None):
        self.machine_label = machine_label
        self._obs = obs if obs is not None else NO_OBS
        self._grants: dict["DepKey", _Grant] = {}
        self.in_grace = False
        self.grants = 0
        self.renewals = 0
        self.revocations = 0
        self.expirations = 0
        self.grace_hits = 0
        self.revalidations = 0

    # -- grant / renew ------------------------------------------------------

    def grant(self, dep: "DepKey", now: float, term: float,
              epoch: int) -> None:
        """Install (or renew) the client-side view of a lease."""
        existing = self._grants.get(dep)
        if existing is not None and now < existing.expires_at:
            self.renewals += 1
            if self._obs.enabled:
                self._obs.metrics.counter(
                    "lease_renewals_total",
                    {"machine": self.machine_label, "side": "client"}
                ).inc()
        else:
            self.grants += 1
            if self._obs.enabled:
                self._obs.metrics.counter(
                    "lease_grants_total",
                    {"machine": self.machine_label, "side": "client"}
                ).inc()
        self._grants[dep] = _Grant(expires_at=now + term, epoch=epoch)

    # -- freshness gate -----------------------------------------------------

    def fresh(self, dep: "DepKey", now: float) -> bool:
        """Is *dep* covered by an unexpired lease right now?

        Strict: an expired grant answers False even in grace mode —
        grace answers flow through the degraded stale-read path, which
        tags them weakly coherent; they are never served as fresh.
        Expiry is counted once per grant, mirroring the prefix cache's
        "expires only once" discipline
        (``src/repro/nameservice/cache.py``).
        """
        grant_ = self._grants.get(dep)
        if grant_ is None:
            return False
        if now < grant_.expires_at:
            return True
        if not grant_.expiry_counted:
            grant_.expiry_counted = True
            self.expirations += 1
            if self._obs.enabled:
                self._obs.metrics.counter(
                    "lease_expirations_total",
                    {"machine": self.machine_label, "side": "client"}
                ).inc()
                if self._obs.tracer.admit():
                    self._obs.tracer.event(
                        "lease", "lease.expire", now,
                        attrs={"machine": self.machine_label,
                               "dep": repr(dep)})
        return False

    def covers_all(self, deps: tuple["DepKey", ...], now: float) -> bool:
        """Does every dependency hold an unexpired lease?  (``all`` is
        not short-circuited, so each expired grant is still counted.)"""
        results = [self.fresh(dep, now) for dep in deps]
        return all(results)

    def served_in_grace(self, now: float) -> None:
        """Account one degraded answer served from an expired lease."""
        self.grace_hits += 1
        if self._obs.enabled:
            self._obs.metrics.counter(
                "lease_grace_served_total",
                {"machine": self.machine_label}).inc()
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "lease", "lease.grace", now,
                    attrs={"machine": self.machine_label})

    # -- revocation (callback delivered) ------------------------------------

    def revoke(self, dep: "DepKey", now: float) -> bool:
        """A server callback arrived: drop the grant immediately.

        Returns True if a grant was actually held (the ack should say
        so).  Revoked grants never answer again, even in grace mode —
        a delivered callback is an observed write, not staleness.
        """
        if self._grants.pop(dep, None) is None:
            return False
        self.revocations += 1
        if self._obs.enabled:
            self._obs.metrics.counter(
                "lease_revocations_total",
                {"machine": self.machine_label}).inc()
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "lease", "lease.revoke", now,
                    attrs={"machine": self.machine_label,
                           "dep": repr(dep)})
        return True

    # -- grace mode ---------------------------------------------------------

    def enter_grace(self, now: float) -> None:
        """Renewals are unreachable: serve expired leases, tagged weak."""
        if self.in_grace:
            return
        self.in_grace = True
        if self._obs.enabled and self._obs.tracer.admit():
            self._obs.tracer.event(
                "lease", "lease.grace_enter", now,
                attrs={"machine": self.machine_label})

    def exit_grace(self, now: float, epoch: int) -> int:
        """The partition healed: revalidate before promoting to fresh.

        Every grant that expired during grace, or that predates the
        current placement *epoch*, is purged — the next resolution
        re-walks and re-leases it.  Returns the number purged.
        """
        if not self.in_grace:
            return 0
        self.in_grace = False
        purged = [dep for dep, grant_ in self._grants.items()
                  if now >= grant_.expires_at or grant_.epoch != epoch]
        for dep in purged:
            del self._grants[dep]
        self.revalidations += len(purged)
        if self._obs.enabled:
            if purged:
                self._obs.metrics.counter(
                    "lease_revalidations_total",
                    {"machine": self.machine_label}).inc(len(purged))
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "lease", "lease.grace_exit", now,
                    attrs={"machine": self.machine_label,
                           "purged": len(purged)})
        return len(purged)

    def __len__(self) -> int:
        return len(self._grants)

    def stats(self) -> dict[str, int]:
        return {"grants": self.grants, "renewals": self.renewals,
                "revocations": self.revocations,
                "expirations": self.expirations,
                "grace_hits": self.grace_hits,
                "revalidations": self.revalidations,
                "held": len(self._grants),
                "in_grace": int(self.in_grace)}


@dataclass
class FanoutReport:
    """What one callback fan-out accomplished."""

    notified: int = 0   #: callbacks delivered (and revoked client-side)
    broken: int = 0     #: leases broken — callback undeliverable
    attempts: int = 0   #: delivery attempts including retries
    skipped: int = 0    #: holders skipped by an open circuit breaker


class Deliver(NamedTuple):
    """Fan-out effect: make delivery *attempt* of *lease*'s callback;
    the driver sends back whether the callback (and its ack) made it."""

    lease: Lease
    attempt: int


class Wait(NamedTuple):
    """Fan-out effect: let *delay* of backoff pass before resuming."""

    delay: float


def fanout_effects(holders: list[Lease], *,
                   now: Callable[[], float],
                   rng,
                   retry_policy: Optional[RetryPolicy],
                   breaker_for: Callable[[Lease],
                                         Optional[CircuitBreaker]],
                   on_broken: Callable[[Lease], None],
                   ) -> Generator[Union[Deliver, Wait], Optional[bool],
                                  FanoutReport]:
    """The callback fan-out as a sans-IO state machine.

    The one bounded-retry delivery loop: for each holder it yields
    :class:`Deliver` up to ``retry_policy.max_attempts`` times (the
    driver answers with the delivery outcome) and :class:`Wait` with
    ``retry_policy.backoff(attempt, rng)`` between failures.  A holder
    whose circuit breaker (from *breaker_for*) is open is skipped
    without an attempt — its lease is broken outright, exactly as an
    exhausted retry budget would.  Breaker bookkeeping uses the same
    ``record_success`` / ``record_failure`` hooks as the resolver's
    hop path.  *on_broken* runs for every lease left undeliverable;
    the generator returns the :class:`FanoutReport`.
    """
    report = FanoutReport()
    attempts_per = 1 if retry_policy is None else retry_policy.max_attempts
    for lease in holders:
        breaker = breaker_for(lease)
        if breaker is not None and not breaker.allow(now()):
            report.skipped += 1
            report.broken += 1
            on_broken(lease)
            continue
        delivered = False
        for attempt in range(1, attempts_per + 1):
            report.attempts += 1
            if (yield Deliver(lease, attempt)):
                delivered = True
                if breaker is not None:
                    breaker.record_success(now())
                break
            if breaker is not None:
                breaker.record_failure(now())
            if attempt < attempts_per and retry_policy is not None:
                yield Wait(retry_policy.backoff(attempt, rng))
            if breaker is not None and not breaker.allow(now()):
                break  # tripped mid-holder: stop burning attempts
        if delivered:
            report.notified += 1
        else:
            report.broken += 1
            on_broken(lease)
    return report


def callback_fanout(holders: list[Lease], *,
                    now: Callable[[], float],
                    rng,
                    deliver: Callable[[Lease, int], bool],
                    wait: Callable[[float], None],
                    retry_policy: Optional[RetryPolicy],
                    breaker_for: Callable[[Lease],
                                          Optional[CircuitBreaker]],
                    on_broken: Callable[[Lease], None]) -> FanoutReport:
    """Drive :func:`fanout_effects` by blocking on each effect.

    ``deliver(lease, attempt)`` returns True when the callback (and
    its ack) made it; *wait* spends the backoff (virtual time on the
    simulator).
    """
    steps = fanout_effects(holders, now=now, rng=rng,
                           retry_policy=retry_policy,
                           breaker_for=breaker_for, on_broken=on_broken)
    outcome = None
    try:
        while True:
            effect = steps.send(outcome)
            outcome = (deliver(effect.lease, effect.attempt)
                       if isinstance(effect, Deliver)
                       else wait(effect.delay))
    except StopIteration as done:
        return done.value


class LeaseManager:
    """The server side of the lease protocol.

    One manager serves a whole deployment (the resolver owns it);
    leases are keyed ``(dep, holder machine id)`` and indexed by *dep*
    in insertion order, so callback fan-out on rebind visits holders
    deterministically run-to-run.
    """

    def __init__(self, term: float,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 obs: Optional[Instrumentation] = None):
        if term <= 0:
            raise SimulationError("lease term must be positive")
        self.term = term
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._obs = obs if obs is not None else NO_OBS
        self._leases: dict[tuple["DepKey", int], Lease] = {}
        # dep -> {machine_id: Lease}, insertion-ordered for determinism.
        self._holders: dict["DepKey", dict[int, Lease]] = {}
        # Per-client-machine callback breakers, shared across deps.
        self._breakers: dict[int, CircuitBreaker] = {}
        self.grants = 0
        self.renewals = 0
        self.breaks = 0
        self.expirations = 0
        self.acks = 0

    # -- breakers -----------------------------------------------------------

    def breaker_for_machine(self, machine_id: int,
                            label: str = "") -> CircuitBreaker:
        breaker = self._breakers.get(machine_id)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                label=label or f"lease-cb:{machine_id}", obs=self._obs)
            self._breakers[machine_id] = breaker
        return breaker

    # -- grant / renew ------------------------------------------------------

    def grant(self, machine_id: int, dep: "DepKey", now: float,
              epoch: int, machine_label: str = "") -> Lease:
        """Grant (or renew) *machine*'s lease on *dep*."""
        key = (dep, machine_id)
        lease = self._leases.get(key)
        if lease is not None and lease.live(now):
            lease.expires_at = now + self.term
            lease.epoch = epoch
            lease.renewals += 1
            self.renewals += 1
            if self._obs.enabled:
                self._obs.metrics.counter(
                    "lease_renewals_total",
                    {"machine": machine_label or str(machine_id),
                     "side": "server"}).inc()
                if self._obs.tracer.admit():
                    self._obs.tracer.event(
                        "lease", "lease.renew", now,
                        attrs={"machine": machine_label,
                               "dep": repr(dep)})
            return lease
        lease = Lease(dep=dep, machine_id=machine_id, granted_at=now,
                      expires_at=now + self.term, epoch=epoch,
                      machine_label=machine_label or str(machine_id))
        self._leases[key] = lease
        self._holders.setdefault(dep, {})[machine_id] = lease
        self.grants += 1
        if self._obs.enabled:
            self._obs.metrics.counter(
                "lease_grants_total",
                {"machine": machine_label or str(machine_id),
                 "side": "server"}).inc()
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "lease", "lease.grant", now,
                    attrs={"machine": machine_label, "dep": repr(dep),
                           "expires_at": lease.expires_at})
        return lease

    # -- queries ------------------------------------------------------------

    def holders_of(self, dep: "DepKey", now: float) -> list[Lease]:
        """Active leases on *dep*, pruning any that have expired."""
        index = self._holders.get(dep)
        if not index:
            return []
        live, dead = [], []
        for machine_id, lease in index.items():
            if lease.live(now):
                live.append(lease)
            else:
                dead.append(machine_id)
        for machine_id in dead:
            lease = index.pop(machine_id)
            self._leases.pop((dep, machine_id), None)
            if lease.state is LeaseState.ACTIVE:
                lease.state = LeaseState.EXPIRED
                self.expirations += 1
                if self._obs.enabled:
                    self._obs.metrics.counter(
                        "lease_expirations_total",
                        {"machine": lease.machine_label,
                         "side": "server"}).inc()
        if not index:
            self._holders.pop(dep, None)
        return live

    # -- lifecycle ----------------------------------------------------------

    def record_ack(self, machine_id: int, dep: "DepKey",
                   now: float) -> None:
        """A callback ack arrived: the holder dropped its copy."""
        self.acks += 1
        lease = self._leases.get((dep, machine_id))
        label = lease.machine_label if lease else str(machine_id)
        self._forget(dep, machine_id, LeaseState.RELEASED)
        if self._obs.enabled:
            self._obs.metrics.counter(
                "lease_callback_acks_total",
                {"machine": label}).inc()
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "lease", "lease.ack", now,
                    attrs={"machine": label, "dep": repr(dep)})

    def break_lease(self, lease: Lease, now: float) -> None:
        """The callback could not be delivered: stop waiting, let the
        promise run out on the client by term (the escalation path)."""
        self.breaks += 1
        self._forget(lease.dep, lease.machine_id, LeaseState.BROKEN)
        if self._obs.enabled:
            self._obs.metrics.counter(
                "lease_breaks_total",
                {"machine": lease.machine_label}).inc()
            if self._obs.tracer.admit():
                self._obs.tracer.event(
                    "lease", "lease.break", now,
                    attrs={"machine": lease.machine_label,
                           "dep": repr(lease.dep),
                           "expires_at": lease.expires_at})

    def _forget(self, dep: "DepKey", machine_id: int,
                state: LeaseState) -> None:
        lease = self._leases.pop((dep, machine_id), None)
        if lease is not None:
            lease.state = state
        index = self._holders.get(dep)
        if index is not None:
            index.pop(machine_id, None)
            if not index:
                self._holders.pop(dep, None)

    def __len__(self) -> int:
        return len(self._leases)

    def stats(self) -> dict[str, int]:
        return {"grants": self.grants, "renewals": self.renewals,
                "breaks": self.breaks,
                "expirations": self.expirations, "acks": self.acks,
                "held": len(self._leases)}

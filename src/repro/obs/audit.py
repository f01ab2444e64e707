"""Ground-truth coherence auditing (extension).

Every policy in the coherence spectrum *claims* something about the
answers it serves: ``NONE`` and ``INVALIDATE`` claim freshness (up to
callback delivery), ``TTL`` claims staleness bounded by its TTL,
``LEASE`` claims staleness bounded by the lease term, and degraded
reads declare themselves weakly coherent (``cost.weak``).  Until now
the repo only ever *reported* those claims.  The
:class:`CoherenceAuditor` measures them: it subscribes to the
authoritative binding history — every bind/rebind/unbind flowing
through the resolver's and caching service's write discipline, with
its virtual timestamp and placement epoch — and tags every observed
resolution with

* **measured staleness**: the virtual-time lag between the observation
  and the last instant at which the returned answer was the
  authoritative one (``0.0`` for a fresh answer), computed by
  re-resolving the name through the paper's §2 recursion
  (:func:`~repro.model.resolution.resolve_via`) with every audited
  binding read from the recorded history ("resolve as of *t*"); and
* a **verdict** against the policy's :class:`CoherenceContract`:
  ``fresh``, ``stale_declared`` (the service tagged the answer weakly
  coherent — staleness was admitted), ``stale_allowed`` (claimed
  coherent, stale, but within the policy's bound, e.g. a LEASE answer
  inside ``term + delivery slack``), or ``violation`` (claimed
  coherent and stale beyond the bound — for ``INVALIDATE`` that means
  stale past the callback-delivery slack, the signature of a *lost*
  invalidation).

Verdicts feed per-policy/per-shard staleness histograms and the
:mod:`repro.obs.slo` burn counters through the ordinary metrics
registry (so the existing Prometheus/JSON exporters carry them), and
every violation or SLO burn triggers the :class:`FlightRecorder`,
which snapshots the window of kernel trace entries and recent spans —
including spans the :class:`~repro.obs.trace.SpanSampler` sampled out
of the main store — around the event into a replayable JSON artifact.

The auditor consults only the *pure* naming model
(:mod:`repro.model`) for its ground truth; it never sends messages,
never draws randomness and never touches shard load counters, so an
audited run is event-for-event identical to an unaudited one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Optional

from repro.model.context import Context
from repro.model.entities import Entity
from repro.model.names import CompoundName, NameLike
from repro.model.resolution import resolve_via

__all__ = [
    "BindingWrite",
    "CoherenceAuditor",
    "CoherenceContract",
    "FlightRecorder",
    "VERDICTS",
]

#: Verdict vocabulary, in decreasing order of health.
VERDICTS = ("fresh", "stale_declared", "stale_allowed", "violation",
            "failed")

#: Staleness histogram buckets in virtual-time units — resolutions lag
#: by lease terms / TTLs (tens of units), not by the default
#: millisecond-flavoured scale.
STALENESS_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                     200.0, 500.0, 1000.0)

#: Per-violation detail records a :class:`CoherenceAuditor` retains.
MAX_VIOLATIONS = 256

#: Sentinel: "this binding has no audited history — trust the live σ".
_NO_HISTORY = object()

_write_time = attrgetter("time")


class BindingWrite:
    """One committed write through the rebind discipline."""

    __slots__ = ("directory_uid", "directory_label", "component",
                 "old", "new", "time", "epoch", "seq")

    def __init__(self, directory_uid: int, directory_label: str,
                 component: str, old: Entity, new: Entity,
                 time: float, epoch: int, seq: int):
        self.directory_uid = directory_uid
        self.directory_label = directory_label
        self.component = component
        self.old = old
        self.new = new
        self.time = time
        self.epoch = epoch
        self.seq = seq

    def to_dict(self) -> dict:
        return {"seq": self.seq, "time": self.time,
                "epoch": self.epoch,
                "directory": self.directory_label,
                "component": self.component,
                "old": self.old.label if self.old.is_defined() else None,
                "new": self.new.label if self.new.is_defined() else None}

    def __repr__(self) -> str:
        return (f"<write #{self.seq} t={self.time:g} "
                f"{self.directory_label}/{self.component}: "
                f"{self.old.label}→{self.new.label} e{self.epoch}>")


class CoherenceContract:
    """What each policy promises about claimed-coherent answers.

    The bound is the maximum *measured* staleness a claimed-coherent
    (not weakly-tagged) answer may carry without being a violation:

    ============ ====================================================
    policy       allowed staleness of a claimed-coherent answer
    ============ ====================================================
    none         ``slack`` (no caching — nothing to be stale *by*)
    invalidate   ``slack`` (callbacks take delivery time; beyond it,
                 the callback was lost — §"lost INVALIDATE")
    ttl          ``ttl + slack``
    lease        ``term + slack`` (Gray & Cheriton: a server must
                 wait out the term before acting; delivery rides on
                 top)
    ============ ====================================================

    *slack* is the deployment's callback/message delivery allowance —
    the same quantity A9 calls its delivery slack; ``ttl`` and
    ``term`` are the audited read's own (the resolver passes them).
    """

    __slots__ = ("slack",)

    def __init__(self, slack: float = 6.0):
        self.slack = slack

    def bound(self, policy: str, ttl: float = 0.0,
              lease_term: float = 0.0) -> float:
        """Allowed claimed-coherent staleness under *policy*."""
        kind = policy.lower()
        if "ttl" in kind:
            return ttl + self.slack
        if "lease" in kind:
            return lease_term + self.slack
        return self.slack

    def __repr__(self) -> str:
        return f"<CoherenceContract slack={self.slack:g}>"


class FlightRecorder:
    """A bounded ring of violation-window dumps.

    On :meth:`capture` the recorder snapshots everything observable
    about the last *window* units of virtual time: the kernel
    :class:`~repro.sim.trace.TraceLog` entries (copied to JSON-safe
    dicts — safe against later ring-buffer eviction) and
    the tracer's recent spans (drawn from the sampling ring the
    recorder starts when it is wired to the tracer, so a sampled-out
    trace still shows up in its violation window).  Dumps are bounded
    by :attr:`max_dumps`; older ones are discarded and counted in
    :attr:`dropped`.
    """

    #: Dumps kept; older ones are dropped.
    max_dumps = 64

    def __init__(self, trace_log: Any = None, tracer: Any = None,
                 window: float = 25.0):
        self.trace_log = trace_log
        self.tracer = None
        self.window = window
        self.dumps: deque[dict] = deque(maxlen=self.max_dumps)
        self.captured = 0
        self.dropped = 0
        self.wire(tracer=tracer)

    def wire(self, trace_log: Any = None, tracer: Any = None) -> None:
        """Late-attach the sources (the simulator usually exists only
        after the instrumentation carrying this recorder).  A tracer
        keeps its recent ring from here on: the recorder is its
        reader."""
        if trace_log is not None:
            self.trace_log = trace_log
        if tracer is not None:
            self.tracer = tracer
            tracer.keep_recent()

    def capture(self, *, kind: str, time: float,
                detail: Optional[dict] = None) -> dict:
        """Dump the window ``[time - window, time]`` around an event.

        Returns the dump dict (also retained in :attr:`dumps`).
        """
        from repro.obs.export import span_to_dict

        start = time - self.window
        kernel_trace: list[dict] = []
        if self.trace_log is not None:
            kernel_trace = self.trace_log.window(start, time)
        spans: list[dict] = []
        if self.tracer is not None:
            spans = [span_to_dict(span)
                     for span in self.tracer.recent_window(start, time)]
        dump = {
            "seq": self.captured,
            "kind": kind,
            "time": time,
            "window": [start, time],
            "detail": dict(detail) if detail else {},
            "kernel_trace": kernel_trace,
            "spans": spans,
        }
        if len(self.dumps) == self.dumps.maxlen:
            self.dropped += 1
        self.dumps.append(dump)
        self.captured += 1
        return dump

    def to_dict(self) -> dict:
        """The full recorder state as a replayable JSON-safe dict."""
        return {"window": self.window,
                "captured": self.captured,
                "dropped": self.dropped,
                "dumps": list(self.dumps)}

    def dump_json(self, path: str) -> None:
        """Write :meth:`to_dict` to *path* as indented JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def __len__(self) -> int:
        return len(self.dumps)

    def __repr__(self) -> str:
        return (f"<FlightRecorder {self.captured} captured "
                f"({self.dropped} dropped) window={self.window:g}>")


class CoherenceAuditor:
    """Measures staleness against the authoritative binding history.

    Wire one into an :class:`~repro.obs.instrument.Instrumentation`
    (``Instrumentation(auditor=...)``); the resolver and caching
    service feed it writes (:meth:`record_write`) and reads
    (:meth:`observe_resolution` / :meth:`observe_lookup`).  The
    instrumentation may be *disabled*: the auditor then keeps its
    pure-python tallies (``summary()`` still works) without emitting
    any metric — that is how A9 audits its timed runs at near-zero
    overhead.

    Args:
        contract: Policy bounds; defaults match A9's deployment
            (slack 6.0).
        slo: Optional :class:`~repro.obs.slo.SLOTracker` whose burns
            also trip the recorder.
        recorder: Optional :class:`FlightRecorder` capturing windows
            around violations and SLO burns.

    Per-violation detail records are kept for the last
    :data:`MAX_VIOLATIONS` (counts are never bounded).
    """

    def __init__(self, contract: Optional[CoherenceContract] = None,
                 slo: Any = None,
                 recorder: Optional[FlightRecorder] = None):
        self.contract = contract or CoherenceContract()
        self.slo = slo
        self.recorder = recorder
        self._metrics = None        # set by bind_obs when obs is live
        self._writes: dict[tuple[int, str], list[BindingWrite]] = {}
        self._write_times: list[float] = []
        self.writes = 0
        self.observed = 0
        self.by_verdict: dict[str, int] = {v: 0 for v in VERDICTS}
        self.max_staleness = 0.0
        self.max_claimed_staleness = 0.0   # staleness of non-weak reads
        self.violations: deque[dict] = deque(maxlen=MAX_VIOLATIONS)
        self.slo_burns = 0

    # -- wiring -------------------------------------------------------------

    def bind_obs(self, obs: Any) -> None:
        """Adopt *obs*'s metrics registry (enabled instrumentation
        only) and offer its tracer to the recorder.  Called by
        ``Instrumentation.__init__``; idempotent."""
        if getattr(obs, "enabled", False):
            metrics = self._metrics = obs.metrics
            self._m_staleness = metrics.histogram_family(
                "audit_staleness", "policy", "shard",
                buckets=STALENESS_BUCKETS)
            self._m_resolutions = metrics.counter_family(
                "audit_resolutions_total", "policy", "verdict")
            self._m_violations = metrics.counter_family(
                "audit_violations_total", "policy", "shard")
            if self.recorder is not None and self.recorder.tracer is None:
                self.recorder.wire(tracer=obs.tracer)

    # -- the write side -----------------------------------------------------

    def record_write(self, directory: Entity, component: str,
                     old: Entity, new: Entity, time: float,
                     epoch: int) -> BindingWrite:
        """Record one committed bind/rebind/unbind of
        ``directory/component`` at virtual *time* under placement
        *epoch* (``old``/``new`` may be ``⊥E`` for bind/unbind)."""
        write = BindingWrite(directory.uid, directory.label, component,
                             old, new, time, epoch, self.writes)
        self._writes.setdefault(
            (directory.uid, component), []).append(write)
        times = self._write_times
        if not times or time != times[-1]:
            times.append(time)
        self.writes += 1
        if self._metrics is not None:
            self._metrics.counter("audit_writes_total").inc()
        return write

    # -- ground truth -------------------------------------------------------

    @staticmethod
    def _value_in(writes: list[BindingWrite], at: float,
                  strict: bool) -> Entity:
        """The value one binding's (nonempty, commit-ordered) write
        list gives it at *at*: the newest write at or before *at*
        (``strict``: before), else the first write's recorded old
        value — the pre-history binding."""
        count = (bisect_left if strict else bisect_right)(
            writes, at, key=_write_time)
        return writes[count - 1].new if count else writes[0].old

    def _value_at(self, directory_uid: Optional[int], component: str,
                  at: float, strict: bool) -> Any:
        """The audited value of ``directory/component`` at *at*, or
        :data:`_NO_HISTORY` when no write discipline ever touched it
        (→ the live σ value is authoritative for all time)."""
        writes = self._writes.get((directory_uid, component))
        if not writes:
            return _NO_HISTORY
        return self._value_in(writes, at, strict)

    def _as_of(self, context: Context, name_: CompoundName, at: float,
               strict: bool) -> tuple[Entity, Optional[Entity], bool]:
        """:func:`~repro.model.resolution.resolve_via` as of *at*:
        each audited binding a directory holds reads its value then
        (*context*'s own are process state, outside the write
        discipline).  Returns ``(entity, holder, live)``; *live* says
        every read matched live σ, so *holder* is the live parent."""
        history = self._writes
        if not history:
            return *resolve_via(context, name_)[:2], True
        live = True

        def read(holder: Optional[Entity], current: Context,
                 component: str) -> Entity:
            nonlocal live
            entity = current(component)
            if holder is not None:
                writes = history.get((holder.uid, component))
                if writes:
                    then = self._value_in(writes, at, strict)
                    if then is not entity:
                        live = False
                        return then
            return entity

        entity, holder, _stuck = resolve_via(context, name_, read)
        return entity, holder, live

    def resolve_as_of(self, context: Context, name_: NameLike,
                      at: float, *, strict: bool = False) -> Entity:
        """Resolve *name_* in *context* as the namespace stood at
        virtual time *at* — the §2 recursion with every audited
        binding replaced by its historical value (``strict`` excludes
        writes committed exactly at *at*).  Bindings outside the write
        discipline never change, so their live value stands in for
        all of history."""
        return self._as_of(context, CompoundName.coerce(name_), at,
                           strict)[0]

    def measure(self, context: Context, name_: NameLike,
                entity: Entity, now: float) -> float:
        """Measured staleness of answering *entity* for *name_* at
        *now*: the lag behind the newest committed binding the answer
        fails to reflect — ``now - sup{t ≤ now :
        resolve_as_of(t) = entity}``, and ``0.0`` for a fresh answer.
        An answer that was *never* authoritative (a phantom) measures
        from the oldest committed write — the conservative bound."""
        return self._measure(context, CompoundName.coerce(name_),
                             entity, now)[0]

    def _measure(self, context: Context, name_: CompoundName,
                 entity: Entity, now: float,
                 ) -> tuple[float, Optional[Entity], bool]:
        """:meth:`measure` plus the ``(holder, live)`` of the walk at
        *now* (see :meth:`_as_of`)."""
        truth, holder, live = self._as_of(context, name_, now, False)
        staleness = 0.0
        if not self._same(truth, entity):
            times = self._write_times
            count = bisect_right(times, now)
            if count:
                staleness = now - times[0]
            for index in range(count - 1, -1, -1):
                if self._same(self._as_of(
                        context, name_, times[index], True)[0], entity):
                    staleness = now - times[index]
                    break
        return staleness, holder, live

    @staticmethod
    def _same(a: Entity, b: Entity) -> bool:
        defined_a, defined_b = a.is_defined(), b.is_defined()
        if not defined_a or not defined_b:
            return defined_a == defined_b
        return a.uid == b.uid

    # -- the read side ------------------------------------------------------

    def observe_resolution(self, context: Context, name_: NameLike,
                           entity: Entity, *, now: float,
                           policy: str, weak: bool = False,
                           failed: bool = False,
                           latency: float = 0.0,
                           ttl: float = 0.0,
                           lease_term: float = 0.0,
                           placement: Any = None,
                           directory: Any = None,
                           component: Optional[str] = None) -> str:
        """Audit one finished resolution; returns the verdict.

        *placement*/*directory*/*component* (when supplied by the
        resolver) label the staleness sample with the owning shard —
        derived through the shard map's pure routing function, never
        the load-counting lookup paths, so auditing cannot perturb
        split decisions.
        """
        if failed:
            return self._publish("failed", 0.0, policy, now, latency,
                                 weak, lambda: str(name_))
        name_ = CompoundName.coerce(name_)
        staleness, holder, live = self._measure(context, name_, entity,
                                                now)
        if directory is None and placement is not None and name_.parts:
            # A binding changed behind the write discipline's back:
            # label by where the live tree keeps the final binding.
            directory = holder if live else resolve_via(context, name_)[1]
            component = name_.parts[-1]
        verdict = self._judge(staleness, weak, policy, ttl, lease_term)
        return self._publish(verdict, staleness, policy, now, latency,
                             weak, name_.__str__, placement, directory,
                             component)

    def observe_lookup(self, directory: Entity, component: str,
                       entity: Entity, *, now: float, policy: str,
                       placement: Any = None) -> str:
        """Audit one binding-level read (a step served by a
        :class:`~repro.nameservice.protocol.NameLookupServer`);
        returns the verdict."""
        value = self._value_at(directory.uid, component, now,
                               strict=False)
        staleness = 0.0
        if value is not _NO_HISTORY and not self._same(value, entity):
            writes = self._writes[(directory.uid, component)]
            staleness = None
            for write in reversed(writes):
                if write.time <= now and self._same(write.old, entity):
                    staleness = now - write.time
                    break
            if staleness is None:
                # Phantom value: measure from the oldest commit.
                staleness = now - writes[0].time
        verdict = self._judge(staleness, False, policy)
        return self._publish(verdict, staleness, policy, now, 0.0, False,
                             lambda: f"{directory.label}/{component}",
                             placement, directory, component)

    # -- verdicts and accounting --------------------------------------------

    def _judge(self, staleness: float, weak: bool, policy: str,
               ttl: float = 0.0, lease_term: float = 0.0) -> str:
        if staleness <= 0.0:
            return "fresh"
        if weak:
            return "stale_declared"
        if staleness <= self.contract.bound(policy, ttl, lease_term):
            return "stale_allowed"
        return "violation"

    def _shard_label(self, placement: Any, directory: Any,
                     component: Optional[str]) -> str:
        if placement is None or directory is None or component is None:
            return "-"
        # Pure routing read (DirectoryPlacement.shard_of_binding):
        # never the load-counting lookup, so auditing cannot perturb
        # the split policy.
        shard = placement.shard_of_binding(directory, component)
        if shard is None:
            return "-"
        return f"{shard.machine.label}@0x{shard.lo:08x}"

    def _publish(self, verdict: str, staleness: float, policy: str,
                 now: float, latency: float, weak: bool,
                 describe: Callable[[], str], placement: Any = None,
                 directory: Any = None,
                 component: Optional[str] = None) -> str:
        """Account one verdict.  The read's name (*describe*) and, when
        no metric series needs it, the owning shard's label are only
        rendered for what gets reported: a violation or an SLO burn."""
        self.observed += 1
        self.by_verdict[verdict] = self.by_verdict.get(verdict, 0) + 1
        if staleness > self.max_staleness:
            self.max_staleness = staleness
        if not weak and staleness > self.max_claimed_staleness:
            self.max_claimed_staleness = staleness
        violation = verdict == "violation"
        if self._metrics is not None or violation:
            shard = self._shard_label(placement, directory, component)
        if self._metrics is not None:
            self._m_staleness.labels(policy, shard).observe(staleness)
            self._m_resolutions.labels(policy, verdict).inc()
            if violation:
                self._m_violations.labels(policy, shard).inc()
        detail = None
        if violation:
            detail = {"name": describe(), "policy": policy,
                      "shard": shard, "time": now,
                      "staleness": staleness, "verdict": verdict}
            self.violations.append(detail)
        burned: list[str] = []
        if self.slo is not None and verdict != "failed":
            burned = self.slo.observe(staleness=staleness,
                                      latency=latency,
                                      violation=violation,
                                      policy=policy)
            self.slo_burns += len(burned)
        if self.recorder is not None:
            if detail is not None:
                self.recorder.capture(kind="violation", time=now,
                                      detail=detail)
            for objective in burned:
                self.recorder.capture(
                    kind="slo_burn", time=now,
                    detail={"slo": objective, "name": describe(),
                            "policy": policy, "staleness": staleness,
                            "latency": latency})
        return verdict

    # -- reading ------------------------------------------------------------

    @property
    def violation_count(self) -> int:
        return self.by_verdict.get("violation", 0)

    def summary(self) -> dict:
        """A JSON-safe digest of everything measured — what
        experiments embed as ``ExperimentResult.audit``."""
        stale = (self.by_verdict.get("stale_declared", 0)
                 + self.by_verdict.get("stale_allowed", 0)
                 + self.by_verdict.get("violation", 0))
        summary = {
            "observed": self.observed,
            "writes": self.writes,
            "stale": stale,
            "violations": self.violation_count,
            "slo_burns": self.slo_burns,
            "max_staleness": round(self.max_staleness, 6),
            "max_claimed_staleness": round(self.max_claimed_staleness,
                                           6),
            "by_verdict": {k: v for k, v in sorted(
                self.by_verdict.items()) if v},
        }
        if self.slo is not None:
            summary["slo"] = self.slo.status()
        if self.recorder is not None:
            summary["flight_dumps"] = self.recorder.captured
        return summary

    def __repr__(self) -> str:
        return (f"<CoherenceAuditor observed={self.observed} "
                f"writes={self.writes} "
                f"violations={self.violation_count}>")

"""Typed spans over virtual time: the tracing half of `repro.obs`.

A :class:`Span` is one timed, attributed unit of work — a resolution,
one message hop, a cache probe — linked into a tree by
``parent_id`` and grouped into a *trace* by ``trace_id``.  The
:class:`Tracer` mints ids (deterministically, from counters, so runs
with the same seed produce identical traces), keeps an activation
stack so nested work parents itself automatically, and stores every
span for export (`repro.obs.export`) and inspection
(`repro.obs.inspect`).

Span taxonomy (see docs/observability.md for the catalog):

========== ==========================================================
kind       meaning
========== ==========================================================
batch      one :meth:`DistributedResolver.resolve_many` call
resolution one compound name's walk (root span in single resolves)
hop        one message leg (named referral/query/forward/answer/…)
step       one component consumed at a server (instant)
cache      a prefix-cache probe outcome (instant: ``prefix.hit``,
           ``prefix.miss``, ``prefix.expired``)
rebind     one write through the resolver's write discipline
deliver    kernel delivery of a trace-carrying message (instant)
drop       kernel drop of a trace-carrying message (instant)
lookup     one async-protocol lookup (`repro.nameservice.protocol`)
failure    an injected failure/reconfiguration event (instant)
========== ==========================================================
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Span", "SpanSampler", "Tracer"]

#: Sentinel distinguishing "parent omitted → use the active span" from
#: an explicit ``parent=None`` (→ start a new root/trace).
_CURRENT = object()


class SpanSampler:
    """Deterministic, seed-driven head sampling of whole traces.

    The decision is a pure function of ``(seed, trace sequence
    number)`` — no RNG state, so two runs with the same seed sample
    the *same* traces regardless of what else executed, and the
    kernel's virtual-time event order never shifts.  A sampled-out
    trace still spends its ids and holds its place on the activation
    stack (so nesting and determinism are untouched); only storage in
    the tracer's main span store is skipped.  Once a flight recorder
    reads the tracer (:meth:`Tracer.keep_recent`), every span — kept
    or not — also lands in a bounded ``recent`` ring sized by
    :attr:`window`, so the recorder's violation windows are whole
    whatever the sampling rate.  With no reader, a sampled-out trace
    is *muted*: none of its spans is built at all.

    Args:
        rate: Fraction of traces to keep in the main store
            (``0.0`` → none, ``1.0`` → all).
        seed: Decision seed; runs sharing it sample identically.
    """

    __slots__ = ("rate", "seed")

    #: Size of the recent-span ring a flight recorder reads.
    window = 256

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self.rate = rate
        self.seed = seed

    def keep_trace(self, trace_seq: int) -> bool:
        """Whether trace number *trace_seq* goes to the main store.

        A splitmix-style integer hash of (seed, sequence) compared
        against the rate: deterministic, stateless, uniform enough for
        sampling decisions.
        """
        x = (trace_seq * 0x9E3779B97F4A7C15
             + self.seed * 0xBF58476D1CE4E5B9 + 0x94D049BB) \
            & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
        return (x & 0xFFFFFFFF) < self.rate * 4294967296.0

    def __repr__(self) -> str:
        return (f"<SpanSampler rate={self.rate:g} seed={self.seed} "
                f"window={self.window}>")


@dataclass(slots=True)
class Span:
    """One timed, attributed unit of work in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    kind: str
    name: str
    start: float
    end: Optional[float] = None
    status: str = "ok"          #: ``"ok"`` or ``"failed"``
    reason: str = ""            #: failure detail when status is failed
    attrs: dict[str, Any] = field(default_factory=dict)
    #: The head-sampling verdict of the span's *trace* (does it go to
    #: the tracer's main store?), decided once when the trace is
    #: minted and inherited by every span that joins it.
    sampled: bool = field(default=True, compare=False, repr=False)

    #: False: a :class:`Span` records (a muted trace's are placeholders).
    muted = False

    @property
    def duration(self) -> float:
        """Elapsed virtual time (0.0 while open or for instants)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def fail(self, reason: str) -> "Span":
        """Mark the span failed; returns self for chaining."""
        self.status = "failed"
        self.reason = reason
        return self

    def __repr__(self) -> str:
        flag = "" if self.status == "ok" else f" FAILED({self.reason})"
        return (f"<span {self.span_id} {self.kind}:{self.name} "
                f"t={self.start:g}..{self.end if self.end is not None else '…'}"
                f"{flag}>")


class _Muted:
    """A span of a muted trace — sampled out, with no recent ring to
    land in.  It records nothing; it only holds the span's place on the
    activation stack (what nests under it joins its trace, muted too)
    and its id, formatted only if someone asks (a message or a frame
    carrying the trace context)."""

    __slots__ = ("trace_id", "_seq")

    muted = True
    #: The verdict spans joining this one inherit: None, muted.
    sampled = None

    def __init__(self, trace_id: str, seq: int):
        self.trace_id = trace_id
        self._seq = seq

    @property
    def span_id(self) -> str:
        return f"s{self._seq}"

    def fail(self, reason: str) -> "_Muted":
        return self


class Tracer:
    """Mints, activates and stores spans.

    Args:
        max_spans: Optional ring-buffer bound — the oldest spans are
            evicted once the store is full (``dropped_spans`` counts
            them), so long benchmark runs cannot grow without bound.
        sampler: Optional :class:`SpanSampler`.  Sampled-out traces
            skip the main store (counted in ``sampled_out``).  Once
            :meth:`keep_recent` is called (a flight recorder does),
            their spans transit the bounded ``recent`` ring that
            :meth:`recent_window` serves; before that they are muted —
            no :class:`Span` is built, and emission sites ask
            :meth:`admit` before building one.  ``None`` keeps every
            span — byte-identical to the pre-sampling tracer.
    """

    def __init__(self, max_spans: Optional[int] = None,
                 sampler: Optional[SpanSampler] = None):
        self.max_spans = max_spans
        self.sampler = sampler
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._recent: Optional[deque[Span]] = None
        self._stack: list = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self.dropped_spans = 0
        self.sampled_out = 0

    # -- minting -----------------------------------------------------------

    @property
    def current(self) -> Any:
        """The innermost active span (automatic parent), if any — a
        muted placeholder inside a muted trace."""
        return self._stack[-1] if self._stack else None

    def keep_recent(self) -> None:
        """Keep the bounded recent ring from now on — the flight
        recorder calls this when it is wired to the tracer, and it is
        the ring's only reader.  Sampled-out traces minted from here
        on are built and pass through the ring; traces already muted
        stay muted.  Without a sampler there is nothing to do:
        :meth:`recent_window` reads the main store."""
        if self.sampler is not None and self._recent is None:
            self._recent = deque(maxlen=self.sampler.window)

    def _verdict(self, kept: bool) -> Optional[bool]:
        """A trace's verdict: True kept, False sampled out into the
        recent ring, None muted (sampled out, and nothing reads the
        ring)."""
        if kept:
            return True
        return False if self._recent is not None else None

    def _mint_trace(self) -> tuple[str, Optional[bool]]:
        """A fresh trace id and its verdict — the one place the
        sampler is asked about a trace minted here."""
        seq = next(self._trace_ids)
        sampler = self.sampler
        return f"t{seq}", (sampler is None
                           or self._verdict(sampler.keep_trace(seq)))

    def _kept(self, trace_id: str) -> Optional[bool]:
        """The verdict of a trace known only by its id — context that
        re-enters from a message or the wire with no span of the trace
        active.

        A pure function of the id — minted ids are ``t<seq>``, so the
        sampler's stateless hash decides without any per-trace state.
        Foreign-format ids (never minted here) are always kept.
        """
        sampler = self.sampler
        if sampler is None:
            return True
        try:
            seq = int(trace_id[1:])
        except (ValueError, IndexError):
            return True
        return self._verdict(sampler.keep_trace(seq))

    def _join(self, trace_id: Optional[str],
              anchor: Any) -> tuple[str, Optional[bool]]:
        """The trace a new span belongs to and that trace's verdict:
        *anchor*'s (its parent / the active span) when the span joins
        the anchor's trace, a freshly minted one when there is nothing
        to join, else whatever the raw id says."""
        if anchor is not None and (not trace_id
                                   or trace_id == anchor.trace_id):
            return anchor.trace_id, anchor.sampled
        if not trace_id:
            return self._mint_trace()
        return trace_id, self._kept(trace_id)

    def admit(self, trace_id: Optional[str] = None) -> bool:
        """Whether an instant emitted now — joining the active span's
        trace, or *trace_id* — would be recorded anywhere.

        Emission sites ask before building an instant's name and
        attrs.  When the answer is no (its trace is muted), the
        instant is accounted for here — its id spent, counted in
        ``sampled_out`` — and the site skips :meth:`event`.  An
        instant that would mint a new trace is always admitted:
        :meth:`event` takes that trace's verdict.
        """
        stack = self._stack
        anchor = stack[-1] if stack else None
        if (anchor is None and not trace_id) \
                or self._join(trace_id, anchor)[1] is not None:
            return True
        next(self._span_ids)
        self.sampled_out += 1
        return False

    def _store(self, span: Span) -> Span:
        recent = self._recent
        if recent is not None:
            recent.append(span)
            if not span.sampled:
                self.sampled_out += 1
                return span
        if (self.max_spans is not None
                and len(self._spans) == self.max_spans):
            self.dropped_spans += 1
        self._spans.append(span)
        return span

    def begin(self, kind: str, name: str, time: float, *,
              parent: Any = _CURRENT,
              trace_id: Optional[str] = None,
              attrs: Optional[dict] = None,
              activate: bool = True) -> Any:
        """Open a span starting at virtual *time*.

        With *parent* omitted the span nests under :attr:`current`;
        pass ``parent=None`` to root a **new trace** (unless an
        explicit *trace_id* joins an existing one).  Activated spans
        become :attr:`current` until :meth:`end`.

        A span of a muted trace comes back as a placeholder whose
        ``muted`` is True: it has ``trace_id``, ``span_id`` and a
        no-op ``fail`` and nothing else (*attrs* are dropped), so a hot
        caller renders its attrs only for a span that is not muted.
        """
        stack = self._stack
        if parent is _CURRENT:
            parent = stack[-1] if stack else None
        trace_id, sampled = self._join(trace_id, parent)
        seq = next(self._span_ids)
        if sampled is None:
            self.sampled_out += 1
            span = _Muted(trace_id, seq)
        else:
            span = Span(trace_id, f"s{seq}",
                        parent.span_id if parent is not None else None,
                        kind, name, time, None, "ok", "",
                        dict(attrs) if attrs else {}, sampled)
            self._store(span)
        if activate:
            stack.append(span)
        return span

    def end(self, span: Any, time: float) -> Any:
        """Close *span* at virtual *time* and deactivate it."""
        if not span.muted:
            span.end = time
        stack = self._stack
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                # Pop through to the span (defensive: tolerates a
                # child left open by an aborted walk).  Identity, not
                # equality: a span that is not on the stack pops
                # nothing.
                for index in range(len(stack) - 2, -1, -1):
                    if stack[index] is span:
                        del stack[index:]
                        break
        return span

    def event(self, kind: str, name: str, time: float, *,
              trace_id: Optional[str] = None,
              parent_span_id: Optional[str] = None,
              attrs: Optional[dict] = None) -> Optional[Span]:
        """Record an instant (zero-duration) span; None when its trace
        is muted (see :meth:`admit`, which emission sites ask first).

        Unlike :meth:`begin`, the parent may be given as a raw span
        id — that is how trace context carried by a kernel
        :class:`~repro.sim.messages.Message` re-enters the tracer at
        delivery time without holding a :class:`Span` object.  When
        that context names the active span's own trace (a hop pumping
        its message to delivery) the instant inherits its verdict.
        """
        stack = self._stack
        active = stack[-1] if stack else None
        trace_id, sampled = self._join(trace_id, active)
        seq = next(self._span_ids)
        if sampled is None:
            self.sampled_out += 1
            return None
        if parent_span_id is None and active is not None:
            parent_span_id = active.span_id
        return self._store(
            Span(trace_id, f"s{seq}", parent_span_id,
                 kind, name, time, time, "ok", "",
                 dict(attrs) if attrs else {}, sampled))

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Every stored span, in start order (a copy)."""
        return list(self._spans)

    def of_kind(self, kind: str) -> list[Span]:
        """All spans of one kind, in start order."""
        return [s for s in self._spans if s.kind == kind]

    def recent_window(self, start: float, end: float) -> list[Span]:
        """Spans whose start lies within ``[start, end]``, drawn from
        the recent ring once :meth:`keep_recent` started it (so
        sampled-out spans are still visible to the flight recorder),
        falling back to the main store otherwise."""
        source = self._recent if self._recent is not None else self._spans
        return [s for s in source if start <= s.start <= end]

    def __len__(self) -> int:
        return len(self._spans)

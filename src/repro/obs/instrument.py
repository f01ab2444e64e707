"""The instrumentation seam: one object components publish into.

An :class:`Instrumentation` bundles a :class:`~repro.obs.trace.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry` behind a single
``enabled`` flag.  Every instrumented component (`Simulator`,
`DistributedResolver`, `PrefixCache`, `FailureInjector`, the async
protocol) holds one and guards its emission with ``if obs.enabled:``
— so an un-instrumented run (the :data:`NO_OBS` default) pays one
attribute check per would-be emission and allocates nothing.  Inside
an enabled run a site also asks :meth:`~repro.obs.trace.Tracer.admit`
(an instant) or reads the begun span's ``muted`` (a span) before
rendering names and attrs, so a sampled-out trace nothing reads
builds no span: each emission costs that check and its spent id.

Usage::

    from repro.obs import Instrumentation
    obs = Instrumentation()
    sim = Simulator(seed=0, obs=obs)
    ...
    print(obs.metrics.snapshot())
    print(len(obs.tracer.spans), "spans")
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanSampler, Tracer

__all__ = ["Instrumentation", "NO_OBS"]


class Instrumentation:
    """A tracer + metrics registry pair, enabled or inert.

    Args:
        enabled: When False the object is a pure sentinel — holders
            must skip emission (every built-in component does).
        max_spans: Ring-buffer bound forwarded to the tracer.
        sampler: Optional :class:`~repro.obs.trace.SpanSampler` — the
            always-on seam: sampled-out traces skip span storage, and
            unless a flight recorder reads the tracer their spans are
            never built.  Metrics and the auditor see every trace.
            ``None`` (the default) keeps every span.
        auditor: Optional
            :class:`~repro.obs.audit.CoherenceAuditor`.  The
            resolver/caching-service hooks fire whenever an auditor is
            present — even on a *disabled* instrumentation, which is
            how experiments audit timed runs without span or metric
            overhead (the auditor only publishes metrics when the
            instrumentation is enabled).
    """

    __slots__ = ("enabled", "tracer", "metrics", "sampler", "auditor")

    def __init__(self, enabled: bool = True,
                 max_spans: Optional[int] = None,
                 sampler: Optional[SpanSampler] = None,
                 auditor: Any = None):
        self.enabled = enabled
        self.sampler = sampler
        self.tracer = Tracer(max_spans=max_spans, sampler=sampler)
        self.metrics = MetricsRegistry()
        self.auditor = auditor
        if auditor is not None:
            auditor.bind_obs(self)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"<Instrumentation {state}: {len(self.tracer)} spans, "
                f"{len(self.metrics)} series>")


#: The shared inert sentinel used when no instrumentation is wired in.
#: Never emit into it and never flip its flag — construct a fresh
#: :class:`Instrumentation` to observe a run.
NO_OBS = Instrumentation(enabled=False)

"""Observability for the simulated name service (extension).

The paper's cost arguments — §2 resolution walks, closure-rule
choices, cache-coherence trade-offs — are credible only if every
message hop, cache decision and invalidation is *observable* rather
than inferred from aggregate counters.  This package is that seam:

* :mod:`repro.obs.trace` — typed :class:`Span` trees over virtual
  time, with trace-context propagation through kernel messages;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters, gauges and bounded histograms;
* :mod:`repro.obs.instrument` — the :class:`Instrumentation` bundle
  components publish into (no-op by default via :data:`NO_OBS`);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, Prometheus
  text, and JSON run summaries (all export-safe for arbitrary
  simulation payloads);
* :mod:`repro.obs.inspect` — hop-tree reconstruction and hot-spot
  rankings, driven by ``tools/inspect_run.py``;
* :mod:`repro.obs.audit` — the :class:`CoherenceAuditor` measuring
  ground-truth staleness against the authoritative binding history,
  with the violation-triggered :class:`FlightRecorder`;
* :mod:`repro.obs.slo` — declared staleness/latency objectives with
  burn counters over the audited stream.

The package is (almost) a dependency leaf: apart from the audit
module consulting the *pure* naming model (:mod:`repro.model`, itself
dependency-free) as its ground-truth oracle, it imports nothing from
the rest of ``repro``, so the kernel and name service can hook into
it freely.
"""

from repro.obs.audit import (
    BindingWrite,
    CoherenceAuditor,
    CoherenceContract,
    FlightRecorder,
)
from repro.obs.export import (
    json_safe,
    run_summary,
    to_chrome_trace,
    to_prometheus_text,
)
from repro.obs.inspect import (
    format_hop_tree,
    hop_tree,
    hottest_directories,
    hottest_servers,
    trace_roots,
)
from repro.obs.instrument import NO_OBS, Instrumentation
from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import SLObjective, SLOTracker
from repro.obs.trace import Span, SpanSampler, Tracer

__all__ = [
    "BindingWrite",
    "CoherenceAuditor",
    "CoherenceContract",
    "Counter",
    "Family",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NO_OBS",
    "SLObjective",
    "SLOTracker",
    "Span",
    "SpanSampler",
    "Tracer",
    "format_hop_tree",
    "hop_tree",
    "hottest_directories",
    "hottest_servers",
    "json_safe",
    "run_summary",
    "to_chrome_trace",
    "to_prometheus_text",
    "trace_roots",
]

"""The benchmark's dictionary: workloads, metrics, layers, predictions.

Everything another file (or a later issue) refers to by name is
declared here once: the five workloads and why each exists, the ten
end-to-end metrics with unit / direction / bound, the sixteen layers
with the public functions the traced run wraps, the extra per-layer
metrics, and the interaction table (which layer metric should move
which end-to-end metric on which workload).  ``BENCHMARK.json`` at the
repo root is the driver-facing projection of this module and
``test_e2e_bench.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["REFERENCE_SECONDS", "RUN_SECONDS", "TRACE_UNTRACED_REPEATS",
           "SMOKE_DIVISOR", "TRACE_TREE_OPS", "Workload", "SIM_WORKLOADS", "WORKLOADS", "Metric", "END_TO_END", "DRIVER_GATED",
           "LAYERS", "ROOTS", "LAYER_EXTRAS", "OTHER_TRACED", "INTERACTIONS",
           "BYPASS", "EXERCISE", "per_layer_metrics", "end_to_end_for",
           "metric_named", "manifest"]

#: ``--seconds`` value the per-repeat op counts below are sized for
#: (repeats x ops = about 20 s of timed work).  Another ``--seconds`` scales every count
#: linearly, so a run is "about that many seconds" of measured work
#: while both sides of a comparison still do *identical* work.
REFERENCE_SECONDS = 20
#: ``run_seconds`` of BENCHMARK.json — what the driver passes.  Below
#: the reference so that 114 driver runs (each with its set-ups, and
#: the audited verify pass on sim-lease-churn) fit its time cap even in
#: an hour when the host runs everything a third slower.
RUN_SECONDS = 12
#: Untraced repeats of a ``--trace 1`` run (its end-to-end numbers only
#: feed ``tracing.overhead_x``; the traced repeat comes on top).
TRACE_UNTRACED_REPEATS = 2
#: ``--smoke`` divides every op count (and the big namespaces) by this.
SMOKE_DIVISOR = 20
#: The traced run keeps the full span tree of this many leading ops.
TRACE_TREE_OPS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    substrate: str          #: "sim" or "tcp"
    #: Timed repeats per run, each on a deployment built from scratch.
    #: The socket workloads do the same total work in twice as many
    #: repeats: their timings swing more with the host's weather, and
    #: the fastest of ten finds a quiet stretch more often than of five.
    repeats: int
    ops: int                #: ops per repeat at REFERENCE_SECONDS
    warmup: int             #: untimed ops before the timed region
    why: str                #: one line, goes into BENCHMARK.json
    bypasses: str           #: what does *no* work here (README)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "sim-zipf-sharded", "sim", 5, 80_000, 0,
        "ROADMAP's canonical A10 shape: Zipf lookups over a sharded, "
        "replicated 200k-name directory with live splits, no cache, no "
        "obs - names, routing, hashing and the kernel do all the work",
        "prefix cache, leases, obs, audit, sockets"),
    Workload(
        "sim-zipf-sharded-obs", "sim", 5, 28_000, 0,
        "the same deployment and script under 5%-sampled spans plus the "
        "coherence auditor, so an observability gain shows here and "
        "predicts no change on sim-zipf-sharded",
        "prefix cache, leases, sockets"),
    Workload(
        "sim-lease-churn", "sim", 5, 50_000, 2_000,
        "reads beside writes: LEASE-policy lookups from 8 clients with "
        "5% rebinds breaking leased prefixes, so the prefix cache, lease "
        "table and write path (replicate + callback fan-out) do the work",
        "sharding (unsharded fast path), obs, audit, sockets"),
    Workload(
        "tcp-serial", "tcp", 10, 2_000, 200,
        "the lookup latency one caller feels over a real loopback "
        "socket (3 remote steps, 6 frames); the bypass workload for "
        "pipelining and coalescing, which predict no change here",
        "sim kernel, sharding, cache, leases, obs; nothing to coalesce"),
    Workload(
        "tcp-pipelined", "tcp", 10, 14_000, 200,
        "socket capacity: 64 callers over 2 connections keep the codec, "
        "framing, protocol and event loop CPU-bound, the closed-loop "
        "stand-in for the highest sustainable rate",
        "sim kernel, sharding, cache, leases, obs"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str             #: "lower" or "higher"
    bound: float            #: share of the baseline median it may worsen
    only: tuple[str, ...]   #: workloads that report it (() = all)
    note: str


#: The workloads that run on the simulator; the others run on sockets.
SIM_WORKLOADS = tuple(w.name for w in WORKLOADS if w.substrate == "sim")

#: The ten end-to-end metrics.  No bound is tighter than the issue's;
#: the timing bounds sit at the contract's ceiling because the host's
#: own speed moves by a quarter and more between a quiet hour and a busy
#: one (README.md, "Noise", has the run sets they were set from).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, (),
           "build + placement, or child start + connect; fastest of the "
           "repeats' set-ups"),
    Metric("ops_per_s", "1/s", "higher", 0.25, (),
           "ops completed per wall second of the timed region"),
    Metric("lookup_p50_us", "us", "lower", 0.25, (),
           "median lookup latency, perf_counter_ns around each op"),
    Metric("lookup_p99_us", "us", "lower", 0.25, SIM_WORKLOADS,
           "p99 lookup latency; the TCP tail is ungated and reported "
           "as service.lookup_p99_us"),
    Metric("rebind_p50_us", "us", "lower", 0.25, ("sim-lease-churn",),
           "median rebind latency (replicate + lease-break fan-out)"),
    Metric("rebind_p99_us", "us", "lower", 0.25, ("sim-lease-churn",),
           "p99 rebind latency"),
    Metric("msgs_per_op", "count", "lower", 0.015, (),
           "kernel messages or wire frames per op; repeats exactly for "
           "one seed, moves about 0.5% from seed to seed"),
    Metric("cpu_us_per_op", "us", "lower", 0.25, (),
           "process CPU per op, client plus server child"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, (),
           "peak resident set, client plus server child"),
    Metric("failed_share", "ratio", "lower", 0.0, (),
           "failed, timed-out or wrong-answer ops over attempted; any "
           "increase is a regression"),
)

#: End-to-end metrics the *driver* gates through BENCHMARK.json: the
#: contract wants every such metric on every workload and never zero,
#: so the workload-specific rows and the always-zero failed_share are
#: listed there as unbounded per-layer rows instead (``run.py agree``
#: still applies their bounds).
DRIVER_GATED = ("setup_s", "ops_per_s", "lookup_p50_us", "msgs_per_op",
                "cpu_us_per_op", "peak_rss_mb")

#: layer → [(module, owner or None for a module global, attribute)].
#: A name imported with ``from … import`` is listed at the binding its
#: caller uses.  The first element of ``roots`` layers opens an op.
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "names": [
        ("repro.model.names", "CompoundName", "parse"),
        ("repro.model.names", "CompoundName", "coerce"),
    ],
    "placement": [
        ("repro.nameservice.placement", "DirectoryPlacement", a)
        for a in ("host_of", "replicas_of", "host_of_binding",
                  "replicas_for_binding", "note_binding",
                  "note_binding_load")
    ],
    "sharding": [
        ("repro.nameservice.sharding", "ShardMap", "owner_of"),
        ("repro.nameservice.sharding", "ShardMap", "note_load"),
        ("repro.nameservice.sharding", "ShardMap", "plan_split"),
        ("repro.nameservice.sharding", "ShardMap", "apply_split"),
        ("repro.nameservice.sharding", "ShardManager", "on_resolution"),
        ("repro.nameservice.sharding", "ShardManager", "check"),
        ("repro.nameservice.resolver", "DistributedResolver",
         "split_shard"),
    ],
    "cache": [
        ("repro.nameservice.cache", "PrefixCache", a)
        for a in ("lookup_longest", "fill", "invalidate_through")
    ],
    "leases": [
        ("repro.nameservice.leases", "LeaseTable", "fresh"),
        ("repro.nameservice.leases", "LeaseTable", "covers_all"),
        ("repro.nameservice.leases", "LeaseTable", "grant"),
        ("repro.nameservice.leases", "LeaseTable", "revoke"),
        ("repro.nameservice.leases", "LeaseManager", "grant"),
        ("repro.nameservice.leases", "LeaseManager", "holders_of"),
        ("repro.nameservice.leases", "LeaseManager", "record_ack"),
        ("repro.nameservice.resolver", None, "callback_fanout"),
    ],
    "retry": [
        ("repro.nameservice.retry", "CircuitBreaker", a)
        for a in ("allow", "record_success", "record_failure")
    ],
    "kernel": [
        ("repro.sim.kernel", "Simulator", a)
        for a in ("send", "run_until_settled", "schedule")
    ],
    "simtrace": [("repro.sim.trace", "TraceLog", "record")],
    "obs": [
        ("repro.obs.trace", "Tracer", "begin"),
        ("repro.obs.trace", "Tracer", "end"),
        ("repro.obs.trace", "Tracer", "event"),
        ("repro.obs.metrics", "Counter", "inc"),
        ("repro.obs.metrics", "Histogram", "observe"),
    ],
    "audit": [
        ("repro.obs.audit", "CoherenceAuditor", a)
        for a in ("observe_resolution", "observe_lookup", "record_write")
    ],
    "resolver": [
        ("repro.nameservice.resolver", "DistributedResolver", "resolve"),
        ("repro.nameservice.resolver", "DistributedResolver", "rebind"),
    ],
    "protocol": [
        ("repro.nameservice.protocol", "AsyncNameClient", "resolve"),
        ("repro.nameservice.protocol", "AsyncNameClient", "_on_message"),
        ("repro.nameservice.protocol", "NameLookupServer", "_handle"),
    ],
    "wire": [
        ("repro.transport.wire", "WireCodec", "encode"),
        ("repro.transport.wire", "WireCodec", "decode"),
        ("repro.transport.wire", "EntityProxyCache", "proxy"),
        ("repro.transport.wire", "DirectoryRegistry", "get"),
    ],
    "framing": [
        ("repro.transport.aio", None, "encode_frame"),
        ("repro.transport.framing", "FrameDecoder", "feed"),
    ],
    "aio": [
        ("repro.transport.aio", "AsyncioEndpoint", "send"),
        ("repro.transport.aio", "AsyncioTransport", "schedule"),
    ],
    "service": [
        ("repro.transport.service", "RemoteNameClient", "resolve"),
    ],
}

#: Targets that open an op (root spans).  ``RemoteNameClient.resolve``
#: is a coroutine: only the segments in which it runs count as its
#: self time; the rest of the op is ``aio.wait_us_per_op``.
ROOTS = frozenset({
    ("repro.nameservice.resolver", "DistributedResolver", "resolve"),
    ("repro.nameservice.resolver", "DistributedResolver", "rebind"),
    ("repro.transport.service", "RemoteNameClient", "resolve"),
})

#: Extra per-layer metrics beyond calls_per_op / self_us_per_op.
LAYER_EXTRAS: tuple[tuple[str, str, str], ...] = (
    ("sharding.hash_calls_per_op", "count", "lower"),
    ("sharding.splits", "count", "lower"),
    ("sharding.shards_final", "count", "lower"),
    ("sharding.split_ms_total", "ms", "lower"),
    ("sharding.migration_msgs", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.cached_steps_per_op", "count", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("cache.expirations", "count", "lower"),
    ("leases.grants_per_op", "count", "lower"),
    ("leases.renewals_per_op", "count", "lower"),
    ("leases.callbacks_per_rebind", "count", "lower"),
    ("leases.acks", "count", "lower"),
    ("leases.server_breaks", "count", "lower"),
    ("retry.retries", "count", "lower"),
    ("retry.failovers", "count", "lower"),
    ("kernel.msgs_per_op", "count", "lower"),
    ("kernel.events_per_op", "count", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("obs.events_per_op", "count", "lower"),
    ("audit.observed", "count", "lower"),
    ("audit.violations", "count", "lower"),
    ("resolver.steps_per_op", "count", "lower"),
    ("resolver.replication_msgs_per_rebind", "count", "lower"),
    ("resolver.invalidation_msgs_per_rebind", "count", "lower"),
    ("protocol.steps_per_op", "count", "lower"),
    ("protocol.resends", "count", "lower"),
    ("protocol.late_replies", "count", "lower"),
    ("framing.bytes_per_op", "count", "lower"),
    ("framing.frames_per_op", "count", "lower"),
    ("aio.writes_per_op", "count", "lower"),
    ("aio.frames_dropped", "count", "lower"),
    ("aio.wait_us_per_op", "us", "lower"),
    ("service.lookup_p99_us", "us", "lower"),
)

#: Whole-run rows of the traced report that belong to no one layer.
OTHER_TRACED: tuple[tuple[str, str, str], ...] = (
    ("server.cpu_us_per_op", "us", "lower"),
    ("client.cpu_us_per_op", "us", "lower"),
    ("server.handle_us_per_step", "us", "lower"),
    ("server.rss_mb", "MB", "lower"),
    ("tracing.overhead_x", "x", "lower"),
    ("tracing.coverage", "ratio", "higher"),
)

#: layer metrics → (end-to-end metrics, workloads) they should move,
#: and the prediction everywhere else.  Later issues cite these rows.
INTERACTIONS: tuple[dict, ...] = (
    {"layer_metrics": ["names.*", "placement.*", "kernel.self_us_per_op",
                       "simtrace.*", "resolver.self_us_per_op"],
     "moves": ["lookup_p50_us", "ops_per_s", "cpu_us_per_op"],
     "on": ["sim-zipf-sharded"],
     "elsewhere": "diluted below the bound on tcp-*"},
    {"layer_metrics": ["sharding.*", "sharding.split_ms_total",
                       "sharding.hash_calls_per_op"],
     "moves": ["ops_per_s", "lookup_p99_us"],
     "on": ["sim-zipf-sharded", "sim-zipf-sharded-obs"],
     "elsewhere": "zero calls on sim-lease-churn and tcp-*"},
    {"layer_metrics": ["cache.hit_ratio", "cache.cached_steps_per_op",
                       "kernel.msgs_per_op"],
     "moves": ["msgs_per_op", "lookup_p50_us"],
     "on": ["sim-lease-churn"],
     "elsewhere": "cache.calls_per_op is 0 on sim-zipf-sharded"},
    {"layer_metrics": ["leases.*",
                       "resolver.replication_msgs_per_rebind",
                       "resolver.invalidation_msgs_per_rebind"],
     "moves": ["rebind_p50_us", "rebind_p99_us", "msgs_per_op"],
     "on": ["sim-lease-churn"],
     "elsewhere": "a write-path gain that costs reads shows as "
                  "lookup_p50_us rising on the same row"},
    {"layer_metrics": ["obs.*", "audit.*"],
     "moves": ["ops_per_s", "lookup_p50_us"],
     "on": ["sim-zipf-sharded-obs"],
     "elsewhere": "calls_per_op is 0 on the other four"},
    {"layer_metrics": ["wire.*", "framing.*", "protocol.*", "service.*"],
     "moves": ["lookup_p50_us"],
     "on": ["tcp-serial"],
     "elsewhere": "on the critical path six times per lookup; also "
                  "ops_per_s and cpu_us_per_op on tcp-pipelined"},
    {"layer_metrics": ["aio.writes_per_op"],
     "moves": ["ops_per_s"],
     "on": ["tcp-pipelined"],
     "elsewhere": "no change on tcp-serial: nothing to coalesce"},
    {"layer_metrics": ["aio.wait_us_per_op", "server.handle_us_per_step"],
     "moves": ["lookup_p50_us"],
     "on": ["tcp-serial"],
     "elsewhere": "hidden behind queueing on tcp-pipelined"},
)

#: layer → workloads on which its calls_per_op must be exactly zero
#: (the oracle of the traced run checks both directions).
BYPASS: dict[str, tuple[str, ...]] = {
    "cache": ("sim-zipf-sharded",),
    "leases": ("sim-zipf-sharded",),
    "sharding": ("sim-lease-churn", "tcp-serial", "tcp-pipelined"),
    "kernel": ("tcp-serial", "tcp-pipelined"),
    "framing": SIM_WORKLOADS,
    "wire": SIM_WORKLOADS,
    "aio": SIM_WORKLOADS,
}
#: layer → workloads on which its calls_per_op must be above zero.
EXERCISE: dict[str, tuple[str, ...]] = {
    "names": tuple(w.name for w in WORKLOADS),
    "placement": SIM_WORKLOADS,
    "sharding": ("sim-zipf-sharded", "sim-zipf-sharded-obs"),
    "cache": ("sim-lease-churn",),
    "leases": ("sim-lease-churn",),
    "retry": SIM_WORKLOADS,
    "kernel": SIM_WORKLOADS,
    "simtrace": SIM_WORKLOADS,
    "obs": ("sim-zipf-sharded-obs",),
    "audit": ("sim-zipf-sharded-obs",),
    "resolver": SIM_WORKLOADS,
    "protocol": ("tcp-serial", "tcp-pipelined"),
    "wire": ("tcp-serial", "tcp-pipelined"),
    "framing": ("tcp-serial", "tcp-pipelined"),
    "aio": ("tcp-serial", "tcp-pipelined"),
    "service": ("tcp-serial", "tcp-pipelined"),
}


def metric_named(name: str) -> Metric:
    for metric in END_TO_END:
        if metric.name == name:
            return metric
    raise KeyError(name)


def end_to_end_for(workload: str) -> list[Metric]:
    """The end-to-end metrics *workload* reports."""
    return [m for m in END_TO_END if not m.only or workload in m.only]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every (name, unit, better) row a ``--trace 1`` run prints — the
    ``per_layer`` list of BENCHMARK.json, in order."""
    rows: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        rows.append((f"{layer}.calls_per_op", "count", "lower"))
        rows.append((f"{layer}.self_us_per_op", "us", "lower"))
    rows.extend(LAYER_EXTRAS)
    rows.extend(OTHER_TRACED)
    rows.extend((m.name, m.unit, m.better) for m in END_TO_END
                if m.name not in DRIVER_GATED)
    return rows


def manifest() -> dict:
    """BENCHMARK.json, exactly (the test compares the file with this)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.name in DRIVER_GATED],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_metrics()],
    }

#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload NAME --seed N
            [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
    python3 benchmarks/e2e/run.py agree A B

Generates the workload's inputs from the seed, runs it (5 or 10 repeats,
each on a deployment rebuilt from scratch), checks every answer, prints every
metric by name with its unit, writes ``<out>/<workload>.json`` and ends
with the one-line JSON result the benchmark driver reads.  ``--trace``
adds one traced repeat and reports the per-layer metrics instead;
``--smoke`` runs reduced sizes through identical code paths; ``--workload
all`` runs the five in turn.  ``agree`` exits nonzero when two result
sets differ by more than a metric's bound.  See README.md beside this
file for the metric dictionary and the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("benchmarks/e2e/run.py: the program under test (src/repro) "
             "is not in this checkout; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from simloads import sim_workload  # noqa: E402
from tcploads import tcp_workload  # noqa: E402

DEFAULT_OUT = ROOT / "artifacts" / "e2e_bench"
SMOKE_REPEATS = 2


# -- running one workload ----------------------------------------------------


def _sizes(workload: spec.Workload, seconds: float, smoke: bool):
    scale = seconds / spec.REFERENCE_SECONDS
    divisor = spec.SMOKE_DIVISOR if smoke else 1
    ops = max(200, round(workload.ops * scale / divisor))
    return ops, round(workload.warmup / divisor)


def _repeat_metrics(setup_s: float, result) -> dict[str, float]:
    ops = result.ops
    lookups = sorted(result.lookup_ns)
    rebinds = sorted(result.rebind_ns)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / (result.wall_ns / 1e9),
        "lookup_p50_us": measure.percentile_us(lookups, 0.50),
        "lookup_p99_us": measure.percentile_us(lookups, 0.99),
        "rebind_p50_us": measure.percentile_us(rebinds, 0.50),
        "rebind_p99_us": measure.percentile_us(rebinds, 0.99),
        "msgs_per_op": result.msgs / ops,
        "cpu_us_per_op": result.cpu_ns / 1000.0 / ops,
        "peak_rss_mb": measure.peak_rss_mb_of() + result.server_rss_mb,
        "failed_share": result.failed / ops,
    }


def _composite(results: list, setups: list[float], slice_ops: int,
               deterministic_ops: bool) -> dict[str, float]:
    """The run as it would read on a machine that left it alone.

    The repeats do identical work, slice for slice.  Interference from
    the host only ever makes work *slower*, and on this kind of shared
    two-core box it comes in bursts of a second or so (and in noisy
    spells of minutes) — enough to skew a 3 s repeat, and the median of
    the repeats with it.  So every timing is taken as the fastest
    of the repeats at the finest grain where the work is the same:

    * ``setup_s`` — the fastest of the set-ups;
    * ``ops_per_s``, ``cpu_us_per_op`` — per slice of *slice_ops* ops
      the fastest repeat's wall clock / CPU, summed over the slices;
    * ``lookup_p50_us`` — per slice the lowest of the repeats' median
      lookup latencies, then the median over slices;
    * on the simulator, where op *i* does the same work in every repeat,
      the tail and rebind percentiles over per-op minima.

    Work that is slow in every repeat — a shard split, a GC pass, a
    real regression — stays in; only what one repeat paid and another
    did not is dropped.
    """
    ops = results[0].ops
    flags = results[0].rebind_flags or [False] * ops
    wall = cpu = 0
    medians = []
    for index in range(len(results[0].marks) - 1):
        lo, hi = index * slice_ops, min((index + 1) * slice_ops, ops)
        wall += min(r.marks[index + 1][0] - r.marks[index][0]
                    for r in results)
        cpu += min(r.marks[index + 1][1] - r.marks[index][1]
                   for r in results)
        per_repeat = [sorted(ns for ns, flag in zip(r.op_ns[lo:hi],
                                                    flags[lo:hi])
                             if not flag) for r in results]
        if per_repeat[0]:
            medians.append(min(lookups[(len(lookups) - 1) // 2]
                               for lookups in per_repeat))
    medians.sort()
    rows = {"setup_s": min(setups),
            "ops_per_s": ops / (wall / 1e9),
            "cpu_us_per_op": cpu / 1000.0 / ops,
            "lookup_p50_us": medians[(len(medians) - 1) // 2] / 1000.0}
    if deterministic_ops:
        best = [min(column) for column in zip(*(r.op_ns for r in results))]
        lookups = sorted(ns for ns, flag in zip(best, flags) if not flag)
        rebinds = sorted(ns for ns, flag in zip(best, flags) if flag)
        rows["lookup_p99_us"] = measure.percentile_us(lookups, 0.99)
        if rebinds:
            rows["rebind_p50_us"] = measure.percentile_us(rebinds, 0.50)
            rows["rebind_p99_us"] = measure.percentile_us(rebinds, 0.99)
    return rows


def _layer_rows(name: str, result, rec: tracing.Recorder, untraced: list,
                per_repeat: list[dict], end_to_end: dict) -> dict[str, float]:
    """Every per-layer row of the traced report, by name."""
    ops, stats = result.ops, result.stats
    tcp = name not in spec.SIM_WORKLOADS
    server = stats.get("server_trace", {})
    rebinds = stats.get("rebinds", 0)
    lookups = ops - rebinds

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    def both(table: str, key: str) -> int:
        """Client plus server child (wire totals)."""
        return (getattr(rec, table).get(key, 0)
                + server.get(table, {}).get(key, 0))

    def median(key: str) -> float:
        return statistics.median(row[key] for row in per_repeat)

    rows: dict[str, float] = {}
    for layer in spec.LAYERS:
        rows[f"{layer}.calls_per_op"] = per(rec.calls.get(layer, 0), ops)
        rows[f"{layer}.self_us_per_op"] = per(
            rec.self_ns.get(layer, 0) / 1000.0, ops)
    hits, misses = stats.get("cache_hits", 0), stats.get("cache_misses", 0)
    wait_ns = result.wall_ns - rec.top_ns if tcp else 0
    rows.update({
        "sharding.hash_calls_per_op": per(
            rec.counts.get("sharding.hash_calls", 0), ops),
        "sharding.splits": stats.get("splits", 0),
        "sharding.shards_final": stats.get("shards_final", 0),
        "sharding.split_ms_total": rec.target_ns.get(
            "DistributedResolver.split_shard", 0) / 1e6,
        "sharding.migration_msgs": stats.get("migration_msgs", 0),
        "cache.hit_ratio": per(hits, hits + misses),
        "cache.cached_steps_per_op": per(stats.get("cached_steps", 0), ops),
        "cache.invalidations": stats.get("cache_invalidations", 0),
        "cache.expirations": stats.get("cache_expirations", 0),
        "leases.grants_per_op": per(stats.get("grants", 0), ops),
        "leases.renewals_per_op": per(stats.get("renewals", 0), ops),
        "leases.callbacks_per_rebind": per(
            stats.get("invalidation_msgs", 0) - stats.get("acks", 0),
            rebinds),
        "leases.acks": stats.get("acks", 0),
        "leases.server_breaks": stats.get("server_breaks", 0),
        "retry.retries": stats.get("retries", 0),
        "retry.failovers": stats.get("failovers", 0),
        "kernel.msgs_per_op": 0.0 if tcp else per(result.msgs, ops),
        "kernel.events_per_op": per(rec.counts.get("kernel.events", 0), ops),
        "obs.spans_recorded": stats.get("spans_recorded", 0),
        "obs.spans_dropped": stats.get("spans_dropped", 0),
        "obs.events_per_op": per(
            rec.target_calls.get("Tracer.event", 0), ops),
        "audit.observed": stats.get("audit_observed", 0),
        "audit.violations": stats.get("audit_violations", 0),
        "resolver.steps_per_op": 0.0 if tcp else per(
            stats.get("steps", 0), lookups),
        "resolver.replication_msgs_per_rebind": per(
            stats.get("replication_msgs", 0), rebinds),
        "resolver.invalidation_msgs_per_rebind": per(
            stats.get("invalidation_msgs", 0), rebinds),
        "protocol.steps_per_op": per(stats.get("steps", 0), ops)
        if tcp else 0.0,
        "protocol.resends": stats.get("resends", 0),
        "protocol.late_replies": stats.get("late_replies", 0),
        "framing.bytes_per_op": per(both("counts", "framing.bytes"), ops),
        "framing.frames_per_op": per(
            both("target_calls", "aio.encode_frame"), ops),
        "aio.writes_per_op": per(both("counts", "aio.writes"), ops),
        "aio.frames_dropped": stats.get("frames_dropped", 0),
        "aio.wait_us_per_op": per(wait_ns / 1000.0, ops),
        "service.lookup_p99_us": median("lookup_p99_us") if tcp else 0.0,
        "server.cpu_us_per_op": per(statistics.median(
            r.server_cpu_ns for r in untraced) / 1000.0, ops),
        "client.cpu_us_per_op": per(statistics.median(
            r.cpu_ns - r.server_cpu_ns for r in untraced) / 1000.0, ops),
        "server.handle_us_per_step": per(
            server.get("top_ns", 0) / 1000.0, stats.get("server_steps", 0)),
        "server.rss_mb": statistics.median(
            r.server_rss_mb for r in untraced),
        "tracing.overhead_x": per(median("ops_per_s"),
                                  ops / (result.wall_ns / 1e9)),
        "tracing.coverage": per(sum(rec.self_ns.values()) + wait_ns,
                                result.wall_ns),
    })
    for metric in spec.END_TO_END:      # 0 where a workload has no such row
        if metric.name not in spec.DRIVER_GATED:
            rows[metric.name] = end_to_end.get(
                metric.name, {"value": 0.0})["value"]
    return rows


def _layer_checks(name: str, rows: dict, rec: tracing.Recorder) -> list[str]:
    """Findings about the traced repeat itself (they do not make the
    program's answers wrong, so they never flip ``correct``)."""
    findings = [f"shim target missing: {target}" for target in rec.missing]
    for layer, workloads in spec.BYPASS.items():
        if name in workloads and rows[f"{layer}.calls_per_op"] != 0:
            findings.append(f"{layer} should do no work on {name}")
    for layer, workloads in spec.EXERCISE.items():
        if name in workloads and rows[f"{layer}.calls_per_op"] <= 0:
            findings.append(f"{layer} should do work on {name}")
    if abs(rows["tracing.coverage"] - 1.0) > 0.05:
        findings.append("per-layer self times sum to "
                        f"{rows['tracing.coverage']:.3f} of the traced op "
                        "time (want within 5%)")
    return findings


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path) -> dict:
    """Run one workload end to end; returns the report written to disk."""
    workload = next(w for w in spec.WORKLOADS if w.name == name)
    env = measure.environment(ROOT, seed, seconds, smoke)
    ops, warmup = _sizes(workload, seconds, smoke)
    load = (sim_workload if name in spec.SIM_WORKLOADS else tcp_workload)(
        name, smoke)
    script = load.script(seed, ops, warmup)
    repeats = (SMOKE_REPEATS if smoke else
               spec.TRACE_UNTRACED_REPEATS if trace else workload.repeats)
    out_dir.mkdir(parents=True, exist_ok=True)

    problems: list[str] = []
    results, per_repeat = [], []
    for _ in range(repeats):
        gc.collect()
        setup_s, result = load.repeat(script)
        results.append(result)
        per_repeat.append(_repeat_metrics(setup_s, result))
        problems.extend(result.problems)

    first = results[0]
    for index, result in enumerate(results[1:], start=2):
        if (result.deterministic, result.digest) != (first.deterministic,
                                                     first.digest):
            problems.append(
                f"repeat {index} is not a replay of repeat 1: "
                f"{result.deterministic} digest {result.digest:#x} vs "
                f"{first.deterministic} digest {first.digest:#x}")
    if name == "sim-lease-churn":
        prefix_digest, verify_problems = load.verify(script)
        problems.extend(verify_problems)
        if prefix_digest != first.stats["prefix_digest"]:
            problems.append("audited verify pass answered differently "
                            "from the timed repeats")
    tail = min(len(r.lookup_ns) for r in results) // 100
    if (not smoke and tail < measure.TAIL_SAMPLES
            and name in spec.metric_named("lookup_p99_us").only):
        problems.append(f"lookup p99 has only {tail} samples beyond it")

    end_to_end = {
        metric.name: measure.summarize(
            [row[metric.name] for row in per_repeat], metric.unit)
        for metric in spec.end_to_end_for(name)}
    composite = _composite(results, [row["setup_s"] for row in per_repeat],
                           load.slice_ops, name in spec.SIM_WORKLOADS)
    for key, value in composite.items():
        row = end_to_end[key]
        row["median_of_repeats"], row["value"] = row["value"], value
        row["estimator"] = "fastest of the repeats"
    report = {
        "workload": name, "why": workload.why, "settings": load.settings(),
        "ops_per_repeat": ops, "warmup_ops": warmup, "repeats": repeats,
        "slice_ops": load.slice_ops, "end_to_end": end_to_end,
        "deterministic": first.deterministic,
        "digest": f"{first.digest:#010x}",
    }
    if name not in spec.SIM_WORKLOADS:
        # The TCP tail is reported but gated nowhere (README, limits).
        report["ungated"] = {"service.lookup_p99_us": measure.summarize(
            [row["lookup_p99_us"] for row in per_repeat], "us")}

    if trace:
        recorder = tracing.Recorder()
        saved = tracing.install(recorder)
        trace_out = out_dir / f"{name}.server-trace.json"
        try:
            gc.collect()
            _setup, traced = load.repeat(script, recorder, trace_out)
        finally:
            tracing.restore(saved)
            recorder.active = False
        problems.extend(traced.problems)
        if (traced.deterministic, traced.digest) != (first.deterministic,
                                                     first.digest):
            problems.append("the traced repeat is not a replay of the "
                            "untraced ones")
        rows = _layer_rows(name, traced, recorder, results, per_repeat,
                           end_to_end)
        units = {row[0]: row[1] for row in spec.per_layer_metrics()}
        report["per_layer"] = {key: {"value": value, "unit": units[key]}
                               for key, value in rows.items()}
        report["layer_checks"] = _layer_checks(name, rows, recorder)
        (out_dir / f"{name}.trace.json").write_text(json.dumps({
            "workload": name, "ops": traced.ops,
            "wall_ns": traced.wall_ns,
            "client": recorder.aggregates(),
            "server": traced.stats.get("server_trace"),
            "span_columns": tracing.SPAN_COLUMNS,
            "tree_ops": min(recorder.tree_ops, recorder.ops),
            "spans": [span for span in recorder.spans if span is not None],
        }))

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    report.update({"attempted": attempted, "failed": failed,
                   "problems": problems,
                   "correct": not problems and failed == 0,
                   "traced": trace,
                   "env": measure.close_environment(
                       env, DEFAULT_OUT / "calibration.json")})
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1))
    return report


# -- printing ----------------------------------------------------------------


def _print_report(report: dict) -> None:
    env = report["env"]
    print(f"== {report['workload']}  seed={env['seed']} "
          f"ops/repeat={report['ops_per_repeat']} "
          f"repeats={report['repeats']}"
          f"{'  SMOKE' if env['smoke'] else ''}"
          f"{'  NOISY' if env['noisy'] else ''}")
    for name, row in report["end_to_end"].items():
        bound = spec.metric_named(name).bound
        median = row.get("median_of_repeats", row["value"])
        print(f"  {name:<40} {row['value']:>14.4f} {row['unit']:<6}"
              f" repeats: median={median:.4f} q1={row['q1']:.4f} "
              f"q3={row['q3']:.4f} n={row['n']}  bound={bound:.1%}")
    for name, row in {**report.get("ungated", {}),
                      **report.get("per_layer", {})}.items():
        print(f"  {name:<40} {row['value']:>14.4f} {row['unit']}")
    for finding in report.get("layer_checks", []):
        print(f"  layer check: {finding}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}")


def _driver_line(report: dict) -> str:
    """The one-line JSON result: end-to-end metrics untraced, per-layer
    metrics traced — exactly the names BENCHMARK.json declares."""
    if report["traced"]:
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in report["per_layer"].items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["value"],
                          "unit": report["end_to_end"][name]["unit"]}
                   for name in spec.DRIVER_GATED}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


# -- agree -------------------------------------------------------------------


def _load_set(path: Path) -> dict[str, list[dict]]:
    """workload → its result files under *path* (a file, or a directory
    searched recursively: a set may hold several runs of a workload)."""
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    reports: dict[str, list[dict]] = {}
    for file in files:
        data = json.loads(file.read_text())
        if isinstance(data, dict) and "end_to_end" in data:
            reports.setdefault(data["workload"], []).append(data)
    return reports


def agree(first: Path, second: Path, only: list[str] | None = None) -> int:
    """Compare two result sets metric by metric against the bounds;
    where a set holds several runs of a workload, their median."""
    a, b = _load_set(first), _load_set(second)
    shared = sorted(set(a) & set(b))
    if not shared:
        print("agree: the two sets share no workload", file=sys.stderr)
        return 2
    if any(report["env"]["smoke"]
           for workload in shared for report in a[workload] + b[workload]):
        print("agree: smoke results are never compared", file=sys.stderr)
        return 2
    disagreements = 0
    for workload in shared:
        noisy = sum(report["env"].get("noisy", False)
                    for report in a[workload] + b[workload])
        for name in a[workload][0]["end_to_end"]:
            if only and name not in only:
                continue
            left, right = (statistics.median(
                report["end_to_end"][name]["value"] for report in side)
                for side in (a[workload], b[workload]))
            bound = spec.metric_named(name).bound
            base = min(abs(left), abs(right))
            gap = abs(left - right) / base if base else abs(left - right)
            verdict = "ok" if gap <= bound else "DISAGREE"
            disagreements += verdict != "ok"
            print(f"{workload:<22} {name:<16} {left:>14.4f} "
                  f"{right:>14.4f} gap={gap:7.2%} bound={bound:6.1%} "
                  f"{verdict}")
        print(f"{workload:<22} runs: {len(a[workload])} vs "
              f"{len(b[workload])}, stamped noisy: {noisy}")
    print(f"agree: {disagreements} disagreement(s) over "
          f"{len(shared)} workload(s)")
    return 1 if disagreements else 0


# -- entry -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "agree":
        parser = argparse.ArgumentParser(prog="run.py agree")
        parser.add_argument("first", type=Path)
        parser.add_argument("second", type=Path)
        parser.add_argument("--only", nargs="+", metavar="METRIC",
                            help="compare just these metrics")
        args = parser.parse_args(argv[1:])
        return agree(args.first, args.second, args.only)

    names = [w.name for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float,
                        default=float(spec.REFERENCE_SECONDS),
                        help="measured seconds the op counts are scaled "
                             "to (op counts stay fixed per value)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = None
    correct = True
    for name in (names if args.workload == "all" else [args.workload]):
        report = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.smoke, args.out)
        _print_report(report)
        correct = correct and report["correct"]
    print(_driver_line(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

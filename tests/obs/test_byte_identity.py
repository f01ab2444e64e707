"""Byte-identity goldens for everything the obs spine exports.

The hot-path work in `repro.obs` (one sampling verdict per trace,
bound metric handles, the auditor's single walk) must be invisible in
every artifact: for one small sharded scenario — Zipf lookups hot
enough to split live, a batch, rebinds through the write discipline, a
failover around a crashed replica and one forced contract violation —
the Chrome trace, the run summary, the metrics snapshot and the
flight-recorder state are pinned as sha256 digests of their JSON (key
order included), at sampler ``None`` / ``rate=1.0`` / ``rate=0.05``.
The digests were captured from the commit *before* that work landed.
The same run with no flight recorder — so sampled-out traces are muted
and never built — must export the same trace, summary and metrics.

Regenerate (only when a change is *intended* to alter an export)::

    PYTHONPATH=src python tests/obs/test_byte_identity.py
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.obs import (
    CoherenceAuditor,
    FlightRecorder,
    Instrumentation,
    SLObjective,
    SLOTracker,
    SpanSampler,
    run_summary,
    to_chrome_trace,
)
from repro.workloads.deployment import build_world
from repro.workloads.zipf import ZipfSampler

SAMPLERS = {
    "none": lambda: None,
    "rate1": lambda: SpanSampler(rate=1.0, seed=1),
    "rate005": lambda: SpanSampler(rate=0.05, seed=1),
}

DOCUMENTS = ("chrome_trace", "run_summary", "metrics", "flight")

GOLDENS = {
    "none": {
        "chrome_trace":
            "f26e8f1e00b04a01b2d142074ce468083e549ccd6f876f16e48dbad527d86ace",
        "run_summary":
            "e9610999f31806f7442c6f7e6eea2eb537bacad48c9d633829a9bb44b89aada3",
        "metrics":
            "5d1307062ca452bdb5fbbc1ad88df296d105494c29820fbfcbc2e95f934806e5",
        "flight":
            "e1370aca08c4efdbc2928b437c229ee6c1cd136c0ede5270f24a9af31f2a7d78",
    },
    "rate1": {
        "chrome_trace":
            "f26e8f1e00b04a01b2d142074ce468083e549ccd6f876f16e48dbad527d86ace",
        "run_summary":
            "e9610999f31806f7442c6f7e6eea2eb537bacad48c9d633829a9bb44b89aada3",
        "metrics":
            "5d1307062ca452bdb5fbbc1ad88df296d105494c29820fbfcbc2e95f934806e5",
        "flight":
            "e1370aca08c4efdbc2928b437c229ee6c1cd136c0ede5270f24a9af31f2a7d78",
    },
    "rate005": {
        "chrome_trace":
            "6f82a791c8eeb7690156ebed8c02878b703b42be90ba0bf834c6e3d0bd805641",
        "run_summary":
            "5c2c6cf3b45fad294958499770f45db84020fdfb8adac1765f6fb24c61555bf1",
        "metrics":
            "5d1307062ca452bdb5fbbc1ad88df296d105494c29820fbfcbc2e95f934806e5",
        "flight":
            "e1370aca08c4efdbc2928b437c229ee6c1cd136c0ede5270f24a9af31f2a7d78",
    },
}


def run_scenario(sampler, recorded: bool = True) -> dict:
    """The four exported documents of one instrumented sharded run
    (``flight`` is None when the run is not *recorded*: no flight
    recorder, so sampled-out traces are muted)."""
    recorder = FlightRecorder(window=30.0) if recorded else None
    obs = Instrumentation(max_spans=600, sampler=sampler)
    auditor = CoherenceAuditor(
        recorder=recorder,
        slo=SLOTracker([SLObjective("fast", max_latency=5.0)],
                       metrics=obs.metrics))
    obs.auditor = auditor
    auditor.bind_obs(obs)
    pool = [f"s{i}" for i in range(4)]
    world = build_world({
        "networks": ["lan"],
        "machines": [[label, "lan"] for label in [*pool, "client-m"]],
        "zipf": {"path": "hot", "count": 400, "distinct": 32},
        "place": [["/", "client-m"]],
        "shard": [["hot", pool[:2], 2]],
        "clients": [["client-m", "client"]],
        "resolver": {"retry_policy": {"max_attempts": 3}},
        "splits": {"pool": pool, "split_fraction": 0.3, "check_every": 40,
                   "min_window": 20, "max_shards": 8}}, seed=3, obs=obs)
    if recorder is not None:
        recorder.wire(trace_log=world.simulator.trace)
    simulator, placement, resolver = (world.simulator, world.placement,
                                      world.resolver)
    client, context, namespace = world.client, world.context, world.namespace
    shard_map = placement.shard_map_of(namespace.directory)
    ranks = ZipfSampler(400, rng=random.Random(5)).sample_many(150)
    names = ["/hot/" + namespace.names[rank] for rank in ranks]
    for name in names[:100]:
        resolver.resolve(client, context, name)
    resolver.resolve_many(client, context, names[100:120])
    old = namespace.directory.state(namespace.names[0])
    resolver.rebind(namespace.directory, namespace.names[0],
                    namespace.shared_leaf)
    resolver.rebind(namespace.directory, "fresh", namespace.shared_leaf)
    # A crashed primary: the walk fails over to the shard's secondary.
    world.injector.crash_machine(shard_map.shards[0].machine)
    for name in names[120:]:
        resolver.resolve(client, context, name)
    resolver.resolve(client, context, "/hot/missing")
    # A read that still returns the pre-rebind entity long after the
    # write, claimed coherent: the one violation (and recorder dump).
    auditor.observe_lookup(
        namespace.directory, namespace.names[0], old,
        now=simulator.clock.now + 20.0, policy="invalidate",
        placement=placement)
    assert shard_map.is_partition()
    assert resolver.shard_splits > 0
    assert auditor.violation_count == 1
    spans = obs.tracer.spans
    return {
        "chrome_trace": to_chrome_trace(spans),
        "run_summary": run_summary(
            spans, obs.metrics, trace_log=simulator.trace,
            clock=simulator.clock.now,
            notes={"audit": auditor.summary(),
                   "sampled_out": obs.tracer.sampled_out,
                   "dropped_spans": obs.tracer.dropped_spans}),
        "metrics": obs.metrics.snapshot(),
        "flight": recorder.to_dict() if recorder is not None else None,
    }


def digests(documents: dict) -> dict:
    return {name: hashlib.sha256(
        json.dumps(documents[name]).encode()).hexdigest()
        for name in DOCUMENTS}


class TestExportsAreByteIdentical:
    @pytest.mark.parametrize("mode", sorted(SAMPLERS))
    def test_documents_match_the_pinned_digests(self, mode):
        assert digests(run_scenario(SAMPLERS[mode]())) == GOLDENS[mode]

    @pytest.mark.parametrize("mode", ["rate1", "rate005"])
    def test_muted_traces_export_what_recorded_ones_do(self, mode):
        muted = run_scenario(SAMPLERS[mode](), recorded=False)
        recorded = run_scenario(SAMPLERS[mode]())
        # The one difference a recorder makes to the summary: its count.
        del recorded["run_summary"]["notes"]["audit"]["flight_dumps"]
        assert json.dumps(muted["run_summary"]) \
            == json.dumps(recorded["run_summary"])
        pinned = digests(muted)
        for name in ("chrome_trace", "metrics"):
            assert pinned[name] == GOLDENS[mode][name], name

    def test_sampling_changes_storage_not_measurement(self):
        # Metrics, audit tallies and the recorder's windows are taken
        # from every resolution, kept trace or not.
        full = run_scenario(SAMPLERS["rate1"]())
        sampled = run_scenario(SAMPLERS["rate005"]())
        assert full["metrics"] == sampled["metrics"]
        assert full["flight"] == sampled["flight"]
        assert full["run_summary"]["notes"]["audit"] == \
            sampled["run_summary"]["notes"]["audit"]
        assert full["run_summary"]["notes"]["sampled_out"] == 0
        assert sampled["run_summary"]["notes"]["sampled_out"] > 0
        assert 0 < sampled["run_summary"]["span_count"] \
            < full["run_summary"]["span_count"]


def _regenerate() -> None:  # pragma: no cover - maintenance helper
    print("GOLDENS = {")
    for mode in SAMPLERS:
        print(f'    "{mode}": {{')
        for name, digest in digests(
                run_scenario(SAMPLERS[mode]())).items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()

"""Lease-protocol observability: spans and counters on display."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.obs import Instrumentation, to_chrome_trace
from repro.sim.kernel import Simulator

REPO = Path(__file__).resolve().parents[2]
CLI = REPO / "tools" / "inspect_run.py"


def _lease_run(obs):
    """Grant → connected break (ack) → partitioned break (loss) →
    grace serving → heal + revalidation, all instrumented."""
    simulator = Simulator(seed=0, obs=obs)
    lan = simulator.network("lan")
    srv = simulator.network("srv")
    client_machine = simulator.machine(lan, "client-m")
    primary = simulator.machine(srv, "m1")
    secondary = simulator.machine(srv, "m2")
    tree = NamingTree("root", sigma=simulator.sigma, parent_links=True)
    tree.mkdir("svc")
    old_dir = tree.mkdir("svc/app")
    tree.mkfile("svc/app/cfg")
    new_dir = tree.mkdir("spare")
    tree.mkfile("spare/cfg")
    other_dir = tree.mkdir("other")
    tree.mkfile("other/cfg")
    placement = DirectoryPlacement()
    placement.place(tree.root, client_machine)
    svc = tree.directory("svc")
    for node in (svc, old_dir, new_dir, other_dir):
        placement.place_replicated(node, primary, secondary)
    client = simulator.spawn(client_machine, "client")
    context = ProcessContext(tree.root)
    resolver = DistributedResolver(
        simulator, placement, cache_policy=CachePolicy.LEASE,
        cache_ttl=10_000.0,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.5,
                                 max_backoff=1.0),
        breaker_threshold=5, breaker_cooldown=5.0, lease_term=12.0)
    resolver.resolve(client, context, "/svc/app/cfg")
    # Connected rebind: callback delivered, revoked and acked.
    resolver.rebind(svc, "app", other_dir)
    resolver.resolve(client, context, "/svc/app/cfg")
    # Partitioned rebind: callback lost, lease broken server-side.
    simulator.run(until=8.0)
    simulator.partition(lan, srv)
    resolver.rebind(svc, "app", new_dir)
    # Outlive the term inside the partition: expiry + grace serving.
    simulator.run(until=30.0)
    resolver.resolve(client, context, "/svc/app/cfg")
    simulator.heal(lan, srv)
    simulator.run(until=40.0)
    resolver.resolve(client, context, "/svc/app/cfg")
    simulator.run()
    return resolver


class TestLeaseSpans:
    def test_protocol_events_are_traced(self):
        obs = Instrumentation()
        _lease_run(obs)
        names = {span.name for span in obs.tracer.of_kind("lease")}
        assert {"lease.grant", "lease.callback", "lease.ack",
                "lease.revoke", "lease.break", "lease.expire",
                "lease.grace", "lease.grace_enter",
                "lease.grace_exit"} <= names

    def test_counters_cover_the_whole_lifecycle(self):
        obs = Instrumentation()
        _lease_run(obs)
        counters = obs.metrics.snapshot()["counters"]

        def total(name):
            return sum(value for key, value in counters.items()
                       if key.startswith(name))

        assert total("lease_grants_total{") > 0
        assert total("lease_callbacks_total{") > 0
        assert total("lease_callback_acks_total{") == 1
        assert total("lease_breaks_total{") == 1
        assert total("lease_revocations_total{") == 1
        assert total("lease_expirations_total{") > 0
        assert total("lease_grace_served_total{") > 0
        assert total("lease_revalidations_total{") > 0

    def test_counter_labels_use_machine_labels_not_ids(self):
        obs = Instrumentation()
        _lease_run(obs)
        counters = obs.metrics.snapshot()["counters"]
        lease_keys = [key for key in counters
                      if key.startswith("lease_")]
        assert lease_keys
        assert all('machine="client-m"' in key for key in lease_keys
                   if "machine=" in key)

    def test_chrome_trace_round_trips_lease_events(self):
        obs = Instrumentation()
        _lease_run(obs)
        document = to_chrome_trace(obs.tracer.spans)
        lease_events = [event for event in document["traceEvents"]
                        if event.get("cat") == "lease"]
        assert lease_events
        assert all(event["ph"] == "i" for event in lease_events)


class TestLeasesScenarioCli:
    def _run(self, *argv):
        result = subprocess.run(
            [sys.executable, str(CLI), "--scenario", "leases", *argv],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO / "src"),
                 "PATH": "/usr/bin:/bin"},
            cwd=str(REPO))
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_tree_output_shows_lease_counters(self):
        out = self._run()
        assert "lease_grants_total" in out
        assert "lease_breaks_total" in out
        assert "lease_grace_served_total" in out
        assert '"losses": 1' in out

    def test_chrome_trace_carries_the_protocol_arc(self):
        out = self._run("--format", "chrome-trace")
        trace = json.loads(out)
        names = {event.get("name") for event in trace["traceEvents"]
                 if event.get("cat") == "lease"}
        assert {"lease.grant", "lease.break", "lease.expire",
                "lease.grace"} <= names

    @pytest.mark.parametrize("fmt", ["summary", "chrome-trace"])
    def test_exports_repeat_byte_for_byte_across_processes(self, fmt):
        # Lease events print their dependency keys; a key built from
        # id(context) differed in every fresh process.
        assert self._run("--format", fmt) == self._run("--format", fmt)

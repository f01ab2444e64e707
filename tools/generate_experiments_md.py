#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a live run of the experiment suite.

Usage:  python tools/generate_experiments_md.py > EXPERIMENTS.md
"""

from __future__ import annotations

import sys

from repro.bench import ALL_EXPERIMENTS

PAPER_ANCHORS = {
    "E1": ("Figure 1 + §3", "The three sources of names — internal, "
           "message, object — all occur and are handled by a "
           "per-source rule table."),
    "E2": ("Figure 2a + §4", "Exchanged names: R(sender) gives "
           "coherence for all names sent; R(receiver) only for global "
           "names."),
    "E3": ("Figure 2b + §4", "Embedded names: R(object) gives "
           "coherence among all activities; R(activity) only for "
           "global names."),
    "E4": ("§5.1 Unix", "Coherence for '/' names among same-root "
           "processes; fork children coherent for all names until a "
           "context change; chroot breaks coherence."),
    "E5": ("Figure 3 + §5.1", "Newcastle: same-machine coherence only; "
           "a shared tree does not imply global names; the ../machine "
           "mapping rule; the two remote-exec root policies."),
    "E6": ("Figure 4 + §5.2", "Andrew: /vice names coherent "
           "everywhere, local names per client, /bin weakly coherent, "
           "only shared-graph entities passable as arguments."),
    "E7": ("§5.2 DCE", "/... names global; /.: cell-relative names "
           "coherent only within a cell."),
    "E8": ("Figure 5 + §5.3", "Cross-links give access, not "
           "coherence; global names only by prefix coincidence."),
    "E9": ("§6-I Ex.1", "Partially qualified pids with R(sender) "
           "mapping: coherent exchange; internal connections survive "
           "machine/network renumbering; fully qualified pids break."),
    "E10": ("Figure 6 + §6-I Ex.2", "Algol-scoped embedded names: "
            "same meaning for every reader; invariant under "
            "relocation, copying, simultaneous attachment, and "
            "combination."),
    "E11": ("§6-II", "Per-process namespaces: remote children import "
            "the parent's context — parameter coherence without "
            "global names, plus local access."),
    "E12": ("§7", "Shared name spaces in limited scopes; human prefix "
            "mapping at boundaries; §6 solutions cover exchanged and "
            "embedded names across scopes."),
    "A1": ("§4 (ablation)", "The full rule × source grid matches each "
           "rule's predicted coherence class."),
    "A2": ("§5 (ablation)", "Scheme ordering by degree of coherence: "
           "single tree ≥ shared graph ≥ per-machine-root designs."),
    "A3": ("§6 (ablation)", "R(sender) 'implemented by mapping': "
           "boundary gateways turn incoherent cross-boundary exchange "
           "into fully coherent exchange."),
    "A4": ("§5 (ablation, extension)", "The coherence/coupling "
           "trade-off: the single tree pays remote traffic and "
           "central load for its coherence; loosely-coupled designs "
           "serve local names for free."),
    "A5": ("extension (modern relevance)", "Cached bindings: "
           "staleness IS incoherence; no-cache never stale but "
           "expensive, TTL cheap but stale in windows, invalidation "
           "cheap and never stale at the cost of protocol messages."),
    "A6": ("§7 (ablation)", "'Enlarging the scope may be necessary': "
           "one merged scope removes both the mapping burden and the "
           "R(receiver) incoherence the federated configuration "
           "suffers."),
    "A7": ("extension (modern relevance)", "Amortized resolution: "
           "prefix caching and batched resolution pay the shared walk "
           "once, preserving semantics in every style × policy cell "
           "(rebinds included)."),
    "A8": ("§3 weak coherence (extension)", "Availability under "
           "faults: replicated directories with retry/backoff and "
           "failover keep names resolving through crashes and flaky "
           "links, and policy-gated stale reads answer through "
           "partitions — always tagged weakly coherent, never "
           "silently passed off as coherent."),
    "A9": ("§3 coherence (extension)", "Leases bound staleness: a "
           "lost invalidation callback leaves a stale copy forever, "
           "but a lease is a promise with an expiry — even when the "
           "break callback is lost in a partition the holder is stale "
           "for at most one lease term plus one delivery delay, and "
           "grace-mode answers from expired leases are always tagged "
           "weakly coherent."),
    "A10": ("§5 resolution cost (extension)", "Sharding keeps the hot "
            "directory's p99 flat: a Zipf workload over a sharded "
            "namespace saturates a single placement (p99 grows "
            "superlinearly across run quarters) while live "
            "load-driven shard splits hold steady-state p99 near the "
            "idle baseline, migrating bindings as simulated messages "
            "with exactly-one-owner preserved across every split."),
    "A11": ("§3 weak coherence (extension)", "Replicated shards keep "
            "every hash range available through shard-server crashes: "
            "under an identical scripted crash/restart timeline, "
            "degree-2 shards hold availability ≈ 1.0 via per-shard "
            "failover and heal missed writes by anti-entropy on "
            "restart, while single-owner shards lose the dead range's "
            "lookups for the length of each crash window and are left "
            "with a permanently dark (stale, sourceless) range — all "
            "without a single coherence violation in either run."),
}


def main() -> None:
    out = sys.stdout
    out.write(
        "# EXPERIMENTS — paper claims vs. measured outcomes\n\n"
        "Regenerate this file with "
        "`python tools/generate_experiments_md.py > EXPERIMENTS.md`.\n"
        "Each experiment is also a benchmark "
        "(`pytest benchmarks/bench_experiments.py --benchmark-only "
        "-k <id>`)\nand a test "
        "(`pytest tests/bench/test_experiments.py`).  The paper "
        "reports no absolute numbers —\nits evaluation is the "
        "qualitative analysis of sections 4–7 — so \"reproduced\" "
        "means the\nmeasured table satisfies every claim-derived "
        "shape check.\n\n"
        "Seed: 0 (all experiments are deterministic given the seed; "
        "the claim checks also pass\nfor seeds 1, 7 and 42 — see "
        "`tests/bench/test_experiments.py`).\n\n")
    summary_rows = []
    sections = []
    for exp_id, runner in ALL_EXPERIMENTS.items():
        result = runner(seed=0)
        anchor, claim = PAPER_ANCHORS[exp_id]
        status = "reproduced" if result.all_checks_pass() else "MISMATCH"
        summary_rows.append((exp_id, anchor, status,
                             f"{sum(result.checks.values())}/"
                             f"{len(result.checks)}"))
        lines = [f"## {exp_id} — {result.title}", "",
                 f"*Paper anchor*: {anchor}", "",
                 f"*Paper claim*: {claim}", "", "```text",
                 result.render(), "```", ""]
        sections.append("\n".join(lines))

    out.write("| id | paper anchor | status | checks |\n")
    out.write("|----|--------------|--------|--------|\n")
    for exp_id, anchor, status, checks in summary_rows:
        out.write(f"| {exp_id} | {anchor} | {status} | {checks} |\n")
    out.write("\n")
    out.write("\n".join(sections))


if __name__ == "__main__":
    main()

"""Workload generators, organization builders, packaged scenarios."""

from repro.workloads.generators import (
    EmbeddedUse,
    embedded_events,
    exchange_events,
    internal_events,
    mixed_workload,
)
from repro.workloads.organizations import (
    BuiltOrg,
    OrgSpec,
    build_campus,
    build_federation,
)
from repro.workloads.shell import ShellResult, UserShell
from repro.workloads.scenarios import (
    PqidPopulation,
    RuleScenario,
    build_pqid_population,
    build_rule_scenario,
)
from repro.workloads.zipf import (
    ZipfNamespace,
    ZipfSampler,
    build_zipf_namespace,
)

__all__ = [
    "BuiltOrg",
    "EmbeddedUse",
    "OrgSpec",
    "PqidPopulation",
    "RuleScenario",
    "ShellResult",
    "UserShell",
    "ZipfNamespace",
    "ZipfSampler",
    "build_campus",
    "build_federation",
    "build_pqid_population",
    "build_rule_scenario",
    "build_zipf_namespace",
    "embedded_events",
    "exchange_events",
    "internal_events",
    "mixed_workload",
]

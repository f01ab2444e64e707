"""Distributed name service: placed directories, measured resolution.

Extends the formal model with the operational layer a distributed
environment adds — directories hosted on machines, resolution traffic
through the simulator — so the *cost* of each section-5 design is
measurable alongside its coherence (experiment A4).  A fault-tolerance
layer (replicated placement, retry/backoff with circuit breakers,
failover, policy-gated weak-coherence stale reads) keeps names
resolving across crashes and partitions (experiment A8), and a lease
subsystem (server-granted promises with expiry, callback breaking,
grace mode) bounds cache staleness even when callbacks are lost
(experiment A9).  Every resolution is one walk (:mod:`repro.
nameservice.walk`), pumped on the kernel by the resolver and driven
by messages in the async protocol, and every binding write takes one
path — commit, replicate, then invalidate or break leases
(:mod:`repro.nameservice.writes`).  Hot directories can be *sharded* —
bindings split across shard servers by consistent hashing, with live
load-driven splits migrating bindings as simulated messages
(experiment A10).
"""

from repro.nameservice.cache import (
    CachePolicy,
    PrefixCache,
    PrefixEntry,
)
from repro.nameservice.leases import (
    FanoutReport,
    Lease,
    LeaseManager,
    LeaseState,
    LeaseTable,
    callback_fanout,
    fanout_effects,
)
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import (
    AsyncNameClient,
    LookupOutcome,
    NameLookupServer,
)
from repro.nameservice.resolver import DistributedResolver, ResolutionStyle
from repro.nameservice.retry import (
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.nameservice.sharding import (
    Shard,
    ShardManager,
    ShardMap,
    SplitPlan,
    binding_hash,
)
from repro.nameservice.walk import (Ask, ResolutionCost, retry_effects,
                                    walk_effects)
from repro.nameservice.writes import WritePath, commit_binding

__all__ = [
    "Ask",
    "AsyncNameClient",
    "BreakerState",
    "CachePolicy",
    "CircuitBreaker",
    "DirectoryPlacement",
    "DistributedResolver",
    "FanoutReport",
    "Lease",
    "LeaseManager",
    "LeaseState",
    "LeaseTable",
    "LookupOutcome",
    "NameLookupServer",
    "PrefixCache",
    "PrefixEntry",
    "ResolutionCost",
    "ResolutionStyle",
    "RetryPolicy",
    "Shard",
    "ShardManager",
    "ShardMap",
    "SplitPlan",
    "WritePath",
    "binding_hash",
    "callback_fanout",
    "commit_binding",
    "fanout_effects",
    "retry_effects",
    "walk_effects",
]

"""Open-loop Zipf-skewed workloads at "millions of users" scale.

The sharding experiment (A10) needs the workload the ROADMAP's north
star describes: a directory of ≥10^6 names, hammered by ≥10^5
resolutions whose popularity follows a Zipf law — the skew that makes
one server saturate while the aggregate would fit comfortably on a
handful.  Everything here is seeded and allocation-conscious:

* :class:`ZipfSampler` — ranks drawn from a Zipf(s) distribution over
  ``count`` items via a precomputed cumulative table + bisect (no
  numpy; rejection-free; deterministic per ``random.Random`` seed);
* :func:`build_zipf_namespace` — a flat hot directory of ``count``
  bindings built by direct context binds (no per-name tree walk).
  Only the ``distinct`` hottest ranks get their own leaf entity;
  colder ranks share one filler object, keeping a million-binding
  directory in tens of MB — the experiment measures routing and load,
  which depend on *bindings*, not on leaf identity;
* :func:`open_loop_arrivals` — arrival timestamps decoupled from
  service completions (the defining property of an open-loop load:
  clients do not wait for answer ``i`` before issuing ``i+1``, so a
  saturated server builds queue, it doesn't throttle the offered
  rate).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.model.context import Context
from repro.model.entities import ObjectEntity
from repro.namespaces.tree import NamingTree

__all__ = ["ZipfSampler", "ZipfNamespace", "build_zipf_namespace",
           "open_loop_arrivals"]


class ZipfSampler:
    """Seeded Zipf(s) rank sampler over ``{0, …, count-1}``.

    Rank *r* (0-based) is drawn with probability proportional to
    ``1/(r+1)**skew``.  The cumulative weight table costs O(count)
    once; each draw is one RNG float plus a bisect — fast enough for
    10^5+ draws over 10^6 ranks.
    """

    def __init__(self, count: int, skew: float = 1.0,
                 rng: Optional[random.Random] = None):
        if count < 1:
            raise SimulationError("ZipfSampler needs count >= 1")
        if skew < 0:
            raise SimulationError("ZipfSampler needs skew >= 0")
        self.count = count
        self.skew = skew
        self._rng = rng if rng is not None else random.Random(0)
        cumulative = []
        total = 0.0
        for rank in range(count):
            total += (rank + 1.0) ** -skew
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self) -> int:
        """One rank draw (0 = hottest)."""
        return bisect_left(self._cumulative,
                           self._rng.random() * self._total)

    def sample_many(self, draws: int) -> list[int]:
        """*draws* rank draws, in draw order."""
        rand = self._rng.random
        total = self._total
        cumulative = self._cumulative
        return [bisect_left(cumulative, rand() * total)
                for _ in range(draws)]

    def head_share(self, head: int) -> float:
        """Probability mass of the *head* hottest ranks (how skewed
        the workload is — reported by A10's notes)."""
        head = min(head, self.count)
        if head <= 0:
            return 0.0
        return self._cumulative[head - 1] / self._total


@dataclass
class ZipfNamespace:
    """A built hot directory plus the vocabulary to sample from."""

    tree: NamingTree
    directory: ObjectEntity       #: the flat hot directory
    path: tuple[str, ...]         #: path of *directory* in *tree*
    names: list[str]              #: binding names, index == Zipf rank
    shared_leaf: ObjectEntity     #: filler entity bound past `distinct`


def build_zipf_namespace(tree: NamingTree, path: str = "hot",
                         count: int = 1_000_000,
                         prefix: str = "u",
                         distinct: int = 4096) -> ZipfNamespace:
    """Populate ``tree/path`` with *count* bindings, rank-ordered.

    Bindings are written straight into the directory's context (one
    dict insert each) rather than through ``tree.mkfile`` — a
    million-name build must not pay a path resolution per name.  Leaf
    entities beyond the *distinct* hottest ranks share one filler
    object and skip σ registration; the experiment's subject is the
    *bindings* (what shards, migrates and routes), so cold leaves
    carrying identity would only burn memory.
    """
    if count < 1:
        raise SimulationError("build_zipf_namespace needs count >= 1")
    directory = tree.mkdir(path)
    context: Context = directory.state
    bindings = context.bindings
    names: list[str] = []
    shared = ObjectEntity(f"{prefix}-cold")
    append = names.append
    for rank in range(count):
        name_ = f"{prefix}{rank}"
        append(name_)
        if name_ in bindings:
            raise SimulationError(
                f"{name_!r} is already bound in {path!r}")
        leaf = (ObjectEntity(name_) if rank < distinct else shared)
        context.bind(name_, leaf)
    return ZipfNamespace(
        tree=tree, directory=directory,
        path=tuple(p for p in path.split("/") if p),
        names=names, shared_leaf=shared)


def open_loop_arrivals(count: int, rate: float,
                       start: float = 0.0) -> list[float]:
    """Deterministic open-loop arrival instants: request *i* arrives
    at ``start + i/rate``, regardless of how the service keeps up.

    Uniform spacing (not Poisson) is intentional: the experiment's
    comparisons hinge on *offered rate vs service rate*, and a
    deterministic arrival overlay keeps the latency distribution a
    pure function of the seed-determined sample sequence.
    """
    if count < 0:
        raise SimulationError("open_loop_arrivals needs count >= 0")
    if rate <= 0:
        raise SimulationError("open_loop_arrivals needs rate > 0")
    step = 1.0 / rate
    return [start + index * step for index in range(count)]

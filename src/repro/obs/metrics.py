"""Metrics: counters, gauges and bounded histograms (extension).

A :class:`MetricsRegistry` is the numeric half of the observability
layer (`repro.obs`): components publish named instruments into it —
message counts, cache hit/miss tallies, per-server load, resolution
latency distributions — and exporters read one consistent
:meth:`MetricsRegistry.snapshot` out.

Instruments are *labelled* (Prometheus-style): the same metric name
with different label sets yields independent time series, so e.g.
``resolver_server_load_total{server="dirserver@b-m"}`` and the same
counter for another server never collide.  Histograms are **bounded**:
fixed bucket boundaries and running aggregates only, never a growing
sample list — safe for benchmark runs of any length.

Everything here is pure bookkeeping over the *virtual* clock; nothing
imports the simulator, so the package stays a dependency leaf that
``repro.sim`` and ``repro.nameservice`` can hook into freely.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Optional

__all__ = ["Counter", "Family", "Gauge", "Histogram", "MetricsRegistry",
           "LabelSet"]

#: A frozen, order-normalised label set (how series are keyed).
LabelSet = tuple[tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count (events, messages, steps)."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be nonnegative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (queue depth, cache size)."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0
    #: High-water mark since creation (or the last explicit reset).
    high_water: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)
        if self.value > self.high_water:
            self.high_water = self.value


#: Default histogram bucket upper bounds, in virtual time units or
#: counts — a rough log scale wide enough for both latencies and
#: messages-per-resolution.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                   500.0, 1000.0)


@dataclass
class Histogram:
    """A bounded histogram: fixed buckets plus running aggregates.

    Only ``len(buckets) + 1`` bucket counters and five scalars are
    kept, regardless of how many observations arrive — the bounded
    counterpart of keeping every sample.
    """

    name: str
    labels: LabelSet = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        if not self.bucket_counts:
            # One count per bound plus the +Inf overflow bucket.
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ending
        with the ``+Inf`` bucket."""
        out = []
        running = 0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class Family:
    """Every series of one labelled metric, addressed by label
    *values* — the handle an emitter keeps so its hot path never
    rebuilds a label set.

    ``family.labels("dirserver@a")`` is one dict probe on the value
    tuple; only the first sight of a value combination goes through
    the registry's get-or-create (so a series still appears exactly
    when it is first emitted into, and snapshots keep their order).
    Values are the label strings themselves, in the order the label
    names were declared.

    >>> registry = MetricsRegistry()
    >>> load = registry.counter_family("load_total", "server")
    >>> load.labels("a").inc()
    >>> registry.value_of("load_total", {"server": "a"})
    1.0
    """

    __slots__ = ("_create", "_names", "_bound")

    def __init__(self, create: Callable[[dict], Any],
                 label_names: tuple[str, ...]):
        self._create = create
        self._names = label_names
        self._bound: dict[tuple, Any] = {}

    def labels(self, *values: str) -> Any:
        """The instrument for this combination of label values."""
        instrument = self._bound.get(values)
        if instrument is None:
            if len(values) != len(self._names):
                raise ValueError(
                    f"expected values for {self._names}, got {values}")
            instrument = self._bound[values] = self._create(
                dict(zip(self._names, values)))
        return instrument


class MetricsRegistry:
    """A namespace of labelled instruments, get-or-create style.

    >>> registry = MetricsRegistry()
    >>> registry.counter("messages_total").inc()
    >>> registry.counter("messages_total").value
    1.0
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelSet], Counter] = {}
        self._gauges: dict[tuple[str, LabelSet], Gauge] = {}
        self._histograms: dict[tuple[str, LabelSet], Histogram] = {}

    # -- get-or-create -----------------------------------------------------

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _freeze_labels(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(name, key[1])
            self._counters[key] = instrument
        return instrument

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _freeze_labels(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge(name, key[1])
            self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _freeze_labels(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(
                name, key[1],
                buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS)
            self._histograms[key] = instrument
        return instrument

    # -- bound handles ----------------------------------------------------

    def counter_family(self, name: str, *label_names: str) -> Family:
        """A :class:`Family` over the counter *name*'s series."""
        return Family(partial(self.counter, name), label_names)

    def histogram_family(self, name: str, *label_names: str,
                         buckets: Optional[Iterable[float]] = None,
                         ) -> Family:
        """A :class:`Family` over the histogram *name*'s series."""
        return Family(
            partial(self.histogram, name,
                    buckets=tuple(buckets) if buckets else None),
            label_names)

    # -- reading -----------------------------------------------------------

    def counters(self) -> list[Counter]:
        return list(self._counters.values())

    def gauges(self) -> list[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> list[Histogram]:
        return list(self._histograms.values())

    def value_of(self, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> float:
        """The current value of a counter or gauge (0.0 if absent)."""
        key = (name, _freeze_labels(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0.0

    def total_of(self, name: str) -> float:
        """The summed value of every series of a counter family."""
        return sum(c.value for c in self._counters.values()
                   if c.name == name)

    def snapshot(self) -> dict:
        """A JSON-serialisable dump of every instrument.

        Series keys render labels Prometheus-style
        (``name{k="v",...}``) so snapshots diff cleanly run-to-run.
        """
        def series_key(name: str, labels: LabelSet) -> str:
            if not labels:
                return name
            inner = ",".join(f'{k}="{v}"' for k, v in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {series_key(c.name, c.labels): c.value
                         for c in self._counters.values()},
            "gauges": {series_key(g.name, g.labels):
                       {"value": g.value, "high_water": g.high_water}
                       for g in self._gauges.values()},
            "histograms": {
                series_key(h.name, h.labels): {
                    "count": h.count,
                    "sum": h.total,
                    "mean": h.mean,
                    "min": h.min_value if h.count else None,
                    "max": h.max_value if h.count else None,
                    "buckets": [[bound, count] for bound, count
                                in h.cumulative()
                                if bound != float("inf")],
                    "inf_count": h.cumulative()[-1][1],
                }
                for h in self._histograms.values()},
        }

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

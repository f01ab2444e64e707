"""Service-level objectives over audited resolutions (extension).

An :class:`SLObjective` declares what "good" means for one aspect of
the naming service — a staleness ceiling, a latency ceiling, or simply
"no contract violations" — together with the fraction of observations
that must be good (``target``).  The :class:`SLOTracker` scores every
audited resolution against each declared objective, keeps good/burn
tallies, and exports them as ``slo_events_total{slo=...,outcome=...}``
counters through the ordinary metrics registry, so the existing
Prometheus/JSON exporters carry SLO burn rates with no new plumbing.

A *burn* is one observation that misses an objective.  The
:class:`~repro.obs.audit.CoherenceAuditor` forwards each burn to its
flight recorder, so the window around any burn is preserved even when
span sampling is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["SLObjective", "SLOTracker"]


@dataclass(frozen=True)
class SLObjective:
    """One declared objective.

    Any ``None`` ceiling is not checked; an objective with only
    ``violation_free`` set scores the auditor's verdict alone.

    Args:
        name: Label carried on the exported counters.
        max_staleness: Good answers measure at most this stale.
        max_latency: Good answers cost at most this much virtual
            time.
        violation_free: Good answers are not contract violations.
        target: Required good fraction (``0.999`` → "three nines").
    """

    name: str
    max_staleness: Optional[float] = None
    max_latency: Optional[float] = None
    violation_free: bool = True
    target: float = 1.0

    def good(self, staleness: float, latency: float,
             violation: bool) -> bool:
        if self.violation_free and violation:
            return False
        if (self.max_staleness is not None
                and staleness > self.max_staleness):
            return False
        if self.max_latency is not None and latency > self.max_latency:
            return False
        return True


class SLOTracker:
    """Scores observations against declared objectives.

    Args:
        objectives: The declared :class:`SLObjective` set.
        metrics: Optional
            :class:`~repro.obs.metrics.MetricsRegistry` receiving
            ``slo_events_total`` counters (omitted → tallies only).
    """

    def __init__(self, objectives: list[SLObjective],
                 metrics: Any = None):
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.objectives = list(objectives)
        self.metrics = metrics
        self._m_events = (
            metrics.counter_family("slo_events_total",
                                   "slo", "policy", "outcome")
            if metrics is not None else None)
        self.events: dict[str, int] = {n: 0 for n in names}
        self.burns: dict[str, int] = {n: 0 for n in names}

    def observe(self, *, staleness: float, latency: float = 0.0,
                violation: bool = False,
                policy: str = "-") -> list[str]:
        """Score one observation; returns the names of the objectives
        it burned."""
        burned: list[str] = []
        events = self._m_events
        for objective in self.objectives:
            name = objective.name
            self.events[name] += 1
            good = objective.good(staleness, latency, violation)
            if not good:
                self.burns[name] += 1
                burned.append(name)
            if events is not None:
                events.labels(name, policy,
                              "good" if good else "burn").inc()
        return burned

    def burn_fraction(self, name: str) -> float:
        """Burned fraction of the observations scored so far."""
        events = self.events[name]
        return (self.burns[name] / events) if events else 0.0

    def met(self, name: str) -> bool:
        """Whether the objective currently holds (burn fraction within
        the error budget ``1 - target``)."""
        objective = next(o for o in self.objectives if o.name == name)
        return self.burn_fraction(name) <= (1.0 - objective.target)

    def status(self) -> dict:
        """Per-objective state as a JSON-safe dict."""
        return {
            objective.name: {
                "events": self.events[objective.name],
                "burns": self.burns[objective.name],
                "burn_fraction": round(
                    self.burn_fraction(objective.name), 6),
                "target": objective.target,
                "met": self.met(objective.name),
            }
            for objective in self.objectives
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{self.burns[name]}/{self.events[name]}"
            for name in self.events)
        return f"<SLOTracker {parts}>"

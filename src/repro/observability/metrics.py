"""Counters, gauges and histograms for framework events.

The paper characterizes the framework by *counting* — kernel launches
(the launch-overhead story), ghost bytes (Section II-D), remesh events,
buffer-cache rebuilds — so the registry mirrors the three classic
metric kinds:

* counters — monotonically accumulated totals (``count``),
* gauges   — last-set level, merged by ``max`` (peak semantics), and
* histograms — fixed-bucket distributions (``observe``).

``end_cycle`` appends a cumulative counter snapshot, giving per-cycle
series without per-event retention.  ``merge`` folds another registry
in and is associative and commutative (counters add, gauges max,
histogram buckets add) — a hypothesis test pins this — so campaign
aggregation order can never change a reported total.  Everything in
``to_dict`` is deterministic: sorted keys, simulated quantities only.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

#: Power-of-ten sub-decade bucket upper bounds, wide enough for both
#: byte counts and (sub)second durations.
DEFAULT_BOUNDS: Sequence[float] = tuple(
    m * 10.0 ** e for e in range(-9, 10) for m in (1.0, 2.0, 5.0)
)


class Histogram:
    """Fixed-bucket histogram with exact sum/min/max sidecars."""

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: List[float] = list(bounds)
        if self.bounds != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        #: counts[i] counts observations <= bounds[i]; the final slot is
        #: the overflow bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one bisect).

        The sum grows by ``value * count``, exact for integer values (the
        byte sizes observed here) while the sum stays below 2**53.
        """
        if count <= 0:
            return
        self.counts[bisect.bisect_left(self.bounds, value)] += count
        self.count += count
        self.sum += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum
        for attr, pick in (("min", min), ("max", max)):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is not None:
                setattr(
                    self, attr, theirs if mine is None else pick(mine, theirs)
                )

    def to_dict(self) -> dict:
        """Sparse bucket map (only non-zero buckets) plus the sidecars."""
        buckets = {}
        for i, n in enumerate(self.counts):
            if n:
                key = "+inf" if i == len(self.bounds) else repr(self.bounds[i])
                buckets[key] = n
        return {
            "buckets": buckets,
            "count": self.count,
            "max": self.max,
            "min": self.min,
            "sum": self.sum,
        }


class MetricsRegistry:
    """One run's (or one campaign's) named metrics."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Cumulative counter values at each cycle boundary.
        self.cycle_snapshots: List[dict] = []

    # ----------------------------------------------------------- feeding

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_BOUNDS,
        count: int = 1,
    ) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        hist.observe(value, count)

    def end_cycle(self, cycle: int) -> None:
        self.cycle_snapshots.append(
            {"cycle": cycle, "counters": dict(sorted(self.counters.items()))}
        )

    def clear(self) -> None:
        """Zero everything in place (identity-preserving, like the
        driver's warmup reset — holders of this registry stay wired)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.cycle_snapshots.clear()

    # ----------------------------------------------------------- merging

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in: counters add, gauges max, histograms add.

        Associative and commutative, so campaign-level aggregation is
        independent of point completion order.  Per-cycle snapshots are
        a *sequence*, not a set, and are deliberately not merged.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            mine = self.gauges.get(name)
            self.gauges[name] = value if mine is None else max(mine, value)
        for name, hist in other.histograms.items():
            if name in self.histograms:
                self.histograms[name].merge(hist)
            else:
                clone = Histogram(hist.bounds)
                clone.merge(hist)
                self.histograms[name] = clone

    # ------------------------------------------------------------ export

    def to_dict(self, per_cycle: bool = True) -> dict:
        doc = {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }
        if per_cycle:
            doc["per_cycle"] = list(self.cycle_snapshots)
        return doc

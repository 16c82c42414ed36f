"""Metrics registry: the serve daemon's counters, gauges and histograms.

A :class:`MetricsRegistry` is process-local; its
:meth:`~MetricsRegistry.snapshot` is a plain JSON-safe dict that
:func:`~repro.obs.export.snapshot_to_prom` renders for ``GET /metrics``.
Metric names are dotted paths, e.g. ``serve.jobs_submitted``.

A rank keeps no registry: its collective calls and bytes per Table-I
tag are counted by the communicator (``Comm.bytes_by_tag`` /
``calls_by_tag``), and a traced rank's spans and instants are its only
other record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BOUNDS",
]

#: Default latency bucket edges (seconds) for service-level histograms
#: (queue wait, scheduling latency, run duration).  Spans five orders of
#: magnitude: sub-tick scheduling up to multi-minute runs; anything
#: longer lands in the implicit ``+Inf`` overflow.
DEFAULT_TIME_BOUNDS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0,
)


@dataclass
class Counter:
    """Monotonically increasing count (jobs submitted, rejected, ...)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value (queue depth, busy ranks)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Streaming summary of an observed distribution (no raw samples).

    With ``bounds`` (sorted upper edges), per-bucket counts are kept as
    well — values above the last edge land in the implicit ``+Inf``
    overflow tracked by ``count`` itself.  Bucketless histograms stay
    summary-only and their dict form is unchanged (no ``buckets`` key),
    so existing bench records and dashboards keep parsing.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    bounds: tuple[float, ...] = ()
    bucket_counts: dict[float, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bounds = tuple(sorted(float(b) for b in self.bounds))
        if self.bounds and not self.bucket_counts:
            self.bucket_counts = {b: 0 for b in self.bounds}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for bound in self.bounds:
            if value <= bound:
                self.bucket_counts[bound] += 1
                break

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        if not self.count:
            out: dict[str, Any] = {"count": 0, "total": 0.0, "min": 0.0,
                                   "max": 0.0, "mean": 0.0}
        else:
            out = {"count": self.count, "total": self.total,
                   "min": self.min, "max": self.max, "mean": self.mean}
        if self.bounds:
            out["buckets"] = {repr(b): self.bucket_counts[b]
                              for b in self.bounds}
        return out


@dataclass
class MetricsRegistry:
    """Name → metric store; metrics are created on first use."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            metric = self.counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            metric = self.gauges[name] = Gauge()
            return metric

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = ()) -> Histogram:
        """Get or create; ``bounds`` only applies on first creation."""
        try:
            return self.histograms[name]
        except KeyError:
            metric = self.histograms[name] = Histogram(bounds=bounds)
            return metric

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe copy of every metric's current value."""
        return {
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: v.to_dict() for k, v in sorted(self.histograms.items())
            },
        }

"""Service-level analytics from registry manifests alone.

Every job's manifest carries the queue stamps the daemon wrote
(``submitted_s/ns``, ``granted_s/ns``, ``launched_s/ns``,
``finished_s/ns``); :func:`collect_job_stats` reads them back, and both
``repro slo`` (:func:`compute_slo`: percentiles, utilization, per-tenant
fairness) and the daemon's ``GET /metrics`` (:func:`render_prom`, at
scrape time, so its counts survive a daemon restart) derive from that
one pass.

Monotonic ``*_ns`` stamps are preferred for intervals (they share the
per-rank tracers' timebase and never jump); wall ``*_s`` stamps anchor
the report's window and are the fallback for manifests predating the
ns stamps.  Percentiles are nearest-rank — deterministic, exact on
small samples, and reproducible across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.registry import TERMINAL_STATUSES, RunRegistry

__all__ = [
    "JobStats",
    "SloReport",
    "TIME_BOUNDS",
    "collect_job_stats",
    "compute_slo",
    "percentile",
    "render_prom",
    "write_report",
]

#: Upper bucket edges (seconds) of the ``/metrics`` latency histograms
#: (queue wait, scheduling latency, run duration): sub-tick scheduling
#: up to multi-minute runs; anything longer lands in ``le="+Inf"``.
TIME_BOUNDS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0,
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Deterministic and exact for small samples: the returned value is
    always one of the inputs.  Empty input returns 0.0.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def _interval(queue: dict[str, Any], start: str, end: str) -> float | None:
    """Seconds between two queue stamps, ns-first with wall fallback."""
    t0_ns, t1_ns = queue.get(f"{start}_ns"), queue.get(f"{end}_ns")
    if t0_ns is not None and t1_ns is not None:
        return max(0.0, (int(t1_ns) - int(t0_ns)) / 1e9)
    t0_s, t1_s = queue.get(f"{start}_s"), queue.get(f"{end}_s")
    if t0_s is not None and t1_s is not None:
        return max(0.0, float(t1_s) - float(t0_s))
    return None


@dataclass(frozen=True)
class JobStats:
    """One job's lifecycle intervals as read back from its manifest."""

    job_id: str
    tenant: str
    status: str
    ranks: int
    submitted_s: float | None = None
    finished_s: float | None = None
    queue_wait_s: float | None = None    # submit -> grant
    sched_latency_s: float | None = None  # grant -> launch
    run_s: float | None = None           # launch -> reap
    turnaround_s: float | None = None    # submit -> reap
    pool_ranks: int | None = None
    #: Cancelled while still queued — never granted ranks.
    abandoned: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {k: v for k, v in sorted(self.__dict__.items())
                if v is not None}


def collect_job_stats(root: str | Path | None = None) -> list[JobStats]:
    """Every job's :class:`JobStats` under a registry root, oldest first."""
    registry = RunRegistry(root)
    out = []
    for manifest in registry.list_runs():
        if manifest.get("job") is None:
            continue
        queue = manifest.get("queue") or {}
        status = str(manifest.get("status") or "unknown")
        granted = ("granted_ranks" in queue or "granted_s" in queue
                   or "granted_ns" in queue)
        out.append(JobStats(
            job_id=str(manifest.get("run_id")),
            tenant=str(queue.get("tenant", "default")),
            status=status,
            ranks=int(queue.get("granted_ranks", queue.get("ranks", 1))),
            submitted_s=queue.get("submitted_s"),
            finished_s=queue.get("finished_s"),
            queue_wait_s=_interval(queue, "submitted", "granted"),
            sched_latency_s=_interval(queue, "granted", "launched"),
            run_s=_interval(queue, "launched", "finished"),
            turnaround_s=_interval(queue, "submitted", "finished"),
            pool_ranks=queue.get("pool_ranks"),
            abandoned=(status == "cancelled" and not granted),
        ))
    return out


def _dist(values: list[float]) -> dict[str, float]:
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "p99": percentile(values, 99.0),
        "max": max(values),
    }


@dataclass(frozen=True)
class SloReport:
    """Service-level summary over one registry root's job history."""

    jobs_total: int
    by_status: dict[str, int]
    queue_wait: dict[str, float]
    sched_latency: dict[str, float]
    run_duration: dict[str, float]
    turnaround: dict[str, float]
    #: rank-seconds delivered / (pool_ranks × observed window)
    utilization: float | None
    window_s: float | None
    pool_ranks: int | None
    #: tenant -> {jobs, rank_s, rank_s_share, queue_wait_p50} — the
    #: fairness view: is any tenant hogging the pool or starving?
    tenants: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Jobs cancelled before ever being granted ranks.
    abandoned: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "jobs_total": self.jobs_total,
            "by_status": dict(sorted(self.by_status.items())),
            "queue_wait_s": self.queue_wait,
            "sched_latency_s": self.sched_latency,
            "run_duration_s": self.run_duration,
            "turnaround_s": self.turnaround,
            "utilization": self.utilization,
            "window_s": self.window_s,
            "pool_ranks": self.pool_ranks,
            "tenants": {t: dict(sorted(v.items()))
                        for t, v in sorted(self.tenants.items())},
            "abandoned": self.abandoned,
        }

    def format_markdown(self) -> str:
        lines = ["# Service-level report", ""]
        statuses = ", ".join(f"{k} {v}"
                             for k, v in sorted(self.by_status.items()))
        lines.append(f"- jobs: **{self.jobs_total}** "
                     f"({statuses or 'none'})")
        if self.abandoned:
            lines.append(f"- abandoned before grant: {self.abandoned}")
        if self.utilization is not None:
            lines.append(f"- pool utilization: {self.utilization:.1%} "
                         f"({self.pool_ranks} rank(s) over "
                         f"{self.window_s:.1f}s window)")
        lines.append("")
        lines.append("| interval | count | mean | p50 | p90 | p99 | max |")
        lines.append("|---|---|---|---|---|---|---|")
        for name, dist in (("queue wait", self.queue_wait),
                           ("sched latency", self.sched_latency),
                           ("run duration", self.run_duration),
                           ("turnaround", self.turnaround)):
            if dist.get("count"):
                lines.append(
                    f"| {name} | {dist['count']:.0f} "
                    f"| {dist['mean']:.3f}s | {dist['p50']:.3f}s "
                    f"| {dist['p90']:.3f}s | {dist['p99']:.3f}s "
                    f"| {dist['max']:.3f}s |")
            else:
                lines.append(f"| {name} | 0 | - | - | - | - | - |")
        if self.tenants:
            lines.append("")
            lines.append("| tenant | jobs | rank·s | share "
                         "| queue wait p50 |")
            lines.append("|---|---|---|---|---|")
            for tenant in sorted(self.tenants):
                row = self.tenants[tenant]
                lines.append(
                    f"| {tenant} | {row['jobs']:.0f} "
                    f"| {row['rank_s']:.2f} | {row['rank_s_share']:.1%} "
                    f"| {row['queue_wait_p50']:.3f}s |")
        return "\n".join(lines) + "\n"


def compute_slo(stats: list[JobStats]) -> SloReport:
    """Aggregate per-job lifecycle stats into one :class:`SloReport`."""
    by_status: dict[str, int] = {}
    for s in stats:
        by_status[s.status] = by_status.get(s.status, 0) + 1
    waits = [s.queue_wait_s for s in stats if s.queue_wait_s is not None]
    lat = [s.sched_latency_s for s in stats
           if s.sched_latency_s is not None]
    runs = [s.run_s for s in stats if s.run_s is not None]
    turns = [s.turnaround_s for s in stats if s.turnaround_s is not None]

    pool_ranks = max((s.pool_ranks for s in stats
                      if s.pool_ranks is not None), default=None)
    submits = [s.submitted_s for s in stats if s.submitted_s is not None]
    finishes = [s.finished_s for s in stats if s.finished_s is not None]
    window_s = (max(finishes) - min(submits)
                if submits and finishes else None)
    rank_s_total = sum(s.run_s * s.ranks for s in stats
                       if s.run_s is not None)
    utilization = None
    if pool_ranks and window_s and window_s > 0:
        utilization = min(1.0, rank_s_total / (pool_ranks * window_s))

    tenants: dict[str, dict[str, float]] = {}
    tenant_names = sorted({s.tenant for s in stats})
    for tenant in tenant_names:
        mine = [s for s in stats if s.tenant == tenant]
        mine_rank_s = sum(s.run_s * s.ranks for s in mine
                          if s.run_s is not None)
        tenants[tenant] = {
            "jobs": float(len(mine)),
            "rank_s": mine_rank_s,
            "rank_s_share": (mine_rank_s / rank_s_total
                             if rank_s_total > 0 else 0.0),
            "queue_wait_p50": percentile(
                [s.queue_wait_s for s in mine
                 if s.queue_wait_s is not None], 50.0),
        }

    return SloReport(
        jobs_total=len(stats),
        by_status=by_status,
        queue_wait=_dist(waits),
        sched_latency=_dist(lat),
        run_duration=_dist(runs),
        turnaround=_dist(turns),
        utilization=utilization,
        window_s=window_s,
        pool_ranks=pool_ranks,
        tenants=tenants,
        abandoned=sum(1 for s in stats if s.abandoned),
    )


def _prom_name(name: str) -> str:
    """A metric name in the Prometheus charset (tenants are client-chosen)."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def render_prom(
    stats: list[JobStats],
    *,
    running: int,
    tenant_ranks: dict[str, int],
    pool_ranks: int,
    rejected: int,
) -> str:
    """The serve daemon's ``GET /metrics`` in Prometheus text format.

    Counters and latency histograms come from ``stats``; the gauges from
    the daemon's live child maps (``running`` jobs, ``tenant_ranks``
    running ranks per tenant), and ``rejected`` from the daemon (a
    rejected submission leaves no manifest).  A job counts under its
    terminal status once the daemon has stamped ``finished_*``, or at
    once if cancelled before launch, so ``jobs_completed N`` implies
    ``run_duration_s_count N``.  Zero counters are not rendered.
    """
    counters = {"jobs_submitted": len(stats), "jobs_rejected": rejected}
    for s in stats:
        if s.status in TERMINAL_STATUSES and (s.finished_s is not None
                                              or s.abandoned):
            key = f"jobs_{s.status}"
            counters[key] = counters.get(key, 0) + 1
    busy_ranks = sum(tenant_ranks.values())
    gauges = {
        "jobs_running": running,
        "pool_busy_ranks": busy_ranks,
        "pool_ranks": pool_ranks,
        "pool_utilization": busy_ranks / max(1, pool_ranks),
        "queue_depth": sum(1 for s in stats if s.status == "queued"),
    }
    # every tenant that ever launched keeps a gauge: one whose jobs all
    # finished reads 0 instead of vanishing
    launched = {s.tenant for s in stats if s.sched_latency_s is not None}
    for tenant in sorted(launched | set(tenant_ranks)):
        gauges[f"tenant_running_ranks.{tenant}"] = tenant_ranks.get(tenant, 0)
    histograms = {
        "queue_wait_s": [s.queue_wait_s for s in stats
                         if s.queue_wait_s is not None],
        "run_duration_s": [s.run_s for s in stats if s.run_s is not None],
        "sched_latency_s": [s.sched_latency_s for s in stats
                            if s.sched_latency_s is not None],
    }

    lines: list[str] = []

    def sample(name: str, kind: str, value: float) -> None:
        lines.extend((f"# TYPE {name} {kind}", f"{name} {float(value)!r}"))

    for name, value in sorted(counters.items()):
        if value:
            sample(_prom_name(f"repro_serve_{name}"), "counter", value)
    for name, value in sorted(gauges.items()):
        sample(_prom_name(f"repro_serve_{name}"), "gauge", value)
    for name, values in sorted(histograms.items()):
        if not values:
            continue
        base = f"repro_serve_{name}"
        lines.append(f"# TYPE {base} histogram")
        for edge in TIME_BOUNDS:
            below = sum(1 for v in values if v <= edge)
            lines.append(f'{base}_bucket{{le="{edge!r}"}} {below}')
        count = float(len(values))
        lines.append(f'{base}_bucket{{le="+Inf"}} {count!r}')
        lines.append(f"{base}_count {count!r}")
        lines.append(f"{base}_sum {float(sum(values))!r}")
        sample(f"{base}_min", "gauge", min(values))
        sample(f"{base}_max", "gauge", max(values))
    return "\n".join(lines) + "\n"


def write_report(
    report: SloReport,
    json_path: str | Path | None = None,
    md_path: str | Path | None = None,
) -> None:
    """Emit the report in its machine and human formats."""
    if json_path:
        Path(json_path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if md_path:
        Path(md_path).write_text(report.format_markdown())

"""The traced-run loop: live runs across engines, distributions and rank
counts, each read three ways.

The paper reads one run three ways: bytes per Table-I category (Table
I), runtime across rank counts (Figs. 3/4) and where the compute goes.
:func:`run_scaling` launches every (engine, dist, ranks) configuration
once with span tracing on, merges its rank streams once, and reads the
merge

* as wait attribution and critical path (:mod:`repro.obs.analyze`):
  busy/wait shares, imbalance, and relative speedup and parallel
  efficiency from the traced windows;
* as a kernel :class:`~repro.obs.hotspots.HotspotReport`, checked for
  internal consistency (the CLV memory band gated on decentralized only:
  fork-join worker stores are tree-agnostic and never collected);
* as a byte reconciliation (:mod:`repro.obs.reconcile`) of the measuring
  rank's own region log against what that rank measured, within its
  engine's documented tolerance.

Absolute times on a laptop-scale run say nothing about a 768-core
cluster — but the *orderings* do: which engine is comm-heavier, whether
the collective-wait share grows with rank count, whether a monolithic
(``mps``) distribution shows the load imbalance the paper fixes with
cyclic.  The report therefore pairs every measured table with the
analytic prediction — the first run's region log priced under both
engines on the reference machine
(:func:`repro.perf.price.simulate_runtime`) — and states whether the
orderings agree.  ``repro profile`` on the CLI wraps this module; its
record (:meth:`ScalingResult.to_bench`) carries flat metrics that
``repro runs compare`` diffs between two registered runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.obs.analyze import analyze_trace
from repro.obs.hotspots import (
    HotspotReport,
    build_hotspot_report,
    clv_footprint,
    hotspot_metrics,
)
from repro.obs.reconcile import REL_TOL, ReconcileReport, reconcile_live_run

__all__ = ["ScalePoint", "ScalingResult", "run_scaling", "DEFAULT_RANKS"]

DEFAULT_RANKS = (1, 2, 4)


@dataclass
class ScalePoint:
    """One measured (engine, dist, ranks) configuration."""

    engine: str
    dist: str
    ranks: int
    wall_s: float  # traced window (excludes process spawn/teardown)
    harness_s: float  # parent-side wall including spawn, for reference
    logl: float
    iterations: int
    wait_share: float
    busy_share: float
    imbalance: float
    n_collectives: int
    n_spans: int
    dropped_spans: int
    trace_dir: str
    hotspots: HotspotReport
    reconcile: ReconcileReport
    critical_path_shares: dict[str, float] = field(default_factory=dict)
    speedup: float = 1.0
    efficiency: float = 1.0
    base_ranks: int = 1

    @property
    def label(self) -> str:
        return f"{self.engine}.{self.dist}.r{self.ranks}"

    @property
    def tolerance(self) -> float:
        return REL_TOL[self.engine]

    def problems(self) -> list[str]:
        """A decentralized run's CLV bytes outside the documented band and
        an out-of-tolerance reconciliation (empty list == healthy
        configuration)."""
        found = (self.hotspots.check() if self.engine == "decentralized"
                 else [])
        if not self.reconcile.within(self.tolerance):
            found.append(
                f"measured bytes deviate from the comm model beyond "
                f"{self.tolerance:g} (worst relative error "
                f"{self.reconcile.worst_rel_error:g})")
        return [f"[{self.engine}/{self.dist}/r{self.ranks}] {p}"
                for p in found]

    def to_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("hotspots", "reconcile")}
        out["hotspots"] = self.hotspots.to_dict()
        out["reconcile"] = {
            **self.reconcile.to_dict(),
            "tolerance": self.tolerance,
            "within_tolerance": self.reconcile.within(self.tolerance),
        }
        return out


@dataclass
class ScalingResult:
    """All measured points plus the analytic predictions they test."""

    points: list[ScalePoint]
    workload: dict[str, Any] = field(default_factory=dict)
    predicted: dict[str, Any] = field(default_factory=dict)  # per dist
    #: dist → ranks(str) → True when the measured comm-heavier engine
    #: matches the model's prediction.
    agreement: dict[str, dict[str, bool]] = field(default_factory=dict)

    def point(self, engine: str, dist: str, ranks: int) -> ScalePoint:
        for p in self.points:
            if (p.engine, p.dist, p.ranks) == (engine, dist, ranks):
                return p
        raise KeyError((engine, dist, ranks))

    def wait_share(self, engine: str, dist: str, ranks: int) -> float:
        return self.point(engine, dist, ranks).wait_share

    def problems(self) -> list[str]:
        return [problem for p in self.points for problem in p.problems()]

    # -- bench record --------------------------------------------------- #
    def metrics(self) -> dict[str, float]:
        """Flat higher-is-worse metrics, the ones ``repro runs compare``
        diffs."""
        out: dict[str, float] = {}
        for p in self.points:
            key = f"scale.{p.label}"
            out[f"{key}.wall_s"] = p.wall_s
            out[f"{key}.wait_share"] = p.wait_share
            out[f"{key}.imbalance"] = p.imbalance
        out.update(hotspot_metrics({p.label: p.hotspots
                                    for p in self.points}))
        return out

    def to_bench(self) -> dict[str, Any]:
        return {
            "kind": "profile",
            "workload": dict(self.workload),
            "points": [p.to_dict() for p in self.points],
            "predicted": dict(self.predicted),
            "agreement": {d: dict(a) for d, a in self.agreement.items()},
            "metrics": self.metrics(),
        }

    # -- markdown report ------------------------------------------------ #
    def format_markdown(self, top: int | None = None) -> str:
        """Scaling tables (the Fig. 3/4 analogue), then one kernel table
        and one reconciliation per configuration, then the model's
        predicted totals.  ``top`` limits each kernel table."""
        lines = ["# Measured scaling report", ""]
        if self.workload:
            desc = ", ".join(f"{k}={v}" for k, v in self.workload.items())
            lines += [f"Workload: {desc}", ""]
        dists = sorted({p.dist for p in self.points})
        engines = sorted({p.engine for p in self.points})
        for dist in dists:
            lines.append(f"## Distribution: {dist}")
            lines.append("")
            for engine in engines:
                pts = sorted(
                    (p for p in self.points
                     if p.engine == engine and p.dist == dist),
                    key=lambda p: p.ranks,
                )
                if not pts:
                    continue
                lines.append(f"### {engine} (speedup vs "
                             f"{pts[0].base_ranks} rank(s))")
                lines.append("")
                lines.append("| ranks | wall s | speedup | efficiency |"
                             " busy % | wait % | imbalance λ |")
                lines.append("|---:|---:|---:|---:|---:|---:|---:|")
                for p in pts:
                    lines.append(
                        f"| {p.ranks} | {p.wall_s:.3f} | {p.speedup:.2f} "
                        f"| {p.efficiency:.2f} "
                        f"| {100.0 * p.busy_share:.1f} "
                        f"| {100.0 * p.wait_share:.1f} "
                        f"| {p.imbalance:.3f} |"
                    )
                lines.append("")
            if len(engines) == 2:
                lines.append("### Collective-wait comparison "
                             "(measured vs model)")
                lines.append("")
                lines.append("| ranks | " + " wait % | ".join(engines)
                             + " wait % | measured comm-heavier "
                               "| model comm-heavier | agree |")
                lines.append("|---:|" + "---:|" * (len(engines) + 3))
                ordering = (self.predicted.get(dist, {})
                            .get("ordering", {})
                            .get("comm_heavier", {}))
                for n in sorted({p.ranks for p in self.points
                                 if p.dist == dist}):
                    try:
                        shares = {e: self.wait_share(e, dist, n)
                                  for e in engines}
                    except KeyError:
                        continue
                    measured = max(shares, key=shares.get)  # type: ignore[arg-type]
                    modeled = ordering.get(str(n), "-")
                    agree = ("yes" if modeled == measured else
                             ("-" if modeled == "-" else "NO"))
                    cells = " | ".join(f"{100.0 * shares[e]:.1f}"
                                       for e in engines)
                    lines.append(f"| {n} | {cells} | {measured} "
                                 f"| {modeled} | {agree} |")
                lines.append("")
        for p in self.points:
            within = p.reconcile.within(p.tolerance)
            lines += [
                f"## {p.engine} / {p.dist} / {p.ranks} rank(s)", "",
                f"Trace `{p.trace_dir}`, logL {p.logl:.6f}.", "",
                p.hotspots.format_markdown(top=top, level=3), "",
                "### Reconciliation", "", "```text",
                p.reconcile.format_table(),
                f"tolerance (max relative byte error): {p.tolerance:g} -> "
                f"{'OK' if within else 'OUT OF TOLERANCE'}",
                "```", "",
            ]
        if self.predicted:
            lines.append("## Model-predicted totals (reference machine)")
            lines.append("")
            for dist, pred in sorted(self.predicted.items()):
                for engine, per_ranks in sorted(
                        pred.get("engines", {}).items()):
                    row = ", ".join(
                        f"{n}r: {v['total_s']:.4g}s (×{v['speedup']:.2f})"
                        for n, v in sorted(per_ranks.items(),
                                           key=lambda kv: int(kv[0]))
                    )
                    lines.append(f"- `{dist}` / {engine}: {row}")
            lines.append("")
        return "\n".join(lines)


def run_scaling(
    build_likelihood: Callable[[], Any],
    start_newick: str,
    config,
    engines: Sequence[str] = ("decentralized", "forkjoin"),
    ranks_list: Iterable[int] = DEFAULT_RANKS,
    dist_kinds: Sequence[str] = ("cyclic",),
    trace_root: str | Path = "trace_scale",
    trace_capacity: int | None = None,
    chrome: bool = False,
    workload_info: dict[str, Any] | None = None,
    progress: Callable[[str], None] | None = None,
    summary: bool = False,
) -> ScalingResult:
    """Run every (engine, dist, ranks) configuration live and analyze it.

    ``build_likelihood`` must return a *fresh*
    :class:`~repro.likelihood.partitioned.PartitionedLikelihood` on each
    call — the search mutates model state, so configurations must not
    share one.  Each configuration traces into
    ``<trace_root>/<engine>-<dist>-r<N>/`` (plus a merged
    ``trace.chrome.json`` there with ``chrome``).  Speedup/efficiency are
    relative to the smallest rank count measured for the same
    (engine, dist).  ``progress`` gets one line per configuration, and
    with ``summary`` its per-rank attribution table too.
    """
    from repro.engines.launch import RunConfig, first_survivor, launch
    from repro.obs.export import (
        merge_rank_streams,
        rank_trace_path,
        write_chrome_trace,
    )

    ranks_sorted = sorted(set(int(n) for n in ranks_list))
    if not ranks_sorted or ranks_sorted[0] < 1:
        raise ValueError("ranks_list must hold positive rank counts")
    trace_root = Path(trace_root)
    points: list[ScalePoint] = []
    firsts = {}  # dist -> (likelihood, region log) of its first run

    for dist in dist_kinds:
        for engine in engines:
            for n in ranks_sorted:
                lik = build_likelihood()
                trace_dir = trace_root / f"{engine}-{dist}-r{n}"
                cfg = RunConfig(
                    engine, lik.parts, lik.taxa, start_newick, n,
                    config=config, dist_kind=dist,
                    n_branch_sets=lik.n_branch_sets, trace_dir=trace_dir,
                    trace_capacity=trace_capacity,
                )
                t0 = time.perf_counter()
                results = launch(cfg)
                harness_s = time.perf_counter() - t0
                res = first_survivor(results)
                firsts.setdefault(dist, (lik, res.log))

                paths = [rank_trace_path(trace_dir, r) for r in range(n)]
                merged = merge_rank_streams([p for p in paths if p.exists()])
                if chrome:
                    write_chrome_trace(merged, trace_dir / "trace.chrome.json")
                analysis, cpath = analyze_trace(merged)
                hotspots = build_hotspot_report(
                    merged,
                    modeled_clv_bytes=clv_footprint(lik.parts, lik.taxa))
                # a non-root replica accounts exactly one payload per
                # allreduce, the model's convention (see obs.reconcile)
                rank = 1 if engine == "decentralized" and n > 1 else 0
                reconciled = reconcile_live_run(engine, results[rank],
                                                measured_rank=rank)
                active = analysis.total_active_ns
                busy = sum(r.busy_ns for r in analysis.ranks.values())
                point = ScalePoint(
                    engine=engine, dist=dist, ranks=n,
                    wall_s=analysis.window_ns / 1e9,
                    harness_s=harness_s,
                    logl=res.logl,
                    iterations=res.iterations,
                    wait_share=analysis.wait_share,
                    busy_share=busy / active if active else 0.0,
                    imbalance=analysis.imbalance,
                    n_collectives=analysis.n_collectives,
                    n_spans=sum(r.n_spans for r in analysis.ranks.values()),
                    dropped_spans=analysis.dropped_spans,
                    trace_dir=str(trace_dir),
                    hotspots=hotspots,
                    reconcile=reconciled,
                    critical_path_shares=cpath.contribution_shares(),
                )
                points.append(point)
                if progress is not None:
                    progress(
                        f"[{engine}/{dist}] {n} rank(s): "
                        f"{point.wall_s:.2f}s traced, wait "
                        f"{100.0 * point.wait_share:.1f}%, "
                        f"λ={point.imbalance:.3f}"
                    )
                    if summary:
                        progress(analysis.format_table())

    _fill_speedups(points)
    result = ScalingResult(points=points,
                           workload=dict(workload_info or {}))
    _attach_predictions(result, firsts, ranks_sorted)
    return result


def _fill_speedups(points: list[ScalePoint]) -> None:
    by_series: dict[tuple[str, str], list[ScalePoint]] = {}
    for p in points:
        by_series.setdefault((p.engine, p.dist), []).append(p)
    for series in by_series.values():
        base = min(series, key=lambda p: p.ranks)
        for p in series:
            p.base_ranks = base.ranks
            p.speedup = (base.wall_s / p.wall_s) if p.wall_s else 0.0
            # efficiency vs ideal scaling from the base rank count
            p.efficiency = (p.speedup * base.ranks / p.ranks
                            if p.ranks else 0.0)


def _attach_predictions(
    result: ScalingResult,
    firsts: dict,
    ranks_sorted: list[int],
) -> None:
    """Price each distribution's region log (``firsts``: dist → the
    likelihood and log of its first live run) under both engines on the
    reference machine and test the model's orderings: per rank count,
    ``comm_heavier`` is the engine predicted to spend more time in
    collectives (the paper: fork-join, always) and ``faster`` the one
    with the lower predicted total (ties go to ``decentralized``, the
    paper's winner)."""
    from repro.dist.distributions import auto_distribution
    from repro.engines import ENGINES
    from repro.par.machine import HITS_CLUSTER
    from repro.perf.costmodel import WorkloadMeta
    from repro.perf.price import simulate_runtime

    modeled = sorted(ENGINES)
    measured_engines = sorted({p.engine for p in result.points})
    base = ranks_sorted[0]
    for dist, (lik, log) in firsts.items():
        meta = WorkloadMeta.from_likelihood(lik)
        reps = {(e, n): simulate_runtime(
                    log, e, meta, HITS_CLUSTER, auto_distribution(
                        meta.cost_patterns, n, use_mps=(dist == "mps")))
                for e in modeled for n in ranks_sorted}
        ordering: dict[str, dict[str, str]] = {"comm_heavier": {}, "faster": {}}
        for n in ranks_sorted:
            ordering["comm_heavier"][str(n)] = max(
                modeled, key=lambda e: reps[e, n].comm_s)
            ordering["faster"][str(n)] = min(
                modeled, key=lambda e: (reps[e, n].total_s, e != "decentralized"))
        result.predicted[dist] = {
            "dist": dist,
            "machine": HITS_CLUSTER.name,
            "engines": {e: {str(n): {
                "total_s": reps[e, n].total_s,
                "compute_s": reps[e, n].compute_s,
                "comm_s": reps[e, n].comm_s,
                "speedup": reps[e, base].total_s * base / reps[e, n].total_s,
            } for n in ranks_sorted} for e in modeled},
            "ordering": ordering,
        }
        if len(measured_engines) == 2:
            agree: dict[str, bool] = {}
            for n in ranks_sorted:
                try:
                    shares = {e: result.wait_share(e, dist, n)
                              for e in measured_engines}
                except KeyError:
                    continue
                measured = max(shares, key=shares.get)  # type: ignore[arg-type]
                agree[str(n)] = measured == ordering["comm_heavier"][str(n)]
            result.agreement[dist] = agree

"""Kernel-level compute observability: per-op profiling and hotspots.

The tracing stack sees everything *between* ranks (collective spans,
wait attribution); this module looks *inside* a likelihood call and
attributes wall time, modeled FLOPs/bytes and CLV memory to the
individual kernel operations of Felsenstein pruning:

``pmatrix`` / ``newview`` / ``evaluate`` / ``sumtable`` / ``derivative``

Three layers:

* :class:`OpProfiler` — a per-rank clock and call counter.  The
  partition stacks bracket each kernel call with ``t0 = prof.begin()`` /
  ``prof.end(t0, op, stack, rows)``; the profiler keeps wall-nanoseconds
  and a call count per ``(op, stack shape, rows)`` and nothing else.
  Work units, allocated bytes, state count and rate class are read off
  the :class:`~repro.likelihood.stack.StackShape` when the totals are
  read, per ``(op, partition)`` — a call that computed eight partitions
  is eight calls, each with an eighth of its time.  Aggregation (instead
  of one span per op) keeps a long search from blowing out the tracer
  ring buffer: the whole profile flushes as a handful of summary spans.
  ``units`` uses the *same* virtual-pattern accounting as the region log
  the performance model prices (``cost_patterns × n_cats`` per
  invocation, see :meth:`repro.likelihood.backend.Region.kernel_ops`).
  :data:`NULL_OP_PROFILER` (defined in the leaf module
  :mod:`repro.obs.nullprofiler`, re-exported here) is the disabled path:
  ``begin()`` returns 0 without reading a clock and ``end()`` is a no-op
  taking only objects the call site already holds, the same zero-cost
  discipline as :data:`~repro.obs.tracer.NULL_TRACER`.  All clock reads
  live here (in ``obs``), so the engines' hot loops contain no wall-clock
  calls — replicheck's R004 stays clean and profiling can never steer
  replica control flow.

* :func:`emit_kernel_profile` — flushes the accumulated totals into the
  rank's tracer as ``kernel_op`` summary instants
  (one per op × partition) plus ``clv_memory`` instants carrying each
  CLV owner's live/peak byte accounting.  The instants ride the normal
  per-rank JSONL streams, so a trace directory is a complete offline
  profile.

* :func:`build_hotspot_report` — turns merged span records back into a
  ranked :class:`HotspotReport`: time share, achieved vs modeled
  GFLOP/s, arithmetic intensity and a roofline placement against
  :class:`~repro.par.machine.MachineSpec` peak FLOP/s and memory
  bandwidth, plus per-partition CLV memory reconciled against the
  analytic footprint model.  FLOPs and bytes are priced once per op,
  from its summed units per state count.

CLV reconciliation tolerance (documented band, :data:`CLV_RATIO_MIN` /
:data:`CLV_RATIO_MAX`): the memory model charges one CLV per inner node
(``(n_taxa − 2)`` entries), while the measured cache keys CLVs by
*directed* edge — up to three orientations per inner node — and each
entry carries a per-pattern log-scale vector (``+1/(n_cats·n_states)``
relative).  After the end-of-run garbage collection that
:func:`emit_kernel_profile` performs on tree-aware sources, the live
bytes therefore land between ~1× (exactly the final traversal resident)
and ~3.2× (all orientations resident) of the model's raw CLV bytes;
the band adds slack for partial shares and PSR rescans.  Fork-join
worker stores are tree-agnostic (no validity notion, nothing is ever
collected), so their ratio is reported but only the decentralized
engine is gated on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.obs.nullprofiler import NULL_OP_PROFILER, NullOpProfiler
from repro.obs.tracer import KIND_KERNEL
from repro.par.machine import HITS_CLUSTER, MachineSpec
from repro.perf.costmodel import modeled_bytes, modeled_flops, modeled_gflops

__all__ = [
    "KERNEL_OP_SPAN",
    "CLV_MEMORY_SPAN",
    "CLV_RATIO_MIN",
    "CLV_RATIO_MAX",
    "OpProfiler",
    "NullOpProfiler",
    "NULL_OP_PROFILER",
    "emit_kernel_profile",
    "OpStat",
    "HotspotReport",
    "build_hotspot_report",
    "hotspot_metrics",
    "clv_footprint",
    "reports_under",
]

#: Span name of one flushed ``(op, partition)`` profile summary.
KERNEL_OP_SPAN = "kernel_op"
#: Span name of one flushed per-partition CLV memory record.
CLV_MEMORY_SPAN = "clv_memory"

#: Documented band for measured-live / modeled-raw CLV bytes (see the
#: module docstring for the derivation).
CLV_RATIO_MIN = 0.3
CLV_RATIO_MAX = 3.5

#: Ops whose work unit is one pattern·category (cost-model convention); the
#: machine's ``op_cost_ns`` constants price exactly these, so only they
#: get a modeled-throughput column.  ``pmatrix`` units are transition
#: *matrices* (its work does not scale with patterns under Γ).
PATTERN_UNIT_OPS = ("newview", "evaluate", "sumtable", "derivative")


class OpProfiler:
    """Per-op kernel clock and call counter (one per rank).

    Not thread-safe and not shared across ranks: each forked rank owns
    one, exactly like its :class:`~repro.obs.tracer.Tracer`.
    """

    enabled = True

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        # (op, stack shape, rows or None) -> [wall_ns, calls].  Keyed on the
        # shape, not the stack: a rebuilt likelihood's stacks (in-run
        # recovery) must not be kept alive by the profile of the old ones.
        self._acc: dict[tuple, list[int]] = {}

    def begin(self) -> int:
        """Start timestamp for one kernel call."""
        return time.perf_counter_ns()

    def end(self, t0: int, op: str, stack, rows: list[int] | None = None,
            count: int = 1) -> None:
        """Account one timed kernel call of ``op`` on ``stack`` that
        computed its ``rows`` (``None``: every row): each of their
        partitions is charged ``count`` calls and an even share of the
        elapsed time."""
        now = time.perf_counter_ns()
        key = (op, stack.shape, None if rows is None else tuple(rows))
        acc = self._acc.get(key)
        if acc is None:
            self._acc[key] = [now - t0, count]
        else:
            acc[0] += now - t0
            acc[1] += count

    def _per_partition(self) -> dict[tuple[str, int], list]:
        """Totals per ``(op, partition)``: ``[wall_ns, count, units,
        alloc_bytes, n_states, site_specific]``, the work and bytes of a
        call read off its stack's shape."""
        out: dict[tuple[str, int], list] = {}
        for (op, shape, rows), (wall, count) in self._acc.items():
            members = (shape.partitions if rows is None
                       else [shape.partitions[i] for i in rows])
            units, alloc = shape.charge(op)
            for partition in members:
                mine = out.setdefault((op, partition), [
                    0.0, 0, 0.0, 0.0, shape.n_states, shape.site_specific])
                mine[0] += wall / len(members)
                mine[1] += count
                mine[2] += count * units
                mine[3] += count * alloc
        return out

    def records(self) -> list[dict[str, Any]]:
        """Accumulated totals as JSON-safe dicts, one per (op, partition)."""
        return [{
            "op": op,
            "partition": partition,
            "wall_ns": int(acc[0]),
            "count": acc[1],
            "units": acc[2],
            "alloc_bytes": acc[3],
            "n_states": acc[4],
            "site_specific": acc[5],
        } for (op, partition), acc in sorted(self._per_partition().items())]

    def units(self, op: str, partition: int | None = None) -> float:
        """Accumulated work units for one op (optionally one partition) —
        directly comparable to the work a recorded region stream implies
        (``Region.kernel_ops() × cost_patterns × n_cats``)."""
        return sum(
            acc[2]
            for (kind, p), acc in self._per_partition().items()
            if kind == op and (partition is None or p == partition)
        )

    def invocations(self, op: str, partition: int | None = None) -> int:
        return sum(
            acc[1]
            for (kind, p), acc in self._per_partition().items()
            if kind == op and (partition is None or p == partition)
        )


def emit_kernel_profile(profiler, tracer, clv_sources: Iterable[Any] = ()) -> int:
    """Flush a rank's accumulated kernel profile into its tracer.

    Emits one :data:`KERNEL_OP_SPAN` instant per ``(op, partition)``
    total and one :data:`CLV_MEMORY_SPAN` instant per partition of every
    CLV owner in ``clv_sources`` (objects exposing ``clv_stats()`` —
    :class:`~repro.likelihood.partitioned.PartitionedLikelihood` or
    :class:`~repro.engines.executor.DescriptorExecutor`).  Tree-aware
    sources are garbage-collected first so ``live_bytes`` reflects the
    *reachable* working set, which is what the footprint model predicts.

    Returns the number of instants emitted.  No-op when either the
    profiler or the tracer is disabled.
    """
    if not getattr(profiler, "enabled", False) or not tracer.enabled:
        return 0
    emitted = 0
    for rec in profiler.records():
        tracer.instant(KERNEL_OP_SPAN, kind=KIND_KERNEL, **rec)
        emitted += 1
    for source in clv_sources:
        if source is None:
            continue
        gc = getattr(source, "gc", None)
        if callable(gc):
            gc()
        for stat in source.clv_stats():
            tracer.instant(CLV_MEMORY_SPAN, kind=KIND_KERNEL, **stat)
            emitted += 1
    return emitted


# --------------------------------------------------------------------- #
# offline analysis: merged span records -> ranked hotspot report
# --------------------------------------------------------------------- #
@dataclass
class OpStat:
    """Cross-rank totals for one kernel op."""

    op: str
    wall_s: float
    count: int
    units: float
    alloc_bytes: float
    n_states: int
    site_specific: bool
    by_partition: dict[int, float] = field(default_factory=dict)
    #: Work units per state count (an op may span DNA and protein
    #: partitions); FLOPs and bytes are priced from these.
    units_by_states: dict[int, float] = field(default_factory=dict)
    time_share: float = 0.0

    @property
    def flops(self) -> float:
        """Modeled FLOPs of the op's work, priced per state count."""
        return sum(modeled_flops(self.op, units, n_states=k)
                   for k, units in self.units_by_states.items())

    @property
    def bytes_moved(self) -> float:
        """Modeled memory traffic of the op's work, per state count."""
        return sum(modeled_bytes(self.op, units, n_states=k)
                   for k, units in self.units_by_states.items())

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s per core (total flops over total core-seconds;
        virtual FLOP/s on pattern-scaled workloads, matching the model's
        units)."""
        return self.flops / self.wall_s / 1e9 if self.wall_s > 0 else 0.0

    @property
    def intensity(self) -> float:
        """Arithmetic intensity (FLOP per byte of modeled traffic)."""
        return self.flops / self.bytes_moved if self.bytes_moved > 0 else 0.0

    @property
    def ns_per_unit(self) -> float:
        return self.wall_s * 1e9 / self.units if self.units > 0 else 0.0

    def modeled_gflops(self, machine: MachineSpec) -> float | None:
        """Throughput the machine's ``op_cost_ns`` constants imply
        (``None`` for ops not priced in pattern·category units)."""
        if self.op not in PATTERN_UNIT_OPS:
            return None
        return modeled_gflops(machine, self.op, n_states=self.n_states,
                              site_specific=self.site_specific)

    def attainable_gflops(self, machine: MachineSpec) -> float:
        """Roofline ceiling at this op's intensity, per core."""
        return machine.attainable_flops(self.intensity) / 1e9

    def to_dict(self, machine: MachineSpec | None = None) -> dict[str, Any]:
        out: dict[str, Any] = {
            "op": self.op,
            "wall_s": self.wall_s,
            "time_share": self.time_share,
            "count": self.count,
            "units": self.units,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "alloc_bytes": self.alloc_bytes,
            "gflops": self.gflops,
            "intensity": self.intensity,
            "ns_per_unit": self.ns_per_unit,
            "by_partition": {str(k): v
                             for k, v in sorted(self.by_partition.items())},
        }
        if machine is not None:
            out["modeled_gflops"] = self.modeled_gflops(machine)
            out["attainable_gflops"] = self.attainable_gflops(machine)
        return out


@dataclass
class HotspotReport:
    """Ranked per-op kernel profile of one traced run."""

    ops: list[OpStat]
    total_wall_s: float
    n_ranks: int
    machine: MachineSpec
    #: Per-partition CLV accounting summed across ranks.
    memory: list[dict[str, Any]] = field(default_factory=list)
    #: Analytic raw CLV bytes ((n_taxa−2) × Σ_p patterns·cats·states·8);
    #: ``None`` when the workload is not available (``--from-trace``).
    modeled_clv_bytes: float | None = None

    @property
    def measured_clv_live_bytes(self) -> float:
        return float(sum(m["live_bytes"] for m in self.memory))

    @property
    def measured_clv_peak_bytes(self) -> float:
        return float(sum(m["peak_bytes"] for m in self.memory))

    def clv_ratio(self) -> float | None:
        """Measured-live over modeled-raw CLV bytes (None if unmodeled)."""
        if not self.modeled_clv_bytes:
            return None
        return self.measured_clv_live_bytes / self.modeled_clv_bytes

    def check(self) -> list[str]:
        """The CLV band (empty list == inside it, or nothing modeled): the
        measured live CLV bytes over the modeled footprint must sit inside
        [:data:`CLV_RATIO_MIN`, :data:`CLV_RATIO_MAX`]."""
        ratio = self.clv_ratio()
        if ratio is None or CLV_RATIO_MIN <= ratio <= CLV_RATIO_MAX:
            return []
        return [f"CLV live/model ratio {ratio:.3f} outside the documented "
                f"band [{CLV_RATIO_MIN}, {CLV_RATIO_MAX}]"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "machine": self.machine.name,
            "ranks": self.n_ranks,
            "total_kernel_s": self.total_wall_s,
            "ops": [s.to_dict(self.machine) for s in self.ops],
            "memory": {
                "per_partition": self.memory,
                "live_bytes": self.measured_clv_live_bytes,
                "peak_bytes": self.measured_clv_peak_bytes,
                "modeled_bytes": self.modeled_clv_bytes,
                "live_over_model": self.clv_ratio(),
                "ratio_band": [CLV_RATIO_MIN, CLV_RATIO_MAX],
            },
        }

    def format_markdown(self, top: int | None = None, level: int = 1) -> str:
        """Ranked kernel table + memory section, GitHub-flavored, headed
        at markdown heading ``level``."""
        heading = "#" * level
        lines = [f"{heading} Kernel hotspots", ""]
        lines.append(
            f"{self.n_ranks} rank(s), {self.total_wall_s:.3f} s total "
            f"kernel time; roofline vs {self.machine.name} "
            f"({self.machine.peak_flops_per_core / 1e9:.1f} GFLOP/s, "
            f"{self.machine.mem_bandwidth_per_core_bps / 1e9:.2f} GB/s "
            f"per core, ridge "
            f"{self.machine.ridge_intensity:.1f} FLOP/B)")
        lines.append("")
        lines.append("| op | wall s | share | calls | units | GFLOP/s "
                     "| model GF/s | roofline GF/s | FLOP/B | alloc MiB |")
        lines.append("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
        shown = self.ops if top is None else self.ops[:top]
        for s in shown:
            model = s.modeled_gflops(self.machine)
            model_s = f"{model:.2f}" if model is not None else "—"
            lines.append(
                f"| {s.op} | {s.wall_s:.4f} | {s.time_share:6.1%} "
                f"| {s.count} | {s.units:.3g} | {s.gflops:.3f} "
                f"| {model_s} | {s.attainable_gflops(self.machine):.2f} "
                f"| {s.intensity:.2f} "
                f"| {s.alloc_bytes / 2**20:.2f} |")
        if top is not None and len(self.ops) > top:
            lines.append("")
            lines.append(f"({len(self.ops) - top} further op(s) omitted)")
        if self.memory:
            lines.append("")
            lines.append(f"{heading}# CLV memory")
            lines.append("")
            lines.append("| partition | entries | live MiB | peak MiB "
                         "| evictions | evicted MiB |")
            lines.append("|---:|---:|---:|---:|---:|---:|")
            for m in self.memory:
                lines.append(
                    f"| {m['partition']} | {m['entries']} "
                    f"| {m['live_bytes'] / 2**20:.3f} "
                    f"| {m['peak_bytes'] / 2**20:.3f} "
                    f"| {m['evictions']} "
                    f"| {m['evicted_bytes'] / 2**20:.3f} |")
            ratio = self.clv_ratio()
            if ratio is not None:
                assert self.modeled_clv_bytes is not None
                lines.append("")
                lines.append(
                    f"Modeled raw CLV footprint "
                    f"{self.modeled_clv_bytes / 2**20:.3f} MiB; measured "
                    f"live/model = {ratio:.3f} (documented band "
                    f"[{CLV_RATIO_MIN}, {CLV_RATIO_MAX}]).")
        return "\n".join(lines)


def build_hotspot_report(
    records: Iterable[dict[str, Any]],
    machine: MachineSpec | None = None,
    modeled_clv_bytes: float | None = None,
) -> HotspotReport:
    """Aggregate merged span records into a ranked :class:`HotspotReport`.

    ``records`` is any span-dict stream that contains the
    :data:`KERNEL_OP_SPAN` / :data:`CLV_MEMORY_SPAN` instants written by
    :func:`emit_kernel_profile` — typically the output of
    :func:`~repro.obs.export.merge_rank_streams` over a trace
    directory.  Everything else (comm spans, search spans) is ignored,
    so the same merged trace feeds both wait attribution and this.
    """
    machine = machine or HITS_CLUSTER
    acc: dict[str, OpStat] = {}
    mem: dict[int, dict[str, Any]] = {}
    ranks: set[int] = set()
    for rec in records:
        name = rec.get("name")
        attrs = rec.get("attrs") or {}
        if name == KERNEL_OP_SPAN:
            op = attrs["op"]
            partition = int(attrs.get("partition", 0))
            wall_s = attrs["wall_ns"] / 1e9
            units = float(attrs["units"])
            n_states = int(attrs.get("n_states", 4))
            ranks.add(int(rec.get("rank", 0)))
            stat = acc.get(op)
            if stat is None:
                stat = OpStat(
                    op=op, wall_s=0.0, count=0, units=0.0, alloc_bytes=0.0,
                    n_states=n_states,
                    site_specific=bool(attrs.get("site_specific", False)),
                )
                acc[op] = stat
            stat.wall_s += wall_s
            stat.count += int(attrs["count"])
            stat.units += units
            stat.units_by_states[n_states] = (
                stat.units_by_states.get(n_states, 0.0) + units)
            stat.alloc_bytes += float(attrs.get("alloc_bytes", 0.0))
            stat.n_states = max(stat.n_states, n_states)
            stat.by_partition[partition] = (
                stat.by_partition.get(partition, 0.0) + wall_s)
        elif name == CLV_MEMORY_SPAN:
            partition = int(attrs.get("partition", 0))
            entry = mem.setdefault(partition, {
                "partition": partition, "entries": 0, "live_bytes": 0,
                "peak_bytes": 0, "evictions": 0, "evicted_bytes": 0,
            })
            for key in ("entries", "live_bytes", "peak_bytes",
                        "evictions", "evicted_bytes"):
                entry[key] += int(attrs.get(key, 0))
    ops = sorted(acc.values(), key=lambda s: (-s.wall_s, s.op))
    total = sum(s.wall_s for s in ops)
    for stat in ops:
        stat.time_share = stat.wall_s / total if total > 0 else 0.0
    return HotspotReport(
        ops=ops,
        total_wall_s=total,
        n_ranks=max(len(ranks), 1),
        machine=machine,
        memory=[mem[p] for p in sorted(mem)],
        modeled_clv_bytes=modeled_clv_bytes,
    )


def hotspot_metrics(reports: dict[str, HotspotReport]) -> dict[str, float]:
    """Flat higher-is-worse metrics for ``repro runs compare`` over labelled
    reports: ``hotspots.<label>.<op>.{wall_s,ns_per_unit}`` plus
    ``hotspots.total_kernel_s`` summed over all of them."""
    metrics: dict[str, float] = {}
    for label, report in reports.items():
        for s in report.ops:
            metrics[f"hotspots.{label}.{s.op}.wall_s"] = s.wall_s
            if s.op in PATTERN_UNIT_OPS and s.units > 0:
                metrics[f"hotspots.{label}.{s.op}.ns_per_unit"] = s.ns_per_unit
    metrics["hotspots.total_kernel_s"] = sum(
        r.total_wall_s for r in reports.values())
    return metrics


def clv_footprint(parts, taxa) -> float:
    """Analytic raw CLV bytes across a whole run (all ranks' shares
    together are the full pattern set): ``(n_taxa − 2)`` inner-node CLVs ×
    Σ_p patterns·cats·states·8.  Real patterns, not the cost model's
    virtual ones, so it matches real allocations on pattern-scaled
    workloads too."""
    return (len(taxa) - 2) * sum(
        p.n_patterns * p.n_cats * p.model.n_states * 8.0 for p in parts)


def reports_under(root: str | Path) -> dict[str, HotspotReport]:
    """One report per directory under ``root`` (``root`` included) that
    holds ``trace-rank*.jsonl`` streams, keyed by its path relative to
    ``root`` — so a trace root of several configurations (or supervised
    attempts) never merges their counts.  No workload is at hand, so CLV
    memory is reported but not reconciled."""
    from repro.obs.export import merge_rank_streams

    root = Path(root)
    dirs = sorted({p.parent for p in root.rglob("trace-rank*.jsonl")})
    return {
        str(d.relative_to(root)): build_hotspot_report(
            merge_rank_streams(sorted(d.glob("trace-rank*.jsonl"))))
        for d in dirs
    }

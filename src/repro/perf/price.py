"""Pricing a region log: the one place a search's log becomes the paper's
numbers — bytes per Table-I category and seconds per engine.

An engine, for pricing, is one row of :data:`repro.engines.ENGINES`.  A
log counts each distinct :class:`~repro.engines.Region` with its
multiplicity, so every walk here prices each distinct shape (a few dozen
per search) once and weighs it by how often it occurred.

For every region :func:`simulate_runtime` prices

* **compute**: per kernel op, the maximum over ranks of the modeled
  seconds the region's per-partition op counts imply under the data
  distribution, summed over ops (times the swap multiplier when the
  working set exceeds node RAM);
* **communication**: the analytic cost of the region's collectives, plus
  the master's serial packing of its ``bcast`` payloads.

Fork-join synchronizes at *every* region; the de-centralized scheme only
at its allreduce sites — non-communicating regions' compute is folded
into the interval ending at the next allreduce, which under identical
data distributions yields the same compute total but strictly less
communication time: the paper's effect, reproduced mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.engines import ENGINES, Region
from repro.engines.forkjoin import CATEGORIES
from repro.errors import ReproError
from repro.likelihood.backend import EventLog
from repro.par.machine import MachineSpec
from repro.par.network import collective_time
from repro.perf.costmodel import WorkloadMeta, rank_second_vector_custom, swap_multiplier

__all__ = [
    "CommTotals",
    "comm_totals",
    "RuntimeReport",
    "simulate_runtime",
    "table1_rows",
    "format_table1",
]

_MB = 1024.0 * 1024.0


def _shapes(log: EventLog, engine: str) -> Iterator[tuple[Region, int, list]]:
    """Each distinct region of ``log`` once: (region, how often it
    occurred, the collectives ``engine`` assigns it)."""
    events_of, _ = ENGINES[engine]
    for region, n in log.counts.items():
        yield region, n, events_of(region)


class CommTotals(NamedTuple):
    """What an engine communicates over one region log."""

    #: modeled bytes per Table-I category (every category, zeros included)
    nbytes: dict[str, float]
    #: collective calls per category
    calls: dict[str, int]
    #: regions with at least one collective (all of them under fork-join)
    regions: int


def comm_totals(log: EventLog, engine: str) -> CommTotals:
    """Bytes, collective calls and communicating regions of ``log`` under
    ``engine``."""
    categories = ENGINES[engine][1]
    nbytes = dict.fromkeys(categories, 0.0)
    calls = dict.fromkeys(categories, 0)
    regions = 0
    for _, n, events in _shapes(log, engine):
        regions += n * bool(events)
        for ev in events:
            nbytes[ev.category] += n * ev.nbytes
            calls[ev.category] += n
    return CommTotals(nbytes, calls, regions)


@dataclass
class RuntimeReport:
    """Simulated timing of one (engine, rank count) configuration."""

    engine: str
    n_ranks: int
    compute_s: float
    comm_s: float
    swap_factor: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    def __repr__(self) -> str:
        return (
            f"RuntimeReport({self.engine}, ranks={self.n_ranks}, "
            f"total={self.total_s:.1f}s = {self.compute_s:.1f}s compute + "
            f"{self.comm_s:.3f}s comm, swap×{self.swap_factor:.2f})"
        )


def simulate_runtime(
    log: EventLog,
    engine: str,
    meta: WorkloadMeta,
    machine: MachineSpec,
    dist,
) -> RuntimeReport:
    """Price a recorded run for ``engine`` (a ``RunConfig`` engine name)
    on one machine configuration."""
    if dist.n_partitions != meta.n_partitions:
        raise ReproError("distribution does not match workload")
    n_ranks = dist.n_ranks
    sfactor = swap_multiplier(meta, machine, dist)
    compute_s = 0.0
    comm_s = 0.0
    for region, n, events in _shapes(log, engine):
        region_compute = sum(
            float(rank_second_vector_custom(meta, machine, dist, op, count).max())
            for op, count in region.kernel_ops().items())
        compute_s += n * region_compute
        if events:
            region_comm = machine.region_sync_noise(n_ranks)
            if n_ranks > 1:
                serial = sum(ev.nbytes for ev in events if ev.collective == "bcast")
                region_comm += serial * machine.master_pack_s_per_byte
            for ev in events:
                region_comm += collective_time(machine, n_ranks, ev.collective, ev.nbytes)
            comm_s += n * region_comm
    return RuntimeReport(
        engine=engine,
        n_ranks=n_ranks,
        compute_s=compute_s * sfactor,
        comm_s=comm_s,
        swap_factor=sfactor,
    )


def table1_rows(log: EventLog) -> dict[str, float]:
    """Table I quantities for one fork-join run: per-category percentages,
    region count and total MB."""
    totals = comm_totals(log, "forkjoin")
    grand = sum(totals.nbytes.values())
    rows = {
        f"{cat} [%]": (100.0 * nbytes / grand if grand else 0.0)
        for cat, nbytes in totals.nbytes.items()
    }
    rows["# parallel regions"] = float(totals.regions)
    rows["# bytes communicated (MB)"] = grand / _MB
    return rows


def format_table1(columns: dict[str, EventLog]) -> str:
    """Render Table I: one column per run configuration."""
    names = list(columns)
    data = {name: table1_rows(log) for name, log in columns.items()}
    row_labels = [f"{cat} [%]" for cat in CATEGORIES] + [
        "# parallel regions", "# bytes communicated (MB)"]
    width = max(len(r) for r in row_labels) + 2
    colw = max(14, max(len(n) for n in names) + 2)
    out = [" " * width + "".join(f"{n:>{colw}}" for n in names)]
    for label in row_labels:
        cells = []
        for name in names:
            val = data[name][label]
            if label.startswith("#"):
                cells.append(f"{val:>{colw}.0f}")
            else:
                cells.append(f"{val:>{colw}.2f}")
        out.append(f"{label:<{width}}" + "".join(cells))
    return "\n".join(out)

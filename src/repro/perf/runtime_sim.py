"""Runtime synthesis: region stream × machine × distribution → seconds.

For every recorded region the synthesizer prices

* **compute**: the maximum over ranks of the modeled kernel seconds the
  region's per-partition op counts imply under the given data
  distribution (times the swap multiplier when the working set exceeds
  node RAM);
* **communication**: the analytic cost of the collectives the engine's
  ``region_events`` assigns to that region (:data:`repro.engines.ENGINES`),
  plus the master's serial packing of its ``bcast`` payloads.

Fork-join synchronizes at *every* region; the de-centralized scheme only
at its allreduce sites — non-communicating regions' compute is folded
into the interval ending at the next allreduce, which under identical
data distributions yields the same compute total but strictly less
communication time: the paper's effect, reproduced mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines import ENGINES
from repro.errors import ReproError
from repro.likelihood.backend import EventLog
from repro.par.machine import MachineSpec
from repro.par.network import collective_time
from repro.perf.costmodel import (
    WorkloadMeta,
    rank_second_vectors,
    rank_second_vector_custom,
    swap_multiplier,
)

__all__ = ["RuntimeReport", "simulate_runtime"]


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
    if n_ranks > machine.total_cores:
        raise ReproError(f"{n_ranks} ranks exceed machine size")

    events_of, _ = ENGINES[engine]
    second_vectors = rank_second_vectors(meta, machine, dist)
    # Uniform-region fast path: max_r of (sum_op c_op * B_op[r]).  All the
    # B_op share the same per-rank shape (they differ by the scalar ns), so
    # the argmax rank is identical and we can pre-reduce to scalars.
    max_seconds_per_op = {op: float(vec.max()) for op, vec in second_vectors.items()}

    sfactor = swap_multiplier(meta, machine, dist)
    compute_s = 0.0
    comm_s = 0.0

    for region in log:
        kernel_ops = region.kernel_ops()
        region_compute = 0.0
        for op, count in kernel_ops.items():
            if isinstance(count, np.ndarray):
                vec = rank_second_vector_custom(meta, machine, dist, op, count)
                region_compute += float(vec.max())
            elif count:
                region_compute += count * max_seconds_per_op[op]
        compute_s += region_compute

        events = events_of(region)
        if events:
            comm_s += machine.region_sync_noise(n_ranks)
        if n_ranks > 1:
            serial = sum(ev.nbytes for ev in events if ev.collective == "bcast")
            comm_s += serial * machine.master_pack_s_per_byte
        for ev in events:
            comm_s += collective_time(machine, n_ranks, ev.collective, ev.nbytes)

    return RuntimeReport(
        engine=engine,
        n_ranks=n_ranks,
        compute_s=compute_s * sfactor,
        comm_s=comm_s,
        swap_factor=sfactor,
    )

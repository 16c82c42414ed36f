"""Compute-cost and memory models.

The kernels are modeled as memory-bandwidth-bound streaming over CLV
entries: per kernel invocation on a partition, a rank spends

    ``ns(op) × owned_patterns × n_cats × (psr_site_factor if PSR)``

nanoseconds.  The memory model charges, per rank,

    ``(n_taxa − 2) CLVs × owned_patterns × n_cats × n_states × 8 B``

times an overhead factor — the quantity behind the paper's observations
that the 150×20M Γ run needs ≈4× the PSR footprint and swaps on one and
two 256 GB nodes (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.distributions import DataDistribution
from repro.errors import ReproError
from repro.par.ledger import OpKind
from repro.par.machine import MachineSpec

__all__ = [
    "WorkloadMeta",
    "rank_second_vectors",
    "memory_footprint_per_node",
    "swap_multiplier",
    "modeled_flops",
    "modeled_bytes",
    "modeled_gflops",
]


@dataclass(frozen=True)
class WorkloadMeta:
    """Static per-partition facts the performance model needs."""

    n_taxa: int
    cost_patterns: np.ndarray  # (p,) virtual patterns per partition
    n_cats: np.ndarray  # (p,)
    site_specific: np.ndarray  # (p,) bool
    n_states: int = 4

    def __post_init__(self) -> None:
        p = self.cost_patterns.shape[0]
        if self.n_cats.shape != (p,) or self.site_specific.shape != (p,):
            raise ReproError("inconsistent workload metadata shapes")
        if self.n_taxa < 3:
            raise ReproError("need at least 3 taxa")

    @property
    def n_partitions(self) -> int:
        return int(self.cost_patterns.shape[0])

    @classmethod
    def from_likelihood(cls, lik) -> "WorkloadMeta":
        return cls(
            n_taxa=len(lik.taxa),
            cost_patterns=np.array([p.cost_patterns for p in lik.parts]),
            n_cats=np.array([p.n_cats for p in lik.parts]),
            site_specific=np.array([p.site_specific for p in lik.parts]),
            n_states=lik.parts[0].model.n_states,
        )


def _weighted_patterns(meta: WorkloadMeta, machine: MachineSpec) -> np.ndarray:
    """Per-partition cost weight per owned pattern: categories × PSR factor."""
    weight = meta.n_cats.astype(np.float64)
    weight = np.where(meta.site_specific, weight * machine.psr_site_factor, weight)
    return weight


def rank_second_vectors(
    meta: WorkloadMeta, machine: MachineSpec, dist: DataDistribution
) -> dict[OpKind, np.ndarray]:
    """``B[op][r]`` = seconds rank ``r`` spends on ONE invocation of ``op``
    over every partition's owned patterns."""
    weight = _weighted_patterns(meta, machine)
    base = dist.owned @ weight  # (n_ranks,) pattern·category units
    return {
        op: ns * 1.0e-9 * base for op, ns in machine.op_cost_ns.items()
    }


def rank_second_vector_custom(
    meta: WorkloadMeta,
    machine: MachineSpec,
    dist: DataDistribution,
    op: OpKind,
    per_partition_counts: float | np.ndarray,
) -> np.ndarray:
    """Exact per-rank seconds of one region's ``op`` invocations."""
    weight = _weighted_patterns(meta, machine) * per_partition_counts
    return machine.op_cost_ns[op] * 1.0e-9 * (dist.owned @ weight)


def memory_footprint_per_node(
    meta: WorkloadMeta, machine: MachineSpec, dist: DataDistribution
) -> np.ndarray:
    """Resident bytes per occupied node (ranks packed densely)."""
    clv_entries = meta.n_taxa - 2  # inner-node CLVs held per rank
    per_pattern_bytes = meta.n_cats.astype(np.float64) * meta.n_states * 8.0
    rank_bytes = dist.owned @ per_pattern_bytes * clv_entries
    # alignment storage: one byte-code per pattern per taxon
    rank_bytes += dist.owned.sum(axis=1) * meta.n_taxa
    rank_bytes *= machine.mem_overhead_factor
    n_ranks = dist.n_ranks
    n_nodes = machine.nodes_for_ranks(n_ranks)
    node_bytes = np.zeros(n_nodes)
    for node in range(n_nodes):
        lo = node * machine.cores_per_node
        hi = min(n_ranks, lo + machine.cores_per_node)
        node_bytes[node] = rank_bytes[lo:hi].sum()
    return node_bytes


def _op_name(op: OpKind | str) -> str:
    return op.value if isinstance(op, OpKind) else op


def modeled_flops(op: OpKind | str, units: float, n_states: int = 4) -> float:
    """Analytic FLOPs for ``units`` work units of kernel op ``op``.

    Units are pattern·category (transition matrices for ``pmatrix``), so
    feeding the units a recorded region stream implies or an
    :class:`~repro.obs.hotspots.OpProfiler`'s accumulated units here gives
    identical totals by construction.
    """
    from repro.likelihood.kernel import flops_per_unit

    return flops_per_unit(_op_name(op), n_states) * units


def modeled_bytes(op: OpKind | str, units: float, n_states: int = 4) -> float:
    """Analytic first-order memory traffic (bytes) for ``units`` units."""
    from repro.likelihood.kernel import bytes_per_unit

    return bytes_per_unit(_op_name(op), n_states) * units


def modeled_gflops(
    machine: MachineSpec,
    op: OpKind | str,
    n_states: int = 4,
    site_specific: bool = False,
) -> float:
    """GFLOP/s per core implied by the machine's ``op_cost_ns`` price for
    ``op`` — the throughput the analytic runtime model assumes, to set
    against measured throughput in a hotspot report."""
    from repro.likelihood.kernel import flops_per_unit

    name = _op_name(op)
    ns = machine.op_cost_ns[OpKind(name)]
    if site_specific:
        ns *= machine.psr_site_factor
    return flops_per_unit(name, n_states) / ns


def swap_multiplier(
    meta: WorkloadMeta, machine: MachineSpec, dist: DataDistribution
) -> float:
    """Compute-time multiplier when a node's working set exceeds its RAM.

    1.0 when everything fits; grows linearly in the overcommit ratio with
    slope ``machine.swap_slowdown`` — a simple but effective model of the
    paging degradation in Figure 3's low-node-count Γ runs.
    """
    node_bytes = memory_footprint_per_node(meta, machine, dist)
    worst = float(node_bytes.max())
    excess = worst / machine.ram_per_node_bytes - 1.0
    if excess <= 0:
        return 1.0
    return 1.0 + machine.swap_slowdown * excess

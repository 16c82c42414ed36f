"""Rank ↔ site-pattern assignment.

Two strategies, exactly the two the paper's codes offer:

* **cyclic** — every partition's patterns are spread evenly over all
  ranks (fine-grained, perfectly balanced per partition, but a rank
  touches *every* partition: per-partition model work does not shrink
  with rank count, and per-partition vectors are short);
* **MPS** (``-Q``) — whole partitions are assigned monolithically to
  ranks via the LPT heuristic for the NP-hard multiprocessor-scheduling
  problem.  For ``p ≫ ranks`` this wins by up to an order of magnitude
  (paper, Section II) because each rank runs long contiguous kernels over
  few partitions and touches nothing else.

The ``owned`` matrix (ranks × partitions, in virtual patterns) is what
the performance model replays compute against, and
:func:`split_local_data` materializes real per-rank
:class:`~repro.likelihood.partitioned.PartitionData` shares for the
genuinely distributed backends; both read the MPS owner of a partition
from :func:`~repro.dist.mps.mps_assignment`, so ``owned[r, j]`` is the
``cost_patterns`` of rank ``r``'s share of partition ``j``.

Ownership is a property of the data: a rank's share of a partition it
holds no pattern of is a **zero-pattern** ``PartitionData`` that keeps
the replicated model state (GTR rates, α, branch set) and nothing
else.  The likelihood layers run no kernel for such a share and put an
exact ``0.0`` in its slot of every per-partition vector, so collectives
keep their length on every rank while compute follows ownership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.mps import mps_assignment
from repro.errors import DistributionError

__all__ = [
    "DataDistribution",
    "cyclic_distribution",
    "mps_distribution",
    "auto_distribution",
    "split_local_data",
]


@dataclass(frozen=True)
class DataDistribution:
    """An assignment of (virtual) patterns to ranks.

    Attributes
    ----------
    kind:
        ``"cyclic"`` or ``"mps"``.
    owned:
        ``(n_ranks, n_partitions)`` virtual pattern counts.
    assignment:
        For MPS: ``(n_partitions,)`` owning rank per partition, else ``None``.
    """

    kind: str
    owned: np.ndarray
    assignment: np.ndarray | None = None

    @property
    def n_ranks(self) -> int:
        return int(self.owned.shape[0])

    @property
    def n_partitions(self) -> int:
        return int(self.owned.shape[1])

    def balance(self) -> float:
        """Mean rank load over max rank load (1.0 = perfect)."""
        per_rank = self.owned.sum(axis=1)
        mx = per_rank.max()
        return float(per_rank.mean() / mx) if mx > 0 else 1.0


def cyclic_distribution(cost_patterns: np.ndarray, n_ranks: int) -> DataDistribution:
    """Spread every partition's patterns round-robin over all ranks."""
    cost_patterns = np.asarray(cost_patterns, dtype=np.float64)
    if n_ranks < 1:
        raise DistributionError("need at least one rank")
    if np.any(cost_patterns <= 0):
        raise DistributionError("partitions must have positive pattern counts")
    owned = np.empty((n_ranks, cost_patterns.size))
    for j, total in enumerate(cost_patterns):
        base = np.floor(total / n_ranks)
        rem = total - base * n_ranks
        col = np.full(n_ranks, base)
        # distribute the remainder one (virtual) pattern at a time
        extra = int(np.floor(rem))
        col[:extra] += 1.0
        col[extra] += rem - extra
        owned[:, j] = col
    return DataDistribution(kind="cyclic", owned=owned)


def mps_distribution(cost_patterns: np.ndarray, n_ranks: int) -> DataDistribution:
    """Assign whole partitions to ranks (LPT + refinement)."""
    cost_patterns = np.asarray(cost_patterns, dtype=np.float64)
    if cost_patterns.size < n_ranks:
        raise DistributionError(
            f"MPS needs at least as many partitions ({cost_patterns.size}) "
            f"as ranks ({n_ranks}); use cyclic distribution instead"
        )
    assignment = mps_assignment(cost_patterns, n_ranks)
    owned = np.zeros((n_ranks, cost_patterns.size))
    owned[assignment, np.arange(cost_patterns.size)] = cost_patterns
    return DataDistribution(kind="mps", owned=owned, assignment=assignment)


def auto_distribution(
    cost_patterns: np.ndarray, n_ranks: int, use_mps: bool | None = None
) -> DataDistribution:
    """Pick MPS when requested (or when clearly beneficial), else cyclic.

    Mirrors the papers' practice: the ``-Q`` switch was enabled for the
    ≥500-partition runs, i.e. when partitions substantially outnumber
    ranks.
    """
    cost_patterns = np.asarray(cost_patterns, dtype=np.float64)
    if use_mps is None:
        use_mps = cost_patterns.size >= 2 * n_ranks
    if use_mps:
        return mps_distribution(cost_patterns, n_ranks)
    return cyclic_distribution(cost_patterns, n_ranks)


def split_local_data(parts, rank: int, n_ranks: int, kind: str = "cyclic"):
    """Materialize one rank's real data share from full partition data.

    Cyclic: pattern ``i`` of each partition goes to rank ``i % n_ranks``.
    MPS: a partition goes whole to its :func:`mps_assignment` owner.

    Either way a rank may hold no pattern of some partition (always under
    MPS; under cyclic when a partition has fewer patterns than ranks).
    Its share is then a zero-pattern ``PartitionData``: the list still has
    one entry per partition, so per-partition vectors align across ranks.
    """
    if kind == "cyclic":
        return [
            part.subset(np.arange(rank, part.n_patterns, n_ranks, dtype=np.intp))
            for part in parts
        ]
    if kind == "mps":
        owner = mps_assignment(np.array([p.cost_patterns for p in parts]), n_ranks)
        return [
            part.subset(
                np.arange(part.n_patterns if owner[j] == rank else 0, dtype=np.intp)
            )
            for j, part in enumerate(parts)
        ]
    raise DistributionError(f"unknown distribution kind {kind!r}")

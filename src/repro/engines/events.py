"""Abstract parallel-region events.

A run of the search algorithm is, from the parallelization's point of
view, a sequence of *parallel regions* (paper, Section III-A).  The
instrumented backend records each region in engine-neutral form; the
fork-join and decentralized communication models then assign each region
its collectives and byte counts.  Regions carry per-partition kernel-op
counts so the performance model can replay per-rank compute under any
data distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.likelihood.backend import RegionKind
from repro.par.ledger import OpKind

__all__ = ["RegionKind", "Region", "EventLog"]


@dataclass
class Region:
    """One parallel region in engine-neutral form.

    ``newview_ops`` is the traversal-descriptor length — the number of CLV
    updates — either one scalar (identical for every partition, the common
    case) or an ``(n_partitions,)`` array.
    """

    kind: RegionKind
    n_partitions: int
    n_branch_sets: int
    newview_ops: float | np.ndarray = 0.0

    def max_ops(self) -> float:
        """Descriptor length as broadcast (max across partitions)."""
        if isinstance(self.newview_ops, np.ndarray):
            return float(self.newview_ops.max()) if self.newview_ops.size else 0.0
        return float(self.newview_ops)

    def ops_vector(self) -> np.ndarray:
        """Per-partition CLV-update counts as a dense vector."""
        if isinstance(self.newview_ops, np.ndarray):
            return self.newview_ops.astype(np.float64)
        return np.full(self.n_partitions, float(self.newview_ops))

    def kernel_ops(self) -> dict[OpKind, float | np.ndarray]:
        """Kernel invocations per partition implied by this region."""
        out: dict[OpKind, float | np.ndarray] = {}
        if self.kind in (
            RegionKind.TRAVERSE,
            RegionKind.EVALUATE,
            RegionKind.BRANCH_SETUP,
            RegionKind.PSR_SCAN,
        ):
            out[OpKind.NEWVIEW] = self.newview_ops
        if self.kind in (RegionKind.EVALUATE, RegionKind.PSR_SCAN):
            out[OpKind.EVALUATE] = 1.0
        if self.kind is RegionKind.BRANCH_SETUP:
            out[OpKind.SUMTABLE] = 1.0
        if self.kind is RegionKind.DERIVATIVE:
            out[OpKind.DERIVATIVE] = 1.0
        return out


@dataclass
class EventLog:
    """The recorded region stream of one search run."""

    regions: list[Region] = field(default_factory=list)

    def append(self, region: Region) -> None:
        self.regions.append(region)

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def count(self, kind: RegionKind | None = None) -> int:
        if kind is None:
            return len(self.regions)
        return sum(1 for r in self.regions if r.kind is kind)

    def validate(self) -> None:
        for r in self.regions:
            if r.n_partitions < 1 or r.n_branch_sets < 1:
                raise ReproError("malformed region")
            if isinstance(r.newview_ops, np.ndarray) and r.newview_ops.shape != (
                r.n_partitions,
            ):
                raise ReproError("per-partition op vector has wrong shape")

"""The instrumented backend: runs the search for real, records the
parallel-region stream.

One recorded run stands for both engines because the paper's engines
execute the identical search — they differ only in what each region
communicates.  The :class:`RecordingBackend` therefore wraps a full-data
:class:`~repro.likelihood.partitioned.PartitionedLikelihood`, executes all
kernels exactly like the sequential reference (same numbers, same final
tree), and appends one :class:`~repro.engines.events.Region` per backend
call.
"""

from __future__ import annotations

import numpy as np

from repro.engines.events import EventLog, Region, RegionKind
from repro.likelihood.backend import SequentialBackend, choose_psr_rates
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.model.rates import PerSiteRates
from repro.tree.topology import Node
from repro.tree.traversal import EdgeDescriptor

__all__ = ["RecordingBackend"]


def _ops_summary(descriptors: EdgeDescriptor) -> float | np.ndarray:
    lens = np.array(descriptors.op_counts(), dtype=np.float64)
    if np.all(lens == lens[0]):
        return float(lens[0])
    return lens


class RecordingBackend(SequentialBackend):
    """Sequential execution + region recording.

    The recorded :class:`EventLog` is consumed by
    :class:`~repro.engines.forkjoin.ForkJoinCommModel` and
    :class:`~repro.engines.decentral.DecentralizedCommModel` and by the
    runtime synthesizer in :mod:`repro.perf`.
    """

    def __init__(self, lik: PartitionedLikelihood, log: EventLog | None = None) -> None:
        super().__init__(lik)
        self.log = log if log is not None else EventLog()

    # -- helpers -------------------------------------------------------- #
    def _record(self, kind: RegionKind, ops: float | np.ndarray = 0.0) -> None:
        self.log.append(
            Region(
                kind=kind,
                n_partitions=self.lik.n_partitions,
                n_branch_sets=self.lik.n_branch_sets,
                newview_ops=ops,
            )
        )

    # -- instrumented backend API --------------------------------------- #
    def evaluate(self, u: Node, v: Node) -> tuple[float, np.ndarray]:
        total, per_part, descriptors = self.lik.evaluate(u, v)
        self._record(RegionKind.EVALUATE, _ops_summary(descriptors))
        return total, per_part

    def begin_branch(self, u: Node, v: Node):
        descriptors = self.lik.ensure_clvs(u, v)
        self._record(RegionKind.BRANCH_SETUP, _ops_summary(descriptors))
        return self.lik.prepare_branch(u, v)

    def derivatives(self, handle, t: np.ndarray):
        d1, d2 = self.lik.branch_derivatives(handle, t)
        self._record(RegionKind.DERIVATIVE)
        return d1, d2

    def set_alphas(self, alphas: dict[int, float]) -> None:
        super().set_alphas(alphas)
        self._record(RegionKind.PARAM_ALPHA)

    def set_gtr_rates(self, rates: dict[int, np.ndarray]) -> None:
        super().set_gtr_rates(rates)
        self._record(RegionKind.PARAM_GTR)

    def optimize_psr(self, u: Node, v: Node, candidates: np.ndarray) -> None:
        # Scan: one region per candidate rate (each is a full traversal plus
        # a per-site likelihood computation that stays rank-local).
        lik = self.lik
        psr_parts = [
            i
            for i, part in enumerate(lik.parts)
            if isinstance(part.rate_het, PerSiteRates)
        ]
        if not psr_parts:
            return
        tables: dict[int, list[np.ndarray]] = {i: [] for i in psr_parts}
        for rate in candidates:
            for i in psr_parts:
                lik.set_psr_rates(i, np.full(lik.parts[i].n_patterns, float(rate)))
            descriptors = lik.ensure_clvs(u, v)
            site_lhs = lik.site_log_likelihoods(u, v)
            self._record(RegionKind.PSR_SCAN, _ops_summary(descriptors))
            for i in psr_parts:
                tables[i].append(site_lhs[i])
        for i in psr_parts:
            rates = choose_psr_rates(candidates, np.vstack(tables[i]))
            part = lik.parts[i]
            rate_het = part.rate_het
            assert isinstance(rate_het, PerSiteRates)
            rate_het.set_rates(rates)
            rate_het.normalize(part.weights)
            lik.invalidate_partition(i)
        self._record(RegionKind.PARAM_PSR)

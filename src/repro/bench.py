"""Benchmark harness support: recorded runs and paper-artifact synthesis.

Every figure/table benchmark follows the same recipe:

1. generate the paper's workload (:mod:`repro.datasets`);
2. run the *real* search once on a
   :class:`~repro.likelihood.backend.SequentialBackend`, whose log is the
   engine-neutral region stream (both engines execute the identical
   algorithm, so one log serves both — the paper's premise);
3. synthesize per-engine runtimes / byte breakdowns for the machine
   configurations the paper reports.

Recordings are cached per-process because several benchmarks share
workloads.  Set ``REPRO_BENCH_FULL=1`` for longer searches (more SPR
rounds and larger per-partition samples); defaults are sized so the whole
benchmark suite completes in minutes on a laptop while preserving the
region-stream *structure* the results depend on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.datasets import (
    PaperWorkload,
    large_unpartitioned_workload,
    partitioned_workload,
)
from repro.dist.distributions import DataDistribution, auto_distribution
from repro.likelihood.backend import EventLog, SequentialBackend
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.model.rates import PerSiteRates
from repro.par.machine import HITS_CLUSTER, MachineSpec
from repro.perf.costmodel import WorkloadMeta
from repro.perf.price import RuntimeReport, simulate_runtime
from repro.search.search import SearchConfig, SearchResult, hill_climb

__all__ = [
    "FULL",
    "RecordedRun",
    "record_partitioned",
    "record_large_unpartitioned",
    "engine_pair",
]

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

_CACHE: dict[tuple, "RecordedRun"] = {}


@dataclass
class RecordedRun:
    """One search: workload + its region log + outcome."""

    workload: PaperWorkload
    log: EventLog
    meta: WorkloadMeta
    result: SearchResult
    rate_mode: str
    per_partition_branches: bool

    def distribution(self, n_ranks: int, use_mps: bool | None = None) -> DataDistribution:
        return auto_distribution(self.meta.cost_patterns, n_ranks, use_mps)

    def runtime(
        self,
        engine: str,
        n_ranks: int,
        machine: MachineSpec = HITS_CLUSTER,
        use_mps: bool | None = None,
    ) -> RuntimeReport:
        """The log priced under ``engine`` (``"decentralized"`` or
        ``"forkjoin"``) on ``n_ranks`` ranks."""
        dist = self.distribution(n_ranks, use_mps)
        return simulate_runtime(self.log, engine, self.meta, machine, dist)


def _search_config(rate_mode: str) -> SearchConfig:
    if FULL:
        return SearchConfig(
            max_iterations=4,
            radius_max=4,
            alpha_iterations=16,
            psr_candidates=12,
        )
    return SearchConfig(
        max_iterations=2,
        radius_max=2,
        alpha_iterations=10,
        psr_candidates=8,
        lazy_newton_iters=6,
    )


def _uncompressed_likelihood(
    workload: PaperWorkload,
    rate_mode: str,
    per_partition_branches: bool = False,
) -> PartitionedLikelihood:
    """The workload's likelihood with one pattern per site.

    The generated genes are equally long, so without pattern compression
    all partitions have one shape and run as a single partition stack —
    what makes the 1000-partition recordings affordable.  Each site
    weighs ``pattern_scale`` (it stands for that many virtual sites).
    """
    lik = workload.build_likelihood(rate_mode, per_partition_branches)
    parts = []
    for part, partition in zip(lik.parts, workload.scheme):
        patterns = workload.alignment.slice_sites(partition.sites).data
        n_sites = patterns.shape[1]
        parts.append(PartitionData(
            name=part.name,
            patterns=patterns,
            weights=np.full(n_sites, part.pattern_scale),
            model=part.model,
            rate_het=(PerSiteRates(n_patterns=n_sites)
                      if rate_mode == "psr" else part.rate_het),
            branch_set=part.branch_set,
            pattern_scale=part.pattern_scale,
            alphabet=part.alphabet,
        ))
    return PartitionedLikelihood(lik.tree, parts, lik.taxa)


def record_partitioned(
    n_partitions: int,
    rate_mode: str,
    per_partition_branches: bool = False,
) -> RecordedRun:
    """The search on one of the Figure 4 / Table I datasets."""
    key = ("part", n_partitions, rate_mode, per_partition_branches, FULL)
    if key in _CACHE:
        return _CACHE[key]
    sites = 40 if FULL else 24
    workload = partitioned_workload(n_partitions, sites_per_partition=sites)
    lik = _uncompressed_likelihood(workload, rate_mode, per_partition_branches)
    backend = SequentialBackend(lik)
    result = hill_climb(backend, _search_config(rate_mode))
    run = RecordedRun(
        workload=workload,
        log=backend.log,
        meta=WorkloadMeta.from_likelihood(lik),
        result=result,
        rate_mode=rate_mode,
        per_partition_branches=per_partition_branches,
    )
    _CACHE[key] = run
    return run


def record_large_unpartitioned(rate_mode: str) -> RecordedRun:
    """The search on the Figure 3 dataset (150 × 20M bp virtual)."""
    key = ("large", rate_mode, FULL)
    if key in _CACHE:
        return _CACHE[key]
    workload = large_unpartitioned_workload(
        real_sites=800 if FULL else 400
    )
    lik = _uncompressed_likelihood(workload, rate_mode)
    backend = SequentialBackend(lik)
    config = SearchConfig(
        max_iterations=2 if FULL else 1,
        radius_max=2,
        alpha_iterations=10,
        psr_candidates=8,
        lazy_newton_iters=6,
    )
    result = hill_climb(backend, config)
    run = RecordedRun(
        workload=workload,
        log=backend.log,
        meta=WorkloadMeta.from_likelihood(lik),
        result=result,
        rate_mode=rate_mode,
        per_partition_branches=False,
    )
    _CACHE[key] = run
    return run


def engine_pair(
    run: RecordedRun,
    n_ranks: int,
    machine: MachineSpec = HITS_CLUSTER,
    use_mps: bool | None = None,
) -> tuple[RuntimeReport, RuntimeReport]:
    """(ExaML report, RAxML-Light report) for one configuration."""
    return (run.runtime("decentralized", n_ranks, machine, use_mps),
            run.runtime("forkjoin", n_ranks, machine, use_mps))

"""Pinned kernel-profile and CLV-memory figures.

One fixed profiled ``hill_climb`` on each of three workloads must give
exactly these :meth:`OpProfiler.records` (every field but ``wall_ns``) and
``clv_stats()``:

* Γ-4 over three partitions, two of one shape (one stack of two rows) and
  one of another; after the search one partition's alpha changes alone,
  so the next evaluation's traversal runs masked to one row of the
  two-row stack and skips the other stack;
* per-site rates (PSR: one P matrix per pattern);
* the fork-join worker path: a :class:`DescriptorExecutor` fed the wire
  descriptors and branch lengths the search's regions announce, as the
  master broadcasts them.

The Γ likelihood's end-of-search ``gc()`` eviction is pinned too.  The
figures were taken from the accounting that charged every kernel call its
units and bytes as it ran; the profiler that derives them from the stack's
shape must reproduce them exactly.
"""

from __future__ import annotations

import numpy as np

from repro.engines.executor import DescriptorExecutor
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.model.rates import DiscreteGamma, PerSiteRates
from repro.model.substitution import SubstitutionModel
from repro.obs.hotspots import OpProfiler
from repro.search.search import SearchConfig, hill_climb
from repro.tree.random_trees import random_topology

N_TAXA = 6
CONFIG = SearchConfig(max_iterations=1, radius_max=2)


def _workload(seed: int, pattern_counts: list[int], mode: str):
    rng = np.random.default_rng(seed)
    taxa = [f"t{i}" for i in range(N_TAXA)]
    parts = []
    for j, n in enumerate(pattern_counts):
        masks = (1 << rng.integers(0, 4, (N_TAXA, n))).astype(np.uint32)
        model = SubstitutionModel(rng.uniform(0.5, 3.0, 6),
                                  rng.dirichlet(np.full(4, 8.0)))
        rate_het = (DiscreteGamma(alpha=float(rng.uniform(0.4, 1.5)), n_cats=4)
                    if mode == "gamma"
                    else PerSiteRates(rates=rng.uniform(0.3, 2.0, n)))
        parts.append(PartitionData(f"g{j}", masks, rng.uniform(0.5, 3.0, n),
                                   model, rate_het))
    tree = random_topology(taxa, rng=rng)
    for u, v in tree.edges():
        tree.set_edge_length(u, v, rng.uniform(0.02, 0.5, 1))
    return PartitionedLikelihood(tree, parts, taxa)


class _MirroredBackend(SequentialBackend):
    """A sequential search whose traversal regions also run, as wire
    descriptors, on a worker executor over the same partitions."""

    def __init__(self, lik: PartitionedLikelihood,
                 executor: DescriptorExecutor) -> None:
        super().__init__(lik)
        self.executor = executor
        self.tables: list[np.ndarray] = []

    def _announce(self, command: str, *payload) -> None:
        if command in ("evaluate", "branch_setup", "traverse"):
            descriptors, u, v = payload
            self.executor.run_ops(descriptors.ops)
            if command == "branch_setup":
                self.tables = self.executor.sumtables(u.id, v.id)
            else:
                self.executor.evaluate(u.id, v.id, self.tree.edge_length(u, v))
        elif command == "derivative":
            self.executor.derivatives(self.tables, payload[0],
                                      self.n_branch_sets)


def _records(prof: OpProfiler) -> list[tuple]:
    return [(r["op"], r["partition"], r["count"], r["units"],
             r["alloc_bytes"], r["n_states"], r["site_specific"])
            for r in prof.records()]


def _clv(owner) -> list[tuple]:
    return [(s["partition"], s["entries"], s["live_bytes"], s["peak_bytes"],
             s["evictions"], s["evicted_bytes"]) for s in owner.clv_stats()]


GAMMA_RECORDS = [("derivative", 0, 172, 8256.0, 0.0, 4, False),
                 ("derivative", 1, 172, 8256.0, 0.0, 4, False),
                 ("derivative", 2, 172, 6192.0, 0.0, 4, False),
                 ("evaluate", 0, 52, 2496.0, 0.0, 4, False),
                 ("evaluate", 1, 52, 2496.0, 0.0, 4, False),
                 ("evaluate", 2, 52, 1872.0, 0.0, 4, False),
                 ("newview", 0, 232, 11136.0, 378624.0, 4, False),
                 ("newview", 1, 236, 11328.0, 385152.0, 4, False),
                 ("newview", 2, 232, 8352.0, 283968.0, 4, False),
                 ("pmatrix", 0, 516, 2064.0, 264192.0, 4, False),
                 ("pmatrix", 1, 524, 2096.0, 268288.0, 4, False),
                 ("pmatrix", 2, 516, 2064.0, 264192.0, 4, False),
                 ("sumtable", 0, 40, 1920.0, 61440.0, 4, False),
                 ("sumtable", 1, 40, 1920.0, 61440.0, 4, False),
                 ("sumtable", 2, 40, 1440.0, 46080.0, 4, False)]
GAMMA_CLV = [(0, 17, 27744, 27744, 0, 0),
             (1, 17, 27744, 27744, 0, 0),
             (2, 17, 20808, 20808, 0, 0)]
GAMMA_GC = 39
GAMMA_CLV_AFTER_GC = [(0, 4, 6528, 27744, 13, 21216),
                      (1, 4, 6528, 27744, 13, 21216),
                      (2, 4, 4896, 20808, 13, 15912)]
PSR_RECORDS = [("derivative", 0, 338, 3380.0, 0.0, 4, True),
               ("derivative", 1, 338, 3380.0, 0.0, 4, True),
               ("evaluate", 0, 44, 440.0, 0.0, 4, True),
               ("evaluate", 1, 44, 440.0, 0.0, 4, True),
               ("newview", 0, 208, 2080.0, 83200.0, 4, True),
               ("newview", 1, 208, 2080.0, 83200.0, 4, True),
               ("pmatrix", 0, 460, 4600.0, 588800.0, 4, True),
               ("pmatrix", 1, 460, 4600.0, 588800.0, 4, True),
               ("sumtable", 0, 49, 490.0, 15680.0, 4, True),
               ("sumtable", 1, 49, 490.0, 15680.0, 4, True)]
PSR_CLV = [(0, 21, 8400, 8400, 0, 0), (1, 21, 8400, 8400, 0, 0)]
EXECUTOR_RECORDS = [("derivative", 0, 226, 10848.0, 0.0, 4, False),
                    ("derivative", 1, 226, 10848.0, 0.0, 4, False),
                    ("derivative", 2, 226, 8136.0, 0.0, 4, False),
                    ("evaluate", 0, 49, 2352.0, 0.0, 4, False),
                    ("evaluate", 1, 49, 2352.0, 0.0, 4, False),
                    ("evaluate", 2, 49, 1764.0, 0.0, 4, False),
                    ("newview", 0, 227, 10896.0, 370464.0, 4, False),
                    ("newview", 1, 227, 10896.0, 370464.0, 4, False),
                    ("newview", 2, 227, 8172.0, 277848.0, 4, False),
                    ("pmatrix", 0, 503, 2012.0, 257536.0, 4, False),
                    ("pmatrix", 1, 503, 2012.0, 257536.0, 4, False),
                    ("pmatrix", 2, 503, 2012.0, 257536.0, 4, False),
                    ("sumtable", 0, 42, 2016.0, 64512.0, 4, False),
                    ("sumtable", 1, 42, 2016.0, 64512.0, 4, False),
                    ("sumtable", 2, 42, 1512.0, 48384.0, 4, False)]
EXECUTOR_CLV = [(0, 19, 31008, 31008, 0, 0),
                (1, 19, 31008, 31008, 0, 0),
                (2, 19, 23256, 23256, 0, 0)]


def test_gamma_stacked_and_masked():
    lik = _workload(11, [12, 12, 9], "gamma")
    assert [s.partitions for s in lik.stacks] == [(0, 1), (2,)]
    lik.profiler = prof = OpProfiler()
    backend = SequentialBackend(lik)
    hill_climb(backend, CONFIG)
    backend.set_alphas({1: 0.9})
    backend.evaluate(*lik.tree.edges()[0])
    records = _records(prof)
    newviews = {p: c for op, p, c, *_ in records if op == "newview"}
    assert newviews[0] != newviews[1]  # some op ran on one row of the stack
    assert records == GAMMA_RECORDS
    assert _clv(lik) == GAMMA_CLV
    assert lik.gc() == GAMMA_GC
    assert _clv(lik) == GAMMA_CLV_AFTER_GC


def test_psr_one_matrix_per_pattern():
    lik = _workload(12, [10, 10], "psr")
    lik.profiler = prof = OpProfiler()
    hill_climb(SequentialBackend(lik), CONFIG)
    assert all(r["site_specific"] for r in prof.records())
    assert _records(prof) == PSR_RECORDS
    assert _clv(lik) == PSR_CLV


def test_descriptor_executor_worker_path():
    lik = _workload(13, [12, 12, 9], "gamma")
    node_taxon = {leaf.id: lik.taxon_row[leaf.label]
                  for leaf in lik.tree.leaves()}
    executor = DescriptorExecutor(lik.parts, node_taxon)
    executor.profiler = prof = OpProfiler()
    hill_climb(_MirroredBackend(lik, executor), CONFIG)
    assert _records(prof) == EXECUTOR_RECORDS
    assert _clv(executor) == EXECUTOR_CLV

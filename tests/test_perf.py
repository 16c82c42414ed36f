"""Performance-model tests: cost replay, memory/swap model, runtime
synthesis, and the paper's qualitative runtime inequalities."""

import numpy as np
import pytest

from repro.dist.distributions import cyclic_distribution, mps_distribution
from repro.engines import EventLog, Region, RegionKind
from repro.par.machine import HITS_CLUSTER, MachineSpec
from repro.perf.costmodel import (
    WorkloadMeta,
    memory_footprint_per_node,
    rank_second_vectors,
    swap_multiplier,
)
from repro.perf.price import simulate_runtime

GIB = 1024**3


def meta_for(p=10, patterns=1000.0, cats=4, psr=False, n_taxa=52):
    return WorkloadMeta(
        n_taxa=n_taxa,
        cost_patterns=np.full(p, patterns),
        n_cats=np.full(p, 1 if psr else cats, dtype=int),
        site_specific=np.full(p, psr),
    )


def synthetic_log(p=10, nbs=1, regions=200):
    log = EventLog()
    for _ in range(regions):
        log.append(Region(RegionKind.BRANCH_SETUP, p, nbs, newview_ops=4.0))
        for _ in range(4):
            log.append(Region(RegionKind.DERIVATIVE, p, nbs))
        log.append(Region(RegionKind.EVALUATE, p, nbs, newview_ops=2.0))
    return log


class TestWorkloadMeta:
    def test_from_likelihood(self, sim_dataset):
        from repro.likelihood.partitioned import PartitionedLikelihood

        aln, tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, tree.copy(), rate_mode="gamma")
        meta = WorkloadMeta.from_likelihood(lik)
        assert meta.n_partitions == 1
        assert meta.n_cats[0] == 4
        assert meta.n_taxa == 10


class TestComputeReplay:
    def test_rank_seconds_shrink_with_more_ranks(self):
        meta = meta_for()
        m = HITS_CLUSTER
        v48 = rank_second_vectors(meta, m, cyclic_distribution(meta.cost_patterns, 48))
        v480 = rank_second_vectors(meta, m, cyclic_distribution(meta.cost_patterns, 480))
        for op in v48:
            assert v480[op].max() < v48[op].max()

    def test_gamma_costs_four_times_psr(self):
        m = HITS_CLUSTER
        dist_g = cyclic_distribution(meta_for(cats=4).cost_patterns, 48)
        g = rank_second_vectors(meta_for(cats=4), m, dist_g)
        p = rank_second_vectors(meta_for(psr=True), m, dist_g)
        from repro.par.ledger import OpKind

        ratio = g[OpKind.NEWVIEW].max() / p[OpKind.NEWVIEW].max()
        assert ratio == pytest.approx(4.0 / m.psr_site_factor, rel=1e-9)


class TestMemoryModel:
    def test_gamma_needs_four_times_psr_memory(self):
        m = HITS_CLUSTER
        dist = cyclic_distribution(meta_for().cost_patterns, 48)
        g = memory_footprint_per_node(meta_for(cats=4), m, dist).max()
        p = memory_footprint_per_node(meta_for(psr=True), m, dist).max()
        assert g / p == pytest.approx(4.0, rel=0.05)

    def test_fig3_swap_behaviour(self):
        """Γ on the 150x20M dataset swaps on 1-2 nodes but not on 4+;
        PSR never swaps (paper, Section IV-C)."""
        meta_g = meta_for(p=1, patterns=12_597_450, cats=4, n_taxa=150)
        meta_p = meta_for(p=1, patterns=12_597_450, psr=True, n_taxa=150)
        m = HITS_CLUSTER  # 256 GB fat nodes
        for nodes, expect_swap in [(1, True), (2, True), (4, False)]:
            dist = cyclic_distribution(meta_g.cost_patterns, 48 * nodes)
            factor = swap_multiplier(meta_g, m, dist)
            assert (factor > 1.0) == expect_swap, (nodes, factor)
        for nodes in (1, 2, 4):
            dist = cyclic_distribution(meta_p.cost_patterns, 48 * nodes)
            assert swap_multiplier(meta_p, m, dist) == 1.0

    def test_footprint_splits_across_nodes(self):
        meta = meta_for(p=4, patterns=1e6)
        m = HITS_CLUSTER
        one = memory_footprint_per_node(meta, m, cyclic_distribution(meta.cost_patterns, 48)).max()
        two = memory_footprint_per_node(meta, m, cyclic_distribution(meta.cost_patterns, 96)).max()
        assert two == pytest.approx(one / 2, rel=0.02)


class TestRuntimeSynthesis:
    def test_decentralized_no_slower_than_forkjoin(self):
        meta = meta_for(p=100)
        log = synthetic_log(p=100)
        dist = cyclic_distribution(meta.cost_patterns, 192)
        ex = simulate_runtime(log, "decentralized", meta, HITS_CLUSTER, dist)
        fj = simulate_runtime(log, "forkjoin", meta, HITS_CLUSTER, dist)
        assert ex.compute_s == pytest.approx(fj.compute_s)
        assert ex.comm_s < fj.comm_s
        assert ex.total_s < fj.total_s

    def test_forkjoin_penalty_grows_with_partitions(self):
        m = HITS_CLUSTER
        ratios = []
        for p in (10, 100, 1000):
            meta = meta_for(p=p, patterns=1000)
            log = synthetic_log(p=p)
            dist = cyclic_distribution(meta.cost_patterns, 192)
            ex = simulate_runtime(log, "decentralized", meta, m, dist)
            fj = simulate_runtime(log, "forkjoin", meta, m, dist)
            ratios.append(fj.total_s / ex.total_s)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_compute_scales_down_with_ranks(self):
        meta = meta_for(p=10, patterns=1e5)
        log = synthetic_log(p=10)
        m = HITS_CLUSTER
        r48 = simulate_runtime(log, "decentralized", meta, m,
                               cyclic_distribution(meta.cost_patterns, 48))
        r480 = simulate_runtime(log, "decentralized", meta, m,
                                cyclic_distribution(meta.cost_patterns, 480))
        assert r480.compute_s < r48.compute_s / 5

    def test_nonuniform_regions_priced_exactly(self):
        meta = meta_for(p=4)
        log = EventLog([
            Region(RegionKind.TRAVERSE, 4, 1,
                   newview_ops=np.array([1.0, 0.0, 0.0, 0.0])),
        ])
        dist = mps_distribution(meta.cost_patterns, 4)
        rep = simulate_runtime(log, "decentralized", meta,
                               HITS_CLUSTER, dist)
        # only one partition computes; with MPS that's one rank's work
        uniform = EventLog([Region(RegionKind.TRAVERSE, 4, 1, newview_ops=1.0)])
        rep_u = simulate_runtime(uniform, "decentralized", meta,
                                 HITS_CLUSTER, dist)
        assert rep.compute_s == pytest.approx(rep_u.compute_s)

    def test_report_fields(self):
        meta = meta_for()
        log = synthetic_log()
        dist = cyclic_distribution(meta.cost_patterns, 96)
        rep = simulate_runtime(log, "forkjoin", meta, HITS_CLUSTER, dist)
        assert (rep.engine, rep.n_ranks) == ("forkjoin", 96)
        assert rep.comm_s > 0
        assert rep.total_s == rep.compute_s + rep.comm_s


class TestMPSvsCyclic:
    def test_mps_helps_many_partitions(self):
        """Paper §II: monolithic distribution wins when partitions ≫ ranks
        because cyclic splits every partition into tiny slivers whose
        per-region overhead cannot amortize.  In our model the effect
        shows as (much) better per-rank locality: identical totals but
        far fewer partition touches per rank."""
        meta = meta_for(p=1000, patterns=1000)
        cy = cyclic_distribution(meta.cost_patterns, 192)
        mp = mps_distribution(meta.cost_patterns, 192)
        # both conserve total work
        assert cy.owned.sum() == pytest.approx(mp.owned.sum())
        touches_cy = (cy.owned > 0).sum(axis=1).max()
        touches_mp = (mp.owned > 0).sum(axis=1).max()
        assert touches_mp < touches_cy / 50
        # and MPS stays decently balanced
        assert mp.balance() > 0.85

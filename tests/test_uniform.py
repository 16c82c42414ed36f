"""The stacked likelihood on a uniform dataset (equal pattern counts: all
partitions in one stack) vs the per-partition reference backend of
``reference_likelihood.py``: must agree to float64 tolerance on every
operation, and through the optimizers and the search."""

import numpy as np
import pytest

from reference_likelihood import ReferenceBackend

from repro.bench import _uncompressed_likelihood
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.optimize_branch import smooth_all_branches
from repro.likelihood.optimize_model import optimize_model
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.search.search import SearchConfig, hill_climb
from repro.datasets import partitioned_workload


@pytest.fixture(scope="module")
def workload():
    return partitioned_workload(6, n_taxa=10, sites_per_partition=25)


def _copies(parts):
    return [p.subset(np.arange(p.n_patterns)) for p in parts]


def build_pair(workload, mode, per_partition=False):
    """(reference backend, stacked backend) on identical uncompressed data."""
    uni = _uncompressed_likelihood(workload, mode, per_partition)
    assert len(uni.stacks) == 1 and len(uni.stacks[0].partitions) == 6
    return (ReferenceBackend(uni.tree.copy(), _copies(uni.parts), uni.taxa),
            SequentialBackend(uni))


@pytest.mark.parametrize("mode", ["gamma", "psr", "none"])
class TestEquivalence:
    def test_evaluate(self, workload, mode):
        ref, uni = build_pair(workload, mode)
        u1, v1 = ref.tree.edges()[0]
        u2, v2 = uni.tree.edges()[0]
        a, _ = ref.evaluate(u1, v1)
        b, _ = uni.evaluate(u2, v2)
        assert b == pytest.approx(a, rel=1e-12)

    def test_per_partition_vectors_match(self, workload, mode):
        ref, uni = build_pair(workload, mode)
        _, pa = ref.evaluate(*ref.tree.edges()[0])
        _, pb = uni.evaluate(*uni.tree.edges()[0])
        assert np.allclose(pa, pb, rtol=1e-12)

    def test_derivatives_match(self, workload, mode):
        ref, uni = build_pair(workload, mode)
        for be in (ref, uni):
            u, v = be.tree.edges()[3]
            be._ws = be.begin_branch(u, v)
            be._t = be.tree.edge_length(u, v).copy()
        d1a, d2a = ref.derivatives(ref._ws, ref._t)
        d1b, d2b = uni.derivatives(uni._ws, uni._t)
        assert np.allclose(d1a, d1b, rtol=1e-9)
        assert np.allclose(d2a, d2b, rtol=1e-9)

    def test_optimization_round_matches(self, workload, mode):
        ref, uni = build_pair(workload, mode)
        outs = []
        for be in (ref, uni):
            smooth_all_branches(be, passes=1)
            u, v = be.tree.edges()[0]
            outs.append(optimize_model(be, u, v, alpha_iterations=18,
                                       psr_candidates=6, optimize_rates=False))
        # the stacked matmuls contract in a different order, so golden-
        # section comparisons of nearly-equal likelihoods may bracket into
        # different halves mid-search; once converged both reach the same
        # optimum to optimizer (not bitwise) tolerance
        assert outs[0] == pytest.approx(outs[1], rel=1e-6)

    def test_gtr_round_reaches_comparable_optimum(self, workload, mode):
        # GTR coordinate descent is the most chaos-sensitive path: assert
        # the two implementations end within optimizer tolerance
        ref, uni = build_pair(workload, mode)
        outs = []
        for be in (ref, uni):
            smooth_all_branches(be, passes=1)
            u, v = be.tree.edges()[0]
            from repro.likelihood.optimize_model import optimize_gtr

            outs.append(optimize_gtr(be, u, v, iterations=18))
        assert outs[0] == pytest.approx(outs[1], rel=2e-3)

    def test_full_search_matches(self, workload, mode):
        ref, uni = build_pair(workload, mode)
        cfg = SearchConfig(max_iterations=2, radius_max=2, alpha_iterations=6,
                           psr_candidates=6)
        r1 = hill_climb(ref, cfg)
        r2 = hill_climb(uni, cfg)
        # search decisions can diverge on near-ties (see above); both ends
        # must land on (near-)equivalent optima
        assert r2.logl == pytest.approx(r1.logl, rel=2e-4)
        from repro.tree.distances import rf_distance

        assert rf_distance(ref.tree, uni.tree) <= 2


class TestPerPartitionBranches:
    def test_equivalence_under_minus_m(self, workload):
        ref, uni = build_pair(workload, "gamma", per_partition=True)
        smooth_all_branches(ref, passes=1)
        smooth_all_branches(uni, passes=1)
        a, pa = ref.evaluate(*ref.tree.edges()[0])
        b, pb = uni.evaluate(*uni.tree.edges()[0])
        assert b == pytest.approx(a, rel=1e-6)
        assert np.allclose(pa, pb, rtol=1e-5)


class TestPreconditions:
    """What the uniform class refused, the one class stacks by shape."""

    def test_mixed_rate_models_split_into_stacks(self, workload):
        from repro.model.rates import PerSiteRates

        uni = _uncompressed_likelihood(workload, "gamma")
        parts = _copies(uni.parts)
        parts[0].rate_het = PerSiteRates(n_patterns=parts[0].n_patterns)
        lik = PartitionedLikelihood(uni.tree.copy(), parts, uni.taxa)
        assert [s.partitions for s in lik.stacks] == [(0,), (1, 2, 3, 4, 5)]
        ref = ReferenceBackend(lik.tree.copy(), _copies(parts), uni.taxa)
        u, v = lik.tree.edges()[0]
        _, per_part, _ = lik.evaluate(u, v)
        assert np.allclose(per_part, ref.evaluate(*ref.tree.edges()[0])[1],
                           rtol=1e-12)

    def test_ragged_patterns_split_into_stacks(self, workload):
        uni = _uncompressed_likelihood(workload, "gamma")
        parts = _copies(uni.parts)
        parts[0] = parts[0].subset(np.arange(3))
        lik = PartitionedLikelihood(uni.tree.copy(), parts, uni.taxa)
        assert [s.partitions for s in lik.stacks] == [(0,), (1, 2, 3, 4, 5)]
        ref = ReferenceBackend(lik.tree.copy(), _copies(parts), uni.taxa)
        u, v = lik.tree.edges()[0]
        _, per_part, _ = lik.evaluate(u, v)
        assert np.allclose(per_part, ref.evaluate(*ref.tree.edges()[0])[1],
                           rtol=1e-12)

    def test_gc_bounds_cache(self, workload):
        uni = _uncompressed_likelihood(workload, "none")
        tree = uni.tree
        be = SequentialBackend(uni)
        for u, v in tree.edges():
            be.evaluate(u, v)
        # hammer the cache with invalidations + re-evaluations
        for i in range(6):
            uni.set_gtr_rates(0, np.array([1, 1, 1, 1, 1 + i * 0.1, 1.0]))
            be.evaluate(*tree.edges()[0])
        assert uni.clv_stats()[0]["entries"] <= 3 * (len(uni.taxa) - 2)

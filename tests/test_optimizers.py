"""Optimizer tests: Newton branch lengths, golden-section model search,
and PSR rate optimization."""

import numpy as np
import pytest

from repro.errors import LikelihoodError
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.optimize_branch import (
    BL_MAX,
    BL_MIN,
    optimize_branch,
    smooth_all_branches,
)
from repro.likelihood.optimize_model import (
    VectorGolden,
    default_psr_candidates,
    optimize_alphas,
    optimize_gtr,
    optimize_model,
    optimize_psr,
)
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.seq.partitions import PartitionScheme


@pytest.fixture()
def backend(sim_dataset):
    aln, true_tree, _ = sim_dataset
    lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
    return SequentialBackend(lik)


class TestVectorGolden:
    def _run(self, funcs, lo, hi, iters=40):
        golden = VectorGolden(np.asarray(lo, float), np.asarray(hi, float))
        for _ in range(iters):
            xs = golden.next_candidates()
            golden.update(np.array([f(x) for f, x in zip(funcs, xs)]))
        return golden.best()

    def test_finds_independent_maxima(self):
        funcs = [
            lambda x: -((x - 1.0) ** 2),
            lambda x: -((x + 2.0) ** 2),
            lambda x: -((x - 3.5) ** 2),
        ]
        best = self._run(funcs, [-5, -5, -5], [5, 5, 5])
        assert np.allclose(best, [1.0, -2.0, 3.5], atol=1e-3)

    def test_bracket_shrinks_geometrically(self):
        golden = VectorGolden(np.zeros(1), np.ones(1))
        for _ in range(20):
            xs = golden.next_candidates()
            golden.update(-((xs - 0.3) ** 2))
        assert golden.width()[0] < 0.62 ** 17

    def test_boundary_maximum(self):
        best = self._run([lambda x: x], [0], [1])
        assert best[0] > 0.95

    def test_bad_bounds_rejected(self):
        with pytest.raises(LikelihoodError):
            VectorGolden(np.array([1.0]), np.array([1.0]))

    def test_update_shape_checked(self):
        golden = VectorGolden(np.zeros(2), np.ones(2))
        golden.next_candidates()
        with pytest.raises(LikelihoodError):
            golden.update(np.zeros(3))


class TestBranchOptimization:
    def test_single_branch_improves(self, backend):
        tree = backend.tree
        u, v = tree.edges()[2]
        tree.set_edge_length(u, v, 2.5)  # clearly wrong
        before, _ = backend.evaluate(u, v)
        optimize_branch(backend, u, v)
        after, _ = backend.evaluate(u, v)
        assert after > before

    def test_result_is_stationary_point(self, backend):
        tree = backend.tree
        u, v = tree.edges()[2]
        optimize_branch(backend, u, v, tol=1e-10)
        handle = backend.begin_branch(u, v)
        d1, _ = backend.derivatives(handle, tree.edge_length(u, v))
        assert d1.shape == (1,)  # per branch set: joint lengths, one sum
        assert abs(d1[0]) < 1e-2

    def test_respects_bounds(self, backend):
        tree = backend.tree
        for u, v in tree.edges():
            optimize_branch(backend, u, v)
            t = tree.edge_length(u, v)
            assert np.all(t >= BL_MIN) and np.all(t <= BL_MAX)

    def test_smoothing_monotone(self, backend):
        u, v = backend.tree.edges()[0]
        before, _ = backend.evaluate(u, v)
        smooth_all_branches(backend, passes=2)
        after, _ = backend.evaluate(u, v)
        assert after >= before - 1e-9

    def test_invalid_parameters(self, backend):
        u, v = backend.tree.edges()[0]
        with pytest.raises(LikelihoodError):
            optimize_branch(backend, u, v, tol=-1.0)
        with pytest.raises(LikelihoodError):
            smooth_all_branches(backend, passes=0)

    def test_per_partition_mode_optimizes_each_set(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        scheme = PartitionScheme.contiguous_blocks([600, 600])
        lik = PartitionedLikelihood.build(
            aln, true_tree.copy(), scheme=scheme, rate_mode="none",
            per_partition_branches=True,
        )
        be = SequentialBackend(lik)
        tree = be.tree
        u, v = tree.edges()[1]
        tree.set_edge_length(u, v, np.array([1.9, 0.001]))
        optimize_branch(be, u, v)
        t = tree.edge_length(u, v)
        # both sets move toward sensible values and need not be equal
        assert np.all(t < 1.5)
        handle = be.begin_branch(u, v)
        d1, _ = be.derivatives(handle, t)
        assert d1.shape == (2,)  # one derivative sum per branch set
        assert np.all(np.abs(d1) < 0.5)


class TestModelOptimization:
    def test_alpha_recovery(self, backend):
        smooth_all_branches(backend, passes=1)
        u, v = backend.tree.edges()[0]
        optimize_alphas(backend, u, v, iterations=26)
        # data simulated with alpha=0.7
        assert 0.4 <= backend.get_alpha(0) <= 1.1

    def test_alpha_improves_likelihood(self, backend):
        u, v = backend.tree.edges()[0]
        backend.set_alphas({0: 20.0})  # far from truth
        before, _ = backend.evaluate(u, v)
        after = optimize_alphas(backend, u, v, iterations=20)
        assert after > before

    def test_gtr_improves_likelihood(self, backend):
        u, v = backend.tree.edges()[0]
        before, _ = backend.evaluate(u, v)
        after = optimize_gtr(backend, u, v, iterations=10)
        assert after >= before - 1e-6

    def test_full_round_monotone_across_modes(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        for mode in ("gamma", "psr", "none"):
            lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode=mode)
            be = SequentialBackend(lik)
            u, v = be.tree.edges()[0]
            before, _ = be.evaluate(u, v)
            after = optimize_model(be, u, v, optimize_rates=True,
                                   gtr_iterations=8, alpha_iterations=10,
                                   psr_candidates=8)
            assert after >= before - 1e-6, mode


class TestPSROptimization:
    def test_candidates_include_one(self):
        cands = default_psr_candidates(12)
        assert 1.0 in cands
        assert np.all(np.diff(cands) > 0)
        with pytest.raises(Exception):
            default_psr_candidates(2)

    def test_psr_improves_and_normalizes(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="psr")
        be = SequentialBackend(lik)
        smooth_all_branches(be, passes=1)
        u, v = be.tree.edges()[0]
        before, _ = be.evaluate(u, v)
        after = optimize_psr(be, u, v, n_candidates=10)
        assert after > before
        part = lik.parts[0]
        mean = np.dot(part.weights, part.rate_het.rates) / part.weights.sum()
        assert mean == pytest.approx(1.0, abs=0.05)
        # rates actually vary across sites (the data has gamma_alpha=0.7)
        assert part.rate_het.rates.std() > 0.1

"""Likelihood-core tests: brute-force agreement, pulley principle,
scaling, derivatives and cache invalidation."""

import numpy as np
import pytest

from repro.likelihood.backend import SequentialBackend
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.seq.alignment import Alignment
from repro.seq.partitions import PartitionScheme
from repro.tree.newick import parse_newick


@pytest.fixture()
def quartet():
    aln = Alignment.from_sequences(
        {"A": "ACGTAC", "B": "ACGAAC", "C": "TCGTTG", "D": "TCTTNG"}
    )
    tree = parse_newick("((A:0.1,B:0.23):0.05,C:0.4,D:0.31);")
    return aln, tree


def brute_force_logl(lik, tree):
    """Exhaustive sum over ancestral states (4-taxon, 2 inner nodes)."""
    part = lik.parts[0]
    e = part.model.eigen()
    rates, catw = part.category_rates()
    if catw is None:
        catw = np.ones(1)
        rates_per_cat = [None]
    pi = part.model.frequencies
    inner = tree.inner_nodes()
    i1 = inner[0]

    def tipvec(label, p):
        mask = int(part.patterns[lik.taxon_row[label], p])
        return np.array([(mask >> i) & 1 for i in range(4)], float)

    def subtree(node, parent, parent_state, states, r, p):
        t = float(tree.edge_length(node, parent)[0])
        P = e.pmatrices(r * t)
        if node.is_leaf:
            return float(P[parent_state] @ tipvec(node.label, p))
        prob = P[parent_state, states[node.id]]
        for ch in tree.other_neighbors(node, parent):
            prob *= subtree(ch, node, states[node.id], states, r, p)
        return prob

    total = 0.0
    other_inner = [n for n in inner if n is not i1]
    for p in range(part.n_patterns):
        site = 0.0
        for ci, w in enumerate(catw):
            r = rates[ci] if rates.ndim == 1 and rates.shape[0] == len(catw) else rates[p]
            lhs = 0.0
            for s1 in range(4):
                assignments = [[]]
                for node in other_inner:
                    assignments = [a + [(node.id, s)] for a in assignments for s in range(4)]
                for assign in assignments:
                    states = {i1.id: s1, **dict(assign)}
                    prob = pi[s1]
                    for ch in i1.neighbors:
                        prob *= subtree(ch, i1, s1, states, r, p)
                    lhs += prob
            site += w * lhs
        total += part.weights[p] * np.log(site)
    return total


class TestAgainstBruteForce:
    @pytest.mark.parametrize("mode", ["gamma", "none"])
    def test_quartet(self, quartet, mode):
        aln, tree = quartet
        lik = PartitionedLikelihood.build(aln, tree.copy(), rate_mode=mode, alpha=0.7)
        u, v = lik.tree.edges()[0]
        total, _, _ = lik.evaluate(u, v)
        bf = brute_force_logl(lik, lik.tree)
        assert total == pytest.approx(bf, abs=1e-10)


class TestPulleyPrinciple:
    @pytest.mark.parametrize("mode", ["gamma", "psr", "none"])
    def test_all_edges_agree(self, quartet, mode):
        aln, tree = quartet
        lik = PartitionedLikelihood.build(aln, tree.copy(), rate_mode=mode)
        if mode == "psr":
            rng = np.random.default_rng(0)
            lik.set_psr_rates(0, rng.uniform(0.3, 3.0, lik.parts[0].n_patterns))
        values = []
        for u, v in lik.tree.edges():
            total, _, _ = lik.evaluate(u, v)
            values.append(total)
        assert np.ptp(values) < 1e-9


class TestScaling:
    def test_long_thin_tree_does_not_underflow(self):
        # a caterpillar with many taxa and long branches would underflow
        # per-site likelihoods without CLV rescaling
        n = 40
        taxa = [f"t{i}" for i in range(n)]
        core = f"({taxa[0]}:2.0,{taxa[1]}:2.0"
        for t in taxa[2:-1]:
            core = f"({core}):2.0,{t}:2.0"
        tree = parse_newick(core + f",{taxa[-1]}:2.0);")
        tree.validate()
        rng = np.random.default_rng(7)
        seqs = {
            t: "".join(rng.choice(list("ACGT"), 30)) for t in taxa
        }
        aln = Alignment.from_sequences(seqs)
        lik = PartitionedLikelihood.build(aln, tree, rate_mode="gamma")
        u, v = tree.edges()[0]
        total, _, _ = lik.evaluate(u, v)
        assert np.isfinite(total)
        assert total < 0


class TestDerivatives:
    @pytest.mark.parametrize("mode", ["gamma", "psr", "none"])
    def test_matches_finite_differences(self, sim_dataset, mode):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode=mode)
        tree = lik.tree
        if mode == "psr":
            rng = np.random.default_rng(1)
            lik.set_psr_rates(0, rng.uniform(0.5, 2.0, lik.parts[0].n_patterns))
        u, v = tree.edges()[3]
        ws = lik.prepare_branch(u, v)
        t0 = float(tree.edge_length(u, v)[0])
        d1, d2 = lik.branch_derivatives(ws, np.array([t0]))
        h = 1e-6

        def f(t):
            tree.set_edge_length(u, v, t)
            total, _, _ = lik.evaluate(u, v)
            return total

        fp = (f(t0 + h) - f(t0 - h)) / (2 * h)
        fpp = (f(t0 + h) - 2 * f(t0) + f(t0 - h)) / h**2
        assert d1.sum() == pytest.approx(fp, rel=1e-4, abs=1e-5)
        assert d2.sum() == pytest.approx(fpp, rel=1e-2, abs=1e-2)


class TestInvalidation:
    def test_branch_change_invalidates_dependent_clvs(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="none")
        tree = lik.tree
        u, v = tree.edges()[0]
        l0, _, _ = lik.evaluate(u, v)
        # change a branch on the far side of the tree
        far = tree.edges()[-1]
        tree.set_edge_length(*far, 1.7)
        l1, _, _ = lik.evaluate(u, v)
        assert l1 != l0
        # changing it back must restore the original value exactly
        tree.set_edge_length(*far, true_tree.edge_length(
            true_tree.node(far[0].id), true_tree.node(far[1].id)))
        l2, _, _ = lik.evaluate(u, v)
        assert l2 == pytest.approx(l0, abs=1e-9)

    def test_model_change_invalidates_partition(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
        u, v = lik.tree.edges()[0]
        l0, _, _ = lik.evaluate(u, v)
        lik.set_alpha(0, 0.2)
        l1, _, _ = lik.evaluate(u, v)
        assert l1 != l0
        lik.set_alpha(0, 1.0)
        l2, _, _ = lik.evaluate(u, v)
        assert l2 == pytest.approx(l0, abs=1e-9)

    def test_incremental_traversals_are_short(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="none")
        tree = lik.tree
        u, v = tree.edges()[0]
        first = lik.ensure_clvs(u, v)
        # one op per inner node, for the single partition
        assert first.op_counts() == [len(first.ops)] == [len(lik.taxa) - 2]
        second = lik.ensure_clvs(u, v)
        assert len(second.ops) == 0  # everything cached
        # a local branch change requires only a partial traversal
        far = tree.edges()[-1]
        tree.set_edge_length(*far, 0.9)
        third = lik.ensure_clvs(u, v)
        assert 0 < len(third.ops) <= len(first.ops)

    def test_gc_drops_stale_entries(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="none")
        tree = lik.tree
        for u, v in tree.edges()[:6]:
            lik.evaluate(u, v)
        lik.set_gtr_rates(0, np.array([2, 2, 2, 2, 2, 1.0]))
        assert lik.gc() > 0


class TestPartitionedBranchSets:
    def test_per_partition_lengths_are_independent(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        scheme = PartitionScheme.contiguous_blocks([600, 600])
        lik = PartitionedLikelihood.build(
            aln, true_tree.copy(), scheme=scheme, rate_mode="none",
            per_partition_branches=True,
        )
        tree = lik.tree
        assert tree.n_branch_sets == 2
        u, v = tree.edges()[0]
        _, per0, _ = lik.evaluate(u, v)
        # stretch only partition 1's copy of this branch
        lengths = tree.edge_length(u, v).copy()
        lengths[1] *= 3.0
        tree.set_edge_length(u, v, lengths)
        _, per1, _ = lik.evaluate(u, v)
        assert per1[0] == pytest.approx(per0[0], abs=1e-9)
        assert per1[1] != pytest.approx(per0[1], abs=1e-6)


class TestErrors:
    def test_missing_taxon_rejected(self, quartet):
        aln, tree = quartet
        bad = parse_newick("((A:1,B:1):1,C:1,Z:1);")
        from repro.errors import LikelihoodError

        lik = PartitionedLikelihood.build(aln, tree.copy())
        with pytest.raises(LikelihoodError, match="Z"):
            PartitionedLikelihood(bad, lik.parts, lik.taxa)

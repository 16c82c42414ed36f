"""Traversal-descriptor tests: ordering, minimality, depth, and the
iterative pass held to the recursive reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_traversal import reference_descriptor, reference_stale

from repro.errors import TreeError
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.model.rates import DiscreteGamma
from repro.model.substitution import SubstitutionModel
from repro.tree.newick import parse_newick
from repro.tree.random_trees import random_topology
from repro.tree.rearrange import SPRContext
from repro.tree.topology import Tree


def _parts(rng, n_taxa: int, n_parts: int = 3, n_patterns: int = 5,
           minus_m: bool = False) -> list[PartitionData]:
    return [
        PartitionData(
            f"g{j}", (1 << rng.integers(0, 4, (n_taxa, n_patterns))).astype(np.uint32),
            rng.uniform(0.5, 3.0, n_patterns),
            SubstitutionModel(rng.uniform(0.2, 4.0, 6), rng.dirichlet(np.full(4, 8.0))),
            DiscreteGamma(alpha=float(rng.uniform(0.3, 2.0)), n_cats=4),
            branch_set=j if minus_m else 0)
        for j in range(n_parts)
    ]


def _likelihood(tree: Tree, seed: int = 5, **kw) -> PartitionedLikelihood:
    taxa = sorted(leaf.label for leaf in tree.leaves())
    parts = _parts(np.random.default_rng(seed), len(taxa), **kw)
    return PartitionedLikelihood(tree, parts, taxa)


def _fresh(lik: PartitionedLikelihood) -> PartitionedLikelihood:
    """A likelihood over copies of ``lik``'s tree and model state."""
    return PartitionedLikelihood(
        lik.tree.copy(), [p.subset(np.arange(p.n_patterns)) for p in lik.parts],
        lik.taxa)


def caterpillar(n_taxa: int) -> Tree:
    """``(t0,(t1,(t2,...)))``: every inner node one level deeper."""
    tree = Tree()
    leaves = [tree.add_node(f"t{i}") for i in range(n_taxa)]
    spine = [tree.add_node() for _ in range(n_taxa - 2)]
    tree.connect(leaves[0], spine[0], 0.1)
    tree.connect(leaves[1], spine[0], 0.1)
    for i in range(1, n_taxa - 2):
        tree.connect(spine[i - 1], spine[i], 0.05)
        tree.connect(leaves[i + 1], spine[i], 0.1)
    tree.connect(leaves[-1], spine[-1], 0.1)
    return tree


@pytest.fixture()
def tree():
    return parse_newick("((A:0.1,B:0.2):0.1,(C:0.3,D:0.4):0.2,E:0.5);")


class TestFullTraversal:
    def test_op_count(self, tree):
        # a fresh likelihood needs every inner node's CLV toward the edge
        u, v = tree.edges()[0]
        desc = _likelihood(tree).descriptors_for_edge(u, v)
        assert len(desc.ops) == len(tree.leaves()) - 2
        assert desc.masks == [None] * len(desc.ops)
        assert desc.op_counts() == [len(desc.ops)] * 3

    def test_children_precede_parents(self, tree):
        u, v = tree.edges()[0]
        done = set()
        for node, toward, a, b, ta, tb in _likelihood(tree).descriptors_for_edge(
                u, v).ops:
            assert a < b  # child_a before child_b
            for child, t in ((a, ta), (b, tb)):
                assert np.array_equal(
                    t, tree.edge_length(tree.node(node), tree.node(child)))
                if not tree.node(child).is_leaf:
                    assert (child, node) in done, "dependency violated"
            done.add((node, toward))

    def test_missing_edge_rejected(self, tree):
        a = tree.find_leaf("A")
        c = tree.find_leaf("C")
        with pytest.raises(TreeError):
            _likelihood(tree).descriptors_for_edge(a, c)


class TestIncrementalTraversal:
    def test_all_valid_yields_empty(self, tree):
        u, v = tree.edges()[0]
        lik = _likelihood(tree)
        lik.evaluate(u, v)
        desc = lik.descriptors_for_edge(u, v)
        assert desc.ops == [] and desc.op_counts() == [0, 0, 0]

    def test_partial_validity(self, tree):
        """A valid subtree is skipped: after one leaf edge changes, only
        the orientations above it are recomputed."""
        lik = _likelihood(tree)
        a, e = tree.find_leaf("A"), tree.find_leaf("E")
        lik.evaluate(a, a.neighbors[0])
        full = len(tree.leaves()) - 2
        tree.set_edge_length(e, e.neighbors[0], 0.7)
        desc = lik.descriptors_for_edge(a, a.neighbors[0])
        # E hangs off the root node: its one CLV toward A's parent, then
        # A's parent toward A; the (C,D) cherry is still valid
        assert 0 < len(desc.ops) < full
        cherry = tree.find_leaf("C").neighbors[0]
        assert all(op[0] != cherry.id for op in desc.ops)

    def test_nonbinary_rejected(self):
        t = parse_newick("(A:1,B:1,C:1);")
        center = t.inner_nodes()[0]
        extra = t.add_node("Z")
        t.connect(center, extra, 0.1)
        a = t.find_leaf("A")
        with pytest.raises(TreeError, match="not binary"):
            _likelihood(t).descriptors_for_edge(center, a)


class TestDirectedKeys:
    def test_count(self, tree):
        # evaluating at every edge computes each CLV that can exist — one
        # per directed edge with an inner source — exactly once
        lik = _likelihood(tree)
        n_ops = sum(len(lik.evaluate(u, v)[2].ops) for u, v in tree.edges())
        inner_sources = sum(3 for node in tree.nodes if not node.is_leaf)
        assert n_ops == len(lik._stamps) == inner_sources


class TestDeepTrees:
    def test_caterpillar_evaluates_after_a_branch_change(self):
        tree = caterpillar(1200)
        lik = _likelihood(tree, n_parts=1, n_patterns=2)
        u, v = tree.edges()[0]
        lik.evaluate(u, v)
        far = tree.find_leaf("t1199")
        tree.set_edge_length(far, far.neighbors[0], 0.3)
        desc = lik.descriptors_for_edge(u, v)
        assert len(desc.ops) == 1198  # the whole spine sits above t1199
        lik.execute_descriptors(desc)
        assert lik.gc() == 0


# --------------------------------------------------------------------- #
# the iterative pass against the recursive reference
# --------------------------------------------------------------------- #
EDITS = st.lists(st.sampled_from(["evaluate", "evaluate", "length", "spr",
                                  "model", "gc"]), min_size=1, max_size=16)


def _random_spr(tree: Tree, rng) -> None:
    inner = [n for n in tree.nodes if not n.is_leaf]
    junction = inner[rng.integers(len(inner))]
    subtree_root = junction.neighbors[rng.integers(3)]
    try:
        ctx = SPRContext(tree, junction, subtree_root)
    except TreeError:  # a 4-taxon tree cannot be pruned everywhere
        return
    side = {subtree_root.id}
    todo = [subtree_root]
    while todo:
        for nbr in todo.pop().neighbors:
            if nbr is not junction and nbr.id not in side:
                side.add(nbr.id)
                todo.append(nbr)
    targets = [(a, b) for a, b in tree.edges()
               if junction not in (a, b) and a.id not in side]
    ctx.regraft(*targets[rng.integers(len(targets))])
    ctx.commit()


class TestAgainstReference:
    @given(st.integers(0, 2**31), st.integers(4, 10), st.booleans(), EDITS)
    @settings(max_examples=60, deadline=None)
    def test_ops_masks_gc_and_logl(self, seed, n_taxa, minus_m, edits):
        """Through branch-length changes, SPR moves, model changes on a
        subset of partitions and collections: every descriptor has the
        reference's ops and masks, ``gc`` evicts the reference's stale set,
        and the incremental log likelihood is bitwise a fresh one's."""
        rng = np.random.default_rng(seed)
        taxa = [f"t{i}" for i in range(n_taxa)]
        tree = random_topology(taxa, rng=rng)
        tree.set_n_branch_sets(3 if minus_m else 1)
        lik = PartitionedLikelihood(tree, _parts(rng, n_taxa, minus_m=minus_m),
                                    taxa)
        for edit in ["evaluate", *edits]:
            edges = tree.edges()
            if edit == "length":
                u, v = edges[rng.integers(len(edges))]
                tree.set_edge_length(u, v, rng.uniform(0.01, 0.6))
            elif edit == "spr":
                _random_spr(tree, rng)
            elif edit == "model":
                for p in np.flatnonzero(rng.random(3) < 0.5):
                    lik.set_alpha(int(p), float(rng.uniform(0.3, 2.0)))
            elif edit == "gc":
                stale = reference_stale(lik)
                gone = {k for k in lik._stamps if stale(k) is None}
                before = set(lik._stamps)
                lik.gc()
                assert before - set(lik._stamps) == gone
            else:
                u, v = edges[rng.integers(len(edges))]
                want_ops, want_masks = reference_descriptor(lik, u, v)
                desc = lik.descriptors_for_edge(u, v)
                assert [op[:4] for op in desc.ops] == want_ops
                assert desc.masks == want_masks
                lik.execute_descriptors(desc)
                fresh = _fresh(lik)
                _, want, _ = fresh.evaluate(fresh.tree.node(u.id),
                                            fresh.tree.node(v.id))
                got, _ = lik.evaluate_local(u, v)
                assert np.array_equal(got, want)

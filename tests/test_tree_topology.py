"""Tree structure invariants and mutation bookkeeping."""

import numpy as np
import pytest

from repro.errors import TreeError
from repro.tree.newick import parse_newick
from repro.tree.topology import Tree, edge_key


def three_taxon_tree() -> Tree:
    t = Tree()
    a, b, c = t.add_node("A"), t.add_node("B"), t.add_node("C")
    center = t.add_node()
    for leaf in (a, b, c):
        t.connect(center, leaf, 0.1)
    return t


class TestConstruction:
    def test_counts(self):
        t = three_taxon_tree()
        t.validate()
        assert t.n_taxa == 3
        assert t.n_edges == 3
        assert len(t.nodes) == 4

    def test_self_loop_rejected(self):
        t = Tree()
        a = t.add_node("A")
        with pytest.raises(TreeError):
            t.connect(a, a)

    def test_parallel_edge_rejected(self):
        t = Tree()
        a, b = t.add_node("A"), t.add_node("B")
        t.connect(a, b)
        with pytest.raises(TreeError, match="already exists"):
            t.connect(a, b)

    def test_negative_length_rejected(self):
        t = Tree()
        a, b = t.add_node("A"), t.add_node("B")
        with pytest.raises(TreeError):
            t.connect(a, b, -0.1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, [0.1, np.inf]])
    def test_non_finite_length_rejected(self, bad):
        t = Tree(n_branch_sets=2)
        a, b = t.add_node("A"), t.add_node("B")
        with pytest.raises(TreeError, match=r"branch length (inf|nan) is not finite"):
            t.connect(a, b, bad)

    def test_overflowing_newick_length_rejected(self):
        """``1e999`` parses to ``inf``: the tree refuses it by name."""
        with pytest.raises(TreeError, match="branch length inf is not finite"):
            parse_newick("((A:1e999,B:0.1):0.1,C:0.1,D:0.1);")

    def test_branch_set_shape_enforced(self):
        t = Tree(n_branch_sets=3)
        a, b = t.add_node("A"), t.add_node("B")
        with pytest.raises(TreeError):
            t.connect(a, b, np.array([0.1, 0.2]))
        t.connect(a, b, np.array([0.1, 0.2, 0.3]))
        assert t.edge_length(a, b).shape == (3,)

    def test_scalar_length_replicated(self):
        t = Tree(n_branch_sets=2)
        a, b = t.add_node("A"), t.add_node("B")
        t.connect(a, b, 0.5)
        assert list(t.edge_length(a, b)) == [0.5, 0.5]


class TestQueries:
    def test_edges_are_sorted_and_deterministic(self, tiny_tree):
        edges = tiny_tree.edges()
        keys = [edge_key(u, v) for u, v in edges]
        assert keys == sorted(keys)

    def test_other_neighbors_sorted(self, tiny_tree):
        inner = tiny_tree.inner_nodes()[0]
        nb = tiny_tree.other_neighbors(inner, inner.neighbors[0])
        assert [n.id for n in nb] == sorted(n.id for n in nb)

    def test_find_leaf(self, tiny_tree):
        assert tiny_tree.find_leaf("C").label == "C"
        with pytest.raises(TreeError):
            tiny_tree.find_leaf("Z")

    def test_total_length(self, tiny_tree):
        assert tiny_tree.total_length()[0] == pytest.approx(
            0.1 + 0.23 + 0.05 + 0.4 + 0.2 + 0.1 + 0.31
        )

    def test_missing_edge_raises(self, tiny_tree):
        a = tiny_tree.find_leaf("A")
        c = tiny_tree.find_leaf("C")
        with pytest.raises(TreeError):
            tiny_tree.edge_length(a, c)


class TestMutations:
    def test_split_and_contract_round_trip(self, tiny_tree):
        u, v = tiny_tree.edges()[0]
        before = tiny_tree.edge_length(u, v).copy()
        w = tiny_tree.split_edge(u, v)
        assert w.degree == 2
        tiny_tree.contract_node(w)
        assert np.allclose(tiny_tree.edge_length(u, v), before)
        tiny_tree.validate()

    def test_contract_requires_degree_two(self, tiny_tree):
        inner = tiny_tree.inner_nodes()[0]
        with pytest.raises(TreeError):
            tiny_tree.contract_node(inner)

    def test_remove_node_requires_isolation(self, tiny_tree):
        leaf = tiny_tree.leaves()[0]
        with pytest.raises(TreeError):
            tiny_tree.remove_node(leaf)

    def test_edge_versions_bump_on_length_change(self, tiny_tree):
        u, v = tiny_tree.edges()[0]
        v0 = tiny_tree.edge_version(u, v)
        tiny_tree.set_edge_length(u, v, 0.42)
        assert tiny_tree.edge_version(u, v) > v0

    def test_topology_version_bumps_on_structure_change(self, tiny_tree):
        t0 = tiny_tree.topology_version
        u, v = tiny_tree.edges()[0]
        tiny_tree.split_edge(u, v)
        assert tiny_tree.topology_version > t0


class TestCopy:
    def test_copy_preserves_ids_and_lengths(self, tiny_tree):
        clone = tiny_tree.copy()
        clone.validate()
        assert [n.id for n in clone.nodes] == [n.id for n in tiny_tree.nodes]
        for (u, v), (cu, cv) in zip(tiny_tree.edges(), clone.edges()):
            assert np.array_equal(
                tiny_tree.edge_length(u, v), clone.edge_length(cu, cv)
            )

    def test_copy_is_independent(self, tiny_tree):
        clone = tiny_tree.copy()
        u, v = clone.edges()[0]
        clone.set_edge_length(u, v, 9.0)
        ou, ov = tiny_tree.edges()[0]
        assert tiny_tree.edge_length(ou, ov)[0] != 9.0


class TestBranchSets:
    def test_set_n_branch_sets_replicates(self, tiny_tree):
        tiny_tree.set_n_branch_sets(4)
        u, v = tiny_tree.edges()[0]
        assert tiny_tree.edge_length(u, v).shape == (4,)
        assert len(set(tiny_tree.edge_length(u, v))) == 1

    def test_validate_checks_degrees(self):
        t = Tree()
        a, b = t.add_node("A"), t.add_node("B")
        t.connect(a, b)
        with pytest.raises(TreeError):
            t.validate()

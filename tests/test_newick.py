"""Newick parser/writer tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NewickError
from repro.tree.distances import same_topology
from repro.tree.newick import parse_newick, write_newick
from repro.tree.random_trees import random_topology


class TestParser:
    def test_unrooted_trifurcation(self):
        t = parse_newick("(A:1,B:2,C:3);")
        t.validate()
        assert t.n_taxa == 3

    def test_rooted_input_is_unrooted(self):
        t = parse_newick("((A:1,B:1):1,C:1);")
        t.validate()
        assert all(n.degree == 3 for n in t.inner_nodes())

    def test_branch_lengths(self):
        t = parse_newick("(A:0.5,B:1.5,C:2.5);")
        a = t.find_leaf("A")
        assert t.edge_length(a, a.neighbors[0])[0] == 0.5

    def test_missing_lengths_get_default(self):
        t = parse_newick("(A,B,C);")
        a = t.find_leaf("A")
        assert t.edge_length(a, a.neighbors[0])[0] == t.DEFAULT_LENGTH

    def test_inner_labels_ignored(self):
        t = parse_newick("((A:1,B:1)support99:1,C:1,D:1);")
        assert t.n_taxa == 4

    def test_quoted_labels(self):
        t = parse_newick("('taxon one':1,'it''s':1,C:1);")
        labels = {n.label for n in t.leaves()}
        assert "taxon one" in labels
        assert "it's" in labels

    def test_comments_skipped(self):
        t = parse_newick("(A[comment]:1,B:1,C:1);")
        assert t.n_taxa == 3

    def test_scientific_notation_lengths(self):
        t = parse_newick("(A:1e-3,B:2E-2,C:3.5e+0);")
        a = t.find_leaf("A")
        assert t.edge_length(a, a.neighbors[0])[0] == pytest.approx(1e-3)

    def test_missing_semicolon(self):
        with pytest.raises(NewickError, match="';'"):
            parse_newick("(A:1,B:1,C:1)")

    def test_negative_length_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("(A:-1,B:1,C:1);")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("(A:1,A:1,C:1);")

    def test_unterminated_comment(self):
        with pytest.raises(NewickError):
            parse_newick("(A[oops:1,B:1,C:1);")

    def test_empty_leaf_label(self):
        with pytest.raises(NewickError):
            parse_newick("(,B:1,C:1);")


class TestWriter:
    def test_round_trip_topology(self, tiny_tree):
        text = write_newick(tiny_tree)
        again = parse_newick(text)
        assert same_topology(tiny_tree, again)

    def test_round_trip_lengths(self, tiny_tree):
        again = parse_newick(write_newick(tiny_tree))
        assert again.total_length()[0] == pytest.approx(
            tiny_tree.total_length()[0], abs=1e-6
        )

    def test_canonical_form_is_stable(self, tiny_tree):
        s1 = write_newick(tiny_tree)
        s2 = write_newick(parse_newick(s1))
        assert s1 == s2

    def test_lengths_off(self, tiny_tree):
        assert ":" not in write_newick(tiny_tree, lengths=False)


class TestCanonicalProperty:
    @given(st.integers(0, 10_000), st.integers(4, 12))
    @settings(max_examples=25, deadline=None)
    def test_random_trees_round_trip(self, seed, n):
        taxa = [f"t{i}" for i in range(n)]
        tree = random_topology(taxa, rng=seed)
        text = write_newick(tree)
        again = parse_newick(text)
        assert same_topology(tree, again)
        # canonical: serializing again yields identical text
        assert write_newick(again) == text


def caterpillar_newick(n: int) -> str:
    """``(t0,t1,(t2,(t3,...)))``: one nesting level per taxon."""
    return ("(t0,t1," + "".join(f"(t{i}:0.{i}," for i in range(2, n - 1))
            + f"t{n - 1}" + "):0.5" * (n - 3) + ");")


class TestDeepTrees:
    """Parsing, writing and splitting walk the tree iteratively, so depth
    is not bounded by the interpreter's recursion limit."""

    def test_caterpillar_round_trip_and_bipartitions(self):
        from repro.tree.distances import bipartitions

        tree = parse_newick(caterpillar_newick(1200))
        assert tree.n_taxa == 1200
        text = write_newick(tree)
        assert write_newick(parse_newick(text)) == text
        assert len(bipartitions(tree)) == 1200 - 3

"""Tree comparison: bipartitions and the Robinson–Foulds distance.

Used by the tests to assert that the fork-join and decentralized engines
produce *identical* final topologies (the paper's engines implement exactly
the same search algorithm, so their outputs must agree).
"""

from __future__ import annotations

from repro.errors import TreeError
from repro.tree.topology import Tree, edge_key

__all__ = ["bipartitions", "edge_sides", "rf_distance", "same_topology"]


def edge_sides(tree: Tree) -> dict[tuple[int, int], frozenset[str]]:
    """Every edge's taxa on its side away from the smallest taxon, keyed by
    :func:`~repro.tree.topology.edge_key` — one iterative pass, so a tree
    of any depth works."""
    anchor = min(tree.leaves(), key=lambda n: n.label)  # type: ignore[arg-type]
    order = [(anchor, None)]
    for node, parent in order:
        order.extend((c, node) for c in node.neighbors if c is not parent)
    below: dict[int, frozenset[str]] = {}
    sides: dict[tuple[int, int], frozenset[str]] = {}
    for node, parent in reversed(order[1:]):  # children before parents
        below[node.id] = sides[edge_key(node, parent)] = (
            frozenset((node.label,)) if node.is_leaf else frozenset().union(
                *(below[c.id] for c in node.neighbors if c is not parent)))
    return sides


def bipartitions(tree: Tree) -> set[frozenset[str]]:
    """Non-trivial bipartitions of the tree, each as the smaller side's
    frozen taxon-label set (canonicalized against the full label set)."""
    tree.validate()
    all_labels = frozenset(n.label for n in tree.leaves())  # type: ignore[arg-type]
    splits: set[frozenset[str]] = set()
    for (a, b), side in edge_sides(tree).items():
        if tree.node(a).is_leaf or tree.node(b).is_leaf:
            continue  # trivial split
        other = all_labels - side
        splits.add(min(side, other, key=lambda s: (len(s), sorted(s))))
    return splits


def rf_distance(a: Tree, b: Tree) -> int:
    """Robinson–Foulds distance (symmetric-difference of bipartitions)."""
    if set(a.taxon_labels()) != set(b.taxon_labels()):
        raise TreeError("trees are over different taxon sets")
    sa, sb = bipartitions(a), bipartitions(b)
    return len(sa ^ sb)


def same_topology(a: Tree, b: Tree) -> bool:
    """True iff the two trees share every bipartition."""
    return rf_distance(a, b) == 0

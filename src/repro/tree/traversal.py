"""Post-order traversals and traversal descriptors.

A conditional likelihood vector (CLV) belongs to a *directed* edge
``u -> v``: it summarizes the subtree that hangs off ``u`` when the edge
``{u, v}`` is cut.  Computing the likelihood at a virtual root edge
``{a, b}`` requires ``clv(a -> b)`` and ``clv(b -> a)``, each of which
recursively requires the CLVs of the child edges behind it.

The *traversal descriptor* is the flat, ordered list of CLV update
operations that the fork-join scheme (RAxML-Light) must broadcast to its
workers before every parallel region — the very data structure whose
communication cost the paper eliminates (Table I attributes 30–97% of all
fork-join bytes to it).  Its serialized size is modeled by
:meth:`TraversalDescriptor.nbytes`, mirroring the on-wire layout described
in the RAxML-Light supplement: per operation three node indices plus the
two child branch-length vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TreeError
from repro.tree.topology import Node, Tree

__all__ = [
    "TraversalOp",
    "TraversalDescriptor",
    "EdgeDescriptor",
    "traversal_for_edge",
    "full_traversal",
    "directed_clv_keys",
]


@dataclass(frozen=True)
class TraversalOp:
    """One CLV update: compute ``clv(node -> toward)`` from the two child
    edges ``(child_a -> node)`` and ``(child_b -> node)``."""

    node: int
    toward: int
    child_a: int
    child_b: int


@dataclass
class TraversalDescriptor:
    """An ordered batch of CLV updates plus the byte-size model.

    ``ops`` are dependency-ordered: children precede parents.
    """

    ops: list[TraversalOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def nbytes(self, n_branch_sets: int = 1) -> int:
        """Serialized size of the descriptor when broadcast by fork-join.

        Per operation: 4 × int32 node indices + 2 child branch-length
        vectors of ``n_branch_sets`` doubles, plus an int32 op count.
        """
        per_op = 4 * 4 + 2 * 8 * n_branch_sets
        return 4 + per_op * len(self.ops)


class EdgeDescriptor:
    """The CLV updates one edge needs, derived once for all partitions.

    ``ops`` are dependency-ordered and ``masks[i]`` is the set of
    partitions op ``i`` must be recomputed for — ``None`` for all of them,
    the common case; a subset when only some partitions' models changed.
    An op's mask contains its children's, so the ops of any one partition
    are themselves a dependency-ordered descriptor: the object reads as
    the list of per-partition :class:`TraversalDescriptor` (built on
    demand), and ``ops`` is the longest of them — what fork-join puts on
    the wire.
    """

    def __init__(self, ops: list[TraversalOp],
                 masks: list[frozenset[int] | None], n_partitions: int) -> None:
        self.ops = ops
        self.masks = masks
        self.n_partitions = n_partitions

    def __len__(self) -> int:
        return self.n_partitions

    def __getitem__(self, p: int) -> TraversalDescriptor:
        if not 0 <= p < self.n_partitions:
            raise IndexError(p)
        return TraversalDescriptor(
            [op for op, mask in zip(self.ops, self.masks)
             if mask is None or p in mask])

    def op_counts(self) -> list[int]:
        """How many ops each partition takes part in."""
        counts = [sum(mask is None for mask in self.masks)] * self.n_partitions
        for mask in self.masks:
            for p in mask or ():
                counts[p] += 1
        return counts


def directed_clv_keys(tree: Tree) -> list[tuple[int, int]]:
    """All directed edges ``u -> v`` with inner ``u`` (CLVs that can exist)."""
    keys = []
    for u, v in tree.iter_directed_edges():
        if not u.is_leaf:
            keys.append((u.id, v.id))
    return keys


def _collect(
    tree: Tree,
    node: Node,
    toward: Node,
    is_valid,
    ops: list[TraversalOp],
    on_stack: set[tuple[int, int]],
) -> None:
    """Append the ops needed to make ``clv(node -> toward)`` valid."""
    if node.is_leaf:
        return
    key = (node.id, toward.id)
    if is_valid(key):
        return
    if key in on_stack:  # pragma: no cover - cycle guard
        raise TreeError(f"traversal cycle at clv{key}")
    on_stack.add(key)
    children = tree.other_neighbors(node, toward)
    if len(children) != 2:
        raise TreeError(
            f"inner node {node.id} has {len(children) + 1} neighbors; "
            "tree is not binary"
        )
    a, b = children
    _collect(tree, a, node, is_valid, ops, on_stack)
    _collect(tree, b, node, is_valid, ops, on_stack)
    ops.append(TraversalOp(node=node.id, toward=toward.id, child_a=a.id, child_b=b.id))
    on_stack.discard(key)


def traversal_for_edge(
    tree: Tree,
    u: Node,
    v: Node,
    is_valid=lambda key: False,
) -> TraversalDescriptor:
    """Descriptor of CLV updates required to evaluate at edge ``{u, v}``.

    ``is_valid(key)`` reports whether ``clv(key[0] -> key[1])`` is already
    up to date; valid subtrees are skipped, which is how the incremental
    search re-uses work after local tree changes (and why real runs have
    short average descriptors: the paper cites 4–5 ops).
    """
    if not tree.has_edge(u, v):
        raise TreeError(f"cannot evaluate at missing edge ({u.id},{v.id})")
    ops: list[TraversalOp] = []
    _collect(tree, u, v, is_valid, ops, set())
    _collect(tree, v, u, is_valid, ops, set())
    return TraversalDescriptor(ops)


def full_traversal(tree: Tree, u: Node, v: Node) -> TraversalDescriptor:
    """A complete post-order traversal toward edge ``{u, v}`` (all CLVs)."""
    return traversal_for_edge(tree, u, v, is_valid=lambda key: False)

"""Reference descriptor derivation: the recursive algorithm, as a test oracle.

:meth:`PartitionedLikelihood.descriptors_for_edge` derives an edge's CLV
updates in one iterative pass.  This module derives them the way the
library once did, by two mutually recursive functions over the same
validity stamps — ``collect`` walks the orientations an edge needs and
``stale`` asks, with its own memo, which partitions an orientation is out of
date for — so a test can hold the pass to it op for op and mask for mask.

It reads the likelihood's stamps and nothing of its memo.  Recursion depth
grows with the tree, so keep the trees small.
"""

from __future__ import annotations

from repro.errors import TreeError


def reference_stale(lik):
    """``stale(key)`` over ``lik``'s current stamps: ``frozenset()`` when
    ``clv(key)`` is valid for every partition, ``None`` when it is stale
    for all of them, else the partitions it is stale for."""
    tree, stamps, n_parts = lik.tree, lik._stamps, len(lik.parts)
    versions = tuple(part.model_version for part in lik.parts)
    memo: dict[tuple[int, int], frozenset[int] | None] = {}

    def stale(key):
        if key not in memo:
            memo[key] = check(key)
        return memo[key]

    def check(key):
        entry = stamps.get(key)
        if entry is None:
            return None
        try:
            node, toward = tree.node(key[0]), tree.node(key[1])
        except TreeError:
            return None
        if node not in toward.neighbors:
            return None
        children = tree.other_neighbors(node, toward)
        if len(children) != 2:
            return None
        a, b = children
        if (
            (a.id, b.id) != (entry.child_a, entry.child_b)
            or tree.edge_version(node, a) != entry.ver_a
            or tree.edge_version(node, b) != entry.ver_b
            or entry.dirty is None
        ):
            return None
        out = entry.dirty | frozenset(
            p for p, (then, now) in enumerate(zip(entry.model_vers, versions))
            if then != now)
        for child in (a, b):
            if not child.is_leaf:
                below = stale((child.id, node.id))
                if below is None:
                    return None
                out |= below
        return None if len(out) == n_parts else out

    return stale


def reference_descriptor(lik, u, v):
    """``(ops, masks)`` edge ``{u, v}`` needs: ops as ``(node, toward,
    child_a, child_b)``, children before parents, ``u``'s side first."""
    tree = lik.tree
    if not tree.has_edge(u, v):
        raise TreeError(f"cannot evaluate at missing edge ({u.id},{v.id})")
    stale = reference_stale(lik)
    ops: list[tuple[int, int, int, int]] = []

    def collect(node, toward):
        if node.is_leaf or stale((node.id, toward.id)) == frozenset():
            return
        children = tree.other_neighbors(node, toward)
        if len(children) != 2:
            raise TreeError(f"inner node {node.id} is not binary")
        a, b = children
        collect(a, node)
        collect(b, node)
        ops.append((node.id, toward.id, a.id, b.id))

    collect(u, v)
    collect(v, u)
    return ops, [stale(op[:2]) for op in ops]

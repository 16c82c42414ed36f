"""Unrooted binary phylogenetic trees.

The likelihood machinery works on *unrooted* trees: every leaf has degree 1,
every inner node degree 3, and the likelihood is evaluated at a *virtual
root* placed on an arbitrary edge (Felsenstein's pulley principle makes the
choice irrelevant under reversible models).

Branch lengths are stored per edge as small NumPy arrays of shape
``(n_branch_sets,)``: ``n_branch_sets == 1`` for the default joint
branch-length estimate, or ``n_branch_sets == p`` for the paper's
per-partition branch-length mode (the ``-M`` option), where each partition
carries its own length for every branch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TreeError

__all__ = ["Node", "Tree", "edge_key"]


def edge_key(u: "Node", v: "Node") -> tuple[int, int]:
    """Canonical dictionary key for the undirected edge ``{u, v}``."""
    return (u.id, v.id) if u.id < v.id else (v.id, u.id)


class Node:
    """A tree node.

    Attributes
    ----------
    id:
        Stable integer identity, unique within its tree; survives
        rearrangements (SPR moves never renumber nodes).
    label:
        Taxon name for leaves, ``None`` for inner nodes.
    neighbors:
        Adjacent nodes.  Order is an implementation detail; traversal code
        sorts where determinism matters.
    """

    __slots__ = ("id", "label", "neighbors")

    def __init__(self, node_id: int, label: str | None = None) -> None:
        self.id = node_id
        self.label = label
        self.neighbors: list[Node] = []

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def __repr__(self) -> str:
        tag = self.label if self.label is not None else f"inner{self.id}"
        return f"Node({self.id}, {tag}, deg={self.degree})"


class Tree:
    """A mutable unrooted tree with per-edge branch-length vectors.

    Parameters
    ----------
    n_branch_sets:
        Number of independent branch-length sets per edge: 1 for joint
        branch lengths, the partition count for per-partition mode.
    """

    DEFAULT_LENGTH = 0.1

    def __init__(self, n_branch_sets: int = 1) -> None:
        if n_branch_sets < 1:
            raise TreeError("n_branch_sets must be >= 1")
        self.n_branch_sets = int(n_branch_sets)
        self._nodes: dict[int, Node] = {}
        self._lengths: dict[tuple[int, int], np.ndarray] = {}
        self._next_id = 0
        # Version stamps let CLV caches detect stale entries cheaply: every
        # structural change bumps ``topology_version``; every length change
        # bumps the edge's own stamp.
        self._version_counter = 0
        self._edge_versions: dict[tuple[int, int], int] = {}
        self.topology_version = 0

    def _next_version(self) -> int:
        self._version_counter += 1
        return self._version_counter

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, label: str | None = None) -> Node:
        """Create a new, initially disconnected node."""
        node = Node(self._next_id, label)
        self._nodes[node.id] = node
        self._next_id += 1
        return node

    def connect(self, u: Node, v: Node, length: float | np.ndarray | None = None) -> None:
        """Add the edge ``{u, v}`` with the given branch length(s)."""
        if u is v:
            raise TreeError("self-loops are not allowed")
        key = edge_key(u, v)
        if key in self._lengths:
            raise TreeError(f"edge {key} already exists")
        u.neighbors.append(v)
        v.neighbors.append(u)
        self._lengths[key] = self._coerce_length(length)
        self._edge_versions[key] = self._next_version()
        self.topology_version = self._next_version()

    def disconnect(self, u: Node, v: Node) -> np.ndarray:
        """Remove the edge ``{u, v}``; returns its branch-length vector."""
        key = edge_key(u, v)
        try:
            length = self._lengths.pop(key)
        except KeyError as exc:
            raise TreeError(f"no edge {key}") from exc
        u.neighbors.remove(v)
        v.neighbors.remove(u)
        self._edge_versions.pop(key, None)
        self.topology_version = self._next_version()
        return length

    def _coerce_length(self, length: float | np.ndarray | None) -> np.ndarray:
        if length is None:
            out = np.full(self.n_branch_sets, self.DEFAULT_LENGTH)
        else:
            out = np.asarray(length, dtype=np.float64)
            if out.ndim == 0:
                out = np.full(self.n_branch_sets, float(out))
            elif out.shape != (self.n_branch_sets,):
                raise TreeError(
                    f"branch-length vector shape {out.shape} != ({self.n_branch_sets},)"
                )
            else:
                out = out.copy()
        finite = np.isfinite(out)
        if not finite.all():
            raise TreeError(f"branch length {out[~finite][0]} is not finite")
        if (out < 0).any():
            raise TreeError("branch lengths must be non-negative")
        return out

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise TreeError(f"no node {node_id}") from exc

    @property
    def nodes(self) -> list[Node]:
        """All nodes, ordered by id (deterministic)."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def leaves(self) -> list[Node]:
        return [n for n in self.nodes if n.is_leaf]

    def inner_nodes(self) -> list[Node]:
        return [n for n in self.nodes if not n.is_leaf]

    @property
    def n_taxa(self) -> int:
        return sum(1 for n in self._nodes.values() if n.is_leaf)

    def edges(self) -> list[tuple[Node, Node]]:
        """All edges as ``(u, v)`` with ``u.id < v.id``, sorted (deterministic)."""
        return [
            (self._nodes[a], self._nodes[b]) for a, b in sorted(self._lengths)
        ]

    @property
    def n_edges(self) -> int:
        return len(self._lengths)

    def has_edge(self, u: Node, v: Node) -> bool:
        return edge_key(u, v) in self._lengths

    def edge_length(self, u: Node, v: Node) -> np.ndarray:
        """Branch-length vector of edge ``{u, v}`` (a live view; copy to keep)."""
        try:
            return self._lengths[edge_key(u, v)]
        except KeyError as exc:
            raise TreeError(f"no edge between {u.id} and {v.id}") from exc

    def set_edge_length(self, u: Node, v: Node, length: float | np.ndarray) -> None:
        key = edge_key(u, v)
        if key not in self._lengths:
            raise TreeError(f"no edge between {u.id} and {v.id}")
        self._lengths[key] = self._coerce_length(length)
        self._edge_versions[key] = self._next_version()

    def edge_version(self, u: Node, v: Node) -> int:
        """Monotone stamp of the edge's current length (and existence)."""
        try:
            return self._edge_versions[edge_key(u, v)]
        except KeyError as exc:
            raise TreeError(f"no edge between {u.id} and {v.id}") from exc

    def other_neighbors(self, u: Node, exclude: Node) -> list[Node]:
        """Neighbors of ``u`` except ``exclude``, sorted by id."""
        out = [n for n in u.neighbors if n is not exclude]
        out.sort(key=lambda n: n.id)
        return out

    def taxon_labels(self) -> list[str]:
        """Leaf labels sorted alphabetically."""
        return sorted(n.label for n in self.leaves())  # type: ignore[arg-type]

    def find_leaf(self, label: str) -> Node:
        for n in self.nodes:
            if n.label == label:
                return n
        raise TreeError(f"no leaf labelled {label!r}")

    def total_length(self) -> np.ndarray:
        """Sum of branch lengths per branch set."""
        if not self._lengths:
            return np.zeros(self.n_branch_sets)
        return np.sum(list(self._lengths.values()), axis=0)

    # ------------------------------------------------------------------ #
    # structural edits used by rearrangements
    # ------------------------------------------------------------------ #
    def split_edge(self, u: Node, v: Node) -> Node:
        """Insert a new degree-2 node ``w`` in the middle of edge ``{u, v}``.

        The old length is halved onto the two new edges.  The caller is
        expected to immediately attach a third neighbor to ``w`` (SPR
        regraft); a degree-2 node is invalid in a finished tree.
        """
        length = self.disconnect(u, v)
        w = self.add_node()
        self.connect(u, w, length / 2.0)
        self.connect(w, v, length / 2.0)
        return w

    def contract_node(self, w: Node) -> tuple[Node, Node]:
        """Remove a degree-2 node ``w``, merging its two edges (sum lengths)."""
        if w.degree != 2:
            raise TreeError(f"node {w.id} has degree {w.degree}, cannot contract")
        u, v = w.neighbors[0], w.neighbors[1]
        lu = self.disconnect(u, w)
        lv = self.disconnect(w, v)
        del self._nodes[w.id]
        self.connect(u, v, lu + lv)
        return u, v

    def remove_node(self, w: Node) -> None:
        """Delete an isolated node."""
        if w.degree != 0:
            raise TreeError(f"node {w.id} is still connected")
        del self._nodes[w.id]

    # ------------------------------------------------------------------ #
    # whole-tree operations
    # ------------------------------------------------------------------ #
    def copy(self) -> "Tree":
        """Deep copy preserving node ids and branch lengths."""
        out = Tree(self.n_branch_sets)
        out._next_id = self._next_id
        for node in self._nodes.values():
            clone = Node(node.id, node.label)
            out._nodes[node.id] = clone
        for node in self._nodes.values():
            out._nodes[node.id].neighbors = [
                out._nodes[n.id] for n in node.neighbors
            ]
        out._lengths = {k: v.copy() for k, v in self._lengths.items()}
        out._version_counter = self._version_counter
        out._edge_versions = dict(self._edge_versions)
        out.topology_version = self.topology_version
        return out

    def set_n_branch_sets(self, n: int) -> None:
        """Re-shape all branch-length vectors (replicating joint lengths)."""
        if n < 1:
            raise TreeError("n_branch_sets must be >= 1")
        for key, val in self._lengths.items():
            if val.shape[0] == n:
                continue
            if val.shape[0] == 1:
                self._lengths[key] = np.full(n, float(val[0]))
            else:
                # collapse to the mean, then replicate
                self._lengths[key] = np.full(n, float(val.mean()))
        self.n_branch_sets = n

    def validate(self) -> None:
        """Check binary unrooted invariants; raises :class:`TreeError`."""
        nodes = self.nodes
        if not nodes:
            raise TreeError("empty tree")
        for n in nodes:
            if n.is_leaf and n.degree != 1:
                raise TreeError(f"leaf {n.label!r} has degree {n.degree}")
            if not n.is_leaf and n.degree != 3:
                raise TreeError(f"inner node {n.id} has degree {n.degree}")
        n_taxa = self.n_taxa
        if n_taxa < 3:
            raise TreeError("an unrooted tree needs >= 3 taxa")
        expected_nodes = 2 * n_taxa - 2
        expected_edges = 2 * n_taxa - 3
        if len(nodes) != expected_nodes:
            raise TreeError(f"{len(nodes)} nodes, expected {expected_nodes}")
        if self.n_edges != expected_edges:
            raise TreeError(f"{self.n_edges} edges, expected {expected_edges}")
        # connectivity
        seen: set[int] = set()
        stack = [nodes[0]]
        while stack:
            cur = stack.pop()
            if cur.id in seen:
                continue
            seen.add(cur.id)
            stack.extend(cur.neighbors)
        if len(seen) != len(nodes):
            raise TreeError("tree is disconnected")
        # edge map consistency
        for u, v in self.edges():
            if v not in u.neighbors or u not in v.neighbors:
                raise TreeError(f"edge map inconsistent at ({u.id},{v.id})")

    def __repr__(self) -> str:
        return f"Tree({self.n_taxa} taxa, {self.n_edges} edges)"

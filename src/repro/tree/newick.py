"""Newick tree parsing and writing.

The parser accepts standard Newick with branch lengths, inner labels
(ignored), quoted labels and bracket comments.  Rooted inputs (a degree-2
root) are automatically *unrooted* by merging the root's two child edges,
since the likelihood code operates on unrooted trees.

The writer produces a deterministic representation rooted at an arbitrary
inner node, with children ordered by the smallest taxon label in their
subtree so that topologically identical trees serialize identically — a
property the decentralized engine's consistency tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NewickError
from repro.tree.topology import Node, Tree

__all__ = ["parse_newick", "write_newick"]


class _Lexer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws_and_comments(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace():
                self.pos += 1
            elif c == "[":
                end = self.text.find("]", self.pos)
                if end == -1:
                    raise NewickError("unterminated [comment]")
                self.pos = end + 1
            else:
                return

    def peek(self) -> str:
        self._skip_ws_and_comments()
        if self.pos >= len(self.text):
            raise NewickError("unexpected end of Newick input")
        return self.text[self.pos]

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, c: str) -> None:
        got = self.take()
        if got != c:
            raise NewickError(f"expected {c!r} at position {self.pos - 1}, got {got!r}")

    def label(self) -> str:
        self._skip_ws_and_comments()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            end = self.pos + 1
            out = []
            while True:
                nxt = self.text.find("'", end)
                if nxt == -1:
                    raise NewickError("unterminated quoted label")
                if nxt + 1 < len(self.text) and self.text[nxt + 1] == "'":
                    out.append(self.text[end : nxt + 1])
                    end = nxt + 2
                else:
                    out.append(self.text[end:nxt])
                    self.pos = nxt + 1
                    return "".join(out)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "(),:;[":
            self.pos += 1
        return self.text[start : self.pos].strip()

    def number(self) -> float:
        self._skip_ws_and_comments()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in "+-.eE"
        ):
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            return float(token)
        except ValueError as exc:
            raise NewickError(f"bad branch length {token!r}") from exc


def parse_newick(text: str, n_branch_sets: int = 1) -> Tree:
    """Parse a Newick string into an unrooted :class:`Tree`.

    Branch lengths default to :attr:`Tree.DEFAULT_LENGTH` when omitted; a
    scalar input length is replicated across all ``n_branch_sets``.
    """
    tree = Tree(n_branch_sets)
    lex = _Lexer(text)

    def length() -> float | None:
        lex._skip_ws_and_comments()
        if lex.pos < len(lex.text) and lex.text[lex.pos] == ":":
            lex.take()
            value = lex.number()
            if value < 0:
                raise NewickError("negative branch length")
            return value
        return None

    # one iterative pass: ``clades`` holds each unclosed clade's node and the
    # (child, length) pairs read so far; a clade's edges are made when its
    # ')' is read, innermost first
    clades: list[tuple[Node, list[tuple[Node, float | None]]]] = []
    while True:
        if lex.peek() == "(":
            lex.expect("(")
            clades.append((tree.add_node(), []))
            continue
        label = lex.label()
        if not label:
            raise NewickError(f"empty leaf label near position {lex.pos}")
        node = tree.add_node(label=label)
        node_len = length()
        while clades and lex.peek() != ",":
            clades[-1][1].append((node, node_len))
            lex.expect(")")
            lex.label()  # inner label / support value: parsed, ignored
            node, children = clades.pop()
            for child, child_len in children:
                tree.connect(node, child, child_len)
            node_len = length()
        if not clades:
            break
        clades[-1][1].append((node, node_len))
        lex.take()  # ','
    root, root_len = node, node_len
    lex._skip_ws_and_comments()
    if lex.pos >= len(lex.text) or lex.text[lex.pos] != ";":
        raise NewickError("missing terminating ';'")
    if root_len is not None:
        raise NewickError("branch length on the root clade")

    if root.is_leaf:
        raise NewickError("tree must contain at least one clade")
    # Unroot: a rooted tree yields a degree-2 top node; merge its edges.
    if root.degree == 2:
        tree.contract_node(root)

    labels = [n.label for n in tree.leaves()]
    if len(labels) != len(set(labels)):
        raise NewickError("duplicate taxon labels")
    tree.validate()
    return tree


def _format_length(length: np.ndarray, branch_set: int, digits: int) -> str:
    return f"{float(length[branch_set]):.{digits}f}"


def write_newick(
    tree: Tree,
    lengths: bool = True,
    branch_set: int = 0,
    digits: int = 8,
) -> str:
    """Serialize a tree to canonical Newick.

    For trees with several branch-length sets, ``branch_set`` selects which
    set is written (per-partition mode has no single Newick representation).
    """
    tree.validate()

    # Root the output at the inner node adjacent to the alphabetically
    # smallest taxon, making the string canonical for a given topology.
    anchor = min(tree.leaves(), key=lambda n: n.label)  # type: ignore[arg-type]
    root = anchor.neighbors[0]

    # the smallest taxon below every node, from one post-order pass
    order = [(root, None)]
    for node, parent in order:
        order.extend((c, node) for c in node.neighbors if c is not parent)
    min_label: dict[int, str] = {}
    for node, parent in reversed(order):
        min_label[node.id] = node.label if node.is_leaf else min(
            min_label[c.id] for c in node.neighbors if c is not parent)

    def push(todo: list, children: list[Node], parent: Node) -> None:
        """Queue ``parent``'s children (by smallest taxon), comma-separated."""
        children = sorted(children, key=lambda c: min_label[c.id])
        for i, child in enumerate(reversed(children)):
            if i:
                todo.append(",")
            todo.append((child, parent))

    out = ["("]
    todo: list = [");"]
    push(todo, root.neighbors, root)
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent = item
        suffix = (":" + _format_length(tree.edge_length(node, parent),
                                       branch_set, digits)) if lengths else ""
        if node.is_leaf:
            out.append((node.label or "") + suffix)
        else:
            out.append("(")
            todo.append(")" + suffix)
            push(todo, tree.other_neighbors(node, parent), node)
    return "".join(out)

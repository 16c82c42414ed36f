"""Seeded input generator for the end-to-end benchmark.

NumPy only — it must not import ``repro``, so the program under test only
ever sees the files written here and a change to ``repro.seq.simulate``
cannot move the baseline.  One call to :func:`generate` writes, for one
workload shape,

* ``<name>.fasta``       — the alignment (taxa ``t00`` … in label order),
* ``<name>.partitions``  — a RAxML-style partition file (only when the
  shape has more than one gene),
* ``<name>.start.nwk``   — a random start topology with flat branch lengths,
* ``<name>.true.nwk``    — the generating tree (never shown to the program),

and returns the paths plus the sha256 of each file.

The generating process is a Yule tree with Gamma(2) branch lengths and, per
gene, its own GTR exchangeabilities, base frequencies, Γ shape and overall
rate multiplier; sites evolve independently with a continuous Gamma(α, α)
rate each.

The seed varies the data, not the problem size: taxa, genes, sites per gene
*and distinct site patterns per gene* are fixed by the shape.  The program
compresses every gene to its distinct columns, so the pattern count is the
array length every kernel call works on; left free it follows the tree
length (5k-11k patterns for 20,000 sites over ten seeds) and run time
follows it, which would bury any per-seed comparison.  Each gene is
therefore evolved until it has shown the wanted number of distinct columns;
it keeps one copy of each and fills up to its site count with further
copies, drawn in proportion to how often each column was seen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = ["SHAPES", "generate", "sha256_file"]

# name -> (taxa, genes, sites per gene, distinct patterns per gene).  The
# two shapes are the two regimes the benchmark holds: one large partition
# (kernel arithmetic dominates) and many gene-sized partitions (per-call
# overhead dominates).  Both are sized so that one `infer` takes about 3 s:
# the host's speed swings by tens of percent from one ten-second stretch to
# the next, and only the fastest of several short runs repeats (README,
# "Host noise").
SHAPES: dict[str, tuple[int, int, int, int]] = {
    "wide": (10, 1, 8000, 3000),
    "genes": (10, 16, 40, 32),
}

_NUC = np.frombuffer(b"ACGT", dtype=np.uint8)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _yule(n_taxa: int, rng: np.random.Generator, mean_len: float):
    """Rooted Yule tree as ``children[node] = (left, right)`` over integer
    node ids (leaves are ``0 … n_taxa-1``) plus a branch length per node
    (length of the edge to its parent)."""
    children: dict[int, tuple[int, int]] = {}
    tips = [0, 1]
    next_leaf, next_inner = 2, n_taxa
    root = next_inner
    children[root] = (0, 1)
    next_inner += 1
    parent_of = {0: root, 1: root}
    while next_leaf < n_taxa:
        # split a uniformly chosen tip: it becomes an inner node whose
        # children are the old tip and a new leaf
        k = int(rng.integers(len(tips)))
        old = tips[k]
        inner = next_inner
        next_inner += 1
        par = parent_of[old]
        a, b = children[par]
        children[par] = (inner, b) if a == old else (a, inner)
        parent_of[inner] = par
        children[inner] = (old, next_leaf)
        parent_of[old] = inner
        parent_of[next_leaf] = inner
        tips.append(next_leaf)
        next_leaf += 1
    lengths = {node: float(max(rng.gamma(2.0, mean_len / 2.0), 0.005))
               for node in parent_of}
    return root, children, lengths


def _unroot(root: int, children, lengths) -> dict[int, dict[int, float]]:
    """Adjacency map ``{node: {neighbour: length}}`` of the unrooted tree:
    the degree-2 root is contracted and its two edges merged."""
    adj: dict[int, dict[int, float]] = {}
    for node, kids in children.items():
        for kid in kids:
            adj.setdefault(node, {})[kid] = lengths[kid]
            adj.setdefault(kid, {})[node] = lengths[kid]
    (a, la), (b, lb) = adj.pop(root).items()
    del adj[a][root], adj[b][root]
    adj[a][b] = adj[b][a] = la + lb
    return adj


def _random_start(n_taxa: int, rng: np.random.Generator, length: float = 0.1):
    """Random unrooted topology by stepwise addition (each new leaf splits
    a uniformly chosen edge), every branch ``length`` long."""
    order = [int(x) for x in rng.permutation(n_taxa)]
    hub = n_taxa
    adj: dict[int, dict[int, float]] = {hub: {}}
    for leaf in order[:3]:
        adj[hub][leaf] = length
        adj[leaf] = {hub: length}
    for inner, leaf in enumerate(order[3:], start=n_taxa + 1):
        edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
        u, v = edges[int(rng.integers(len(edges)))]
        del adj[u][v], adj[v][u]
        adj[inner] = {u: length, v: length, leaf: length}
        adj[u][inner] = adj[v][inner] = length
        adj[leaf] = {inner: length}
    return adj


def _newick(adj: dict[int, dict[int, float]], labels: list[str]) -> str:
    """Canonical Newick of an unrooted tree: rooted at the inner node next
    to the smallest label, children ordered by their subtree's smallest
    label, 8 decimals.  This is the fixed point of the program's own
    ``write_newick(parse_newick(.))``, which matters: the distributed
    engines re-serialise the start tree before the search while the
    sequential path does not, and the hill climb visits nodes in
    construction order, so only a start tree already in this form gives
    all three engines the same search."""
    def min_label(node: int, parent: int) -> str:
        if node < len(labels):
            return labels[node]
        return min(min_label(c, node) for c in adj[node] if c != parent)

    def render(node: int, parent: int) -> str:
        if node < len(labels):
            body = labels[node]
        else:
            kids = sorted((c for c in adj[node] if c != parent),
                          key=lambda c: min_label(c, node))
            body = "(" + ",".join(render(c, node) for c in kids) + ")"
        return f"{body}:{adj[node][parent]:.8f}"

    anchor = min(range(len(labels)), key=labels.__getitem__)
    (root,) = adj[anchor]
    kids = sorted(adj[root], key=lambda c: min_label(c, root))
    return "(" + ",".join(render(c, root) for c in kids) + ");"


def _gtr_eigen(rates: np.ndarray, freqs: np.ndarray):
    """Eigendecomposition of a GTR rate matrix scaled to one expected
    substitution per unit time, through its symmetric similarity
    transform (so plain ``eigh`` suffices)."""
    q = np.zeros((4, 4))
    q[np.triu_indices(4, 1)] = rates
    q = (q + q.T) * freqs[None, :]
    np.fill_diagonal(q, -q.sum(axis=1))
    q /= -(freqs * np.diag(q)).sum()
    root_pi = np.sqrt(freqs)
    sym = q * root_pi[:, None] / root_pi[None, :]
    lam, u = np.linalg.eigh((sym + sym.T) / 2.0)
    left = u / root_pi[:, None]       # D^{-1/2} U
    right = u.T * root_pi[None, :]    # U^T D^{1/2}
    return lam, left, right


def _draw(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    return (rng.random(probs.shape[:-1])[..., None] > cdf).sum(axis=-1)


def _evolve_gene(root, children, lengths, n_sites, n_patterns, rng) -> np.ndarray:
    """``(taxa, n_sites)`` state matrix of one gene with exactly
    ``n_patterns`` distinct columns (see the module docstring)."""
    rates = rng.uniform(0.5, 4.0, 6)
    freqs = rng.dirichlet(np.full(4, 20.0))
    alpha = rng.uniform(0.4, 1.2)
    speed = rng.uniform(0.7, 1.4)
    lam, left, right = _gtr_eigen(rates, freqs)
    n_taxa = min(children)  # inner ids start right after the leaves
    batch = 2 * n_sites
    seen = np.empty((n_taxa, 0), dtype=np.int64)
    while True:
        site_rates = np.maximum(rng.gamma(alpha, 1.0 / alpha, batch), 1e-4) * speed
        states = {root: _draw(np.broadcast_to(freqs, (batch, 4)), rng)}
        stack = [root]
        while stack:
            node = stack.pop()
            for child in children.get(node, ()):
                t = site_rates * lengths[child]
                pm = np.einsum("ik,sk,kj->sij", left, np.exp(np.outer(t, lam)), right)
                pm = np.clip(np.round(pm, 12), 0.0, None)
                rows = pm[np.arange(batch), states[node], :]
                states[child] = _draw(rows / rows.sum(axis=1, keepdims=True), rng)
                stack.append(child)
        seen = np.concatenate(
            [seen, np.vstack([states[i] for i in range(n_taxa)])], axis=1)
        patterns, first, counts = np.unique(
            seen, axis=1, return_index=True, return_counts=True)
        if patterns.shape[1] >= n_patterns:
            break
    # the first n_patterns distinct columns in order of appearance
    keep = np.argsort(first)[:n_patterns]
    patterns, counts = patterns[:, keep], counts[keep]
    extra = rng.choice(n_patterns, size=n_sites - n_patterns,
                       p=counts / counts.sum())
    order = rng.permutation(n_sites)
    return patterns[:, np.concatenate([np.arange(n_patterns), extra])[order]]


def generate(shape: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Write the input files of ``shape`` for ``seed`` under ``out_dir``.

    ``scale`` < 1 shrinks sites and patterns per gene and the number of
    genes (smoke mode); the default-seed checksums in ``expected.json`` hold
    for ``scale == 1`` only.
    """
    n_taxa, n_genes, gene_sites, gene_patterns = SHAPES[shape]
    n_genes = max(min(n_genes, 2), int(round(n_genes * scale)))
    gene_patterns = max(6, int(round(gene_patterns * scale)))
    gene_sites = max(gene_patterns + 2, int(round(gene_sites * scale)))
    # one independent stream per (seed, shape): the two shapes of one
    # seed share nothing
    rng = np.random.default_rng([int(seed), sorted(SHAPES).index(shape)])
    labels = [f"t{i:02d}" for i in range(n_taxa)]

    root, children, lengths = _yule(n_taxa, rng, mean_len=0.08)
    data = _NUC[np.concatenate(
        [_evolve_gene(root, children, lengths, gene_sites, gene_patterns, rng)
         for _ in range(n_genes)], axis=1)]
    start = _random_start(n_taxa, rng)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"alignment": out_dir / f"{shape}.fasta",
             "start_tree": out_dir / f"{shape}.start.nwk",
             "true_tree": out_dir / f"{shape}.true.nwk"}
    with open(files["alignment"], "wb") as fh:
        for label, row in zip(labels, data):
            fh.write(b">" + label.encode() + b"\n" + row.tobytes() + b"\n")
    files["start_tree"].write_text(_newick(start, labels) + "\n")
    files["true_tree"].write_text(
        _newick(_unroot(root, children, lengths), labels) + "\n")
    if n_genes > 1:
        files["partitions"] = out_dir / f"{shape}.partitions"
        files["partitions"].write_text("".join(
            f"DNA, gene{g:02d} = {g * gene_sites + 1}-{(g + 1) * gene_sites}\n"
            for g in range(n_genes)))
    return {
        "shape": shape, "seed": int(seed), "taxa": n_taxa, "genes": n_genes,
        "sites": n_genes * gene_sites, "patterns": n_genes * gene_patterns,
        "files": {k: str(v) for k, v in files.items()},
        "sha256": {k: sha256_file(v) for k, v in files.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--out", type=Path, required=True, help="output directory")
    ap.add_argument("--shape", choices=sorted(SHAPES), action="append",
                    help="shape(s) to write (default: all)")
    args = ap.parse_args(argv)
    for shape in args.shape or sorted(SHAPES):
        print(json.dumps(generate(shape, args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

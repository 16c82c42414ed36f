"""Partitions of one shape, stacked on a leading axis.

The paper's partitioned regime is many small genes (10–1000 partitions of
~1000 bp).  Looping over them in Python costs more than their arithmetic,
so the partitions a process holds patterns of are grouped by what the
kernels read off their arrays — pattern count, category count, state count
and rate-model class — and each group is one :class:`PartitionStack`: tips,
weights, eigensystems, rates and the CLV store all carry the partitions on
a leading axis, and every kernel of :mod:`repro.likelihood.kernel` runs
once per stack instead of once per partition (BEAGLE batches its operation
queue across partitions for the same reason).  A uniform dataset is one
stack, an irregular partition a stack of one; there is no other code path.

CLVs are computed a whole traversal at a time (:meth:`PartitionStack.traverse`):
P matrices do not depend on CLVs, so the transition matrices of many ops
are built in one call — as BEAGLE 4.1 updates a list of edges' matrices
before it runs the operation list — and the ops then run in dependency
order, each feeding its slice of that batch to the GEMMs.

Stacks are tree-agnostic: an operand is named by a *reference* — a taxon
row for a tip, a directed-edge key ``(node, toward)`` for a stored CLV —
and branch lengths arrive as ``n_branch_sets`` vectors.  Both drivers use
them: the tree-aware
:class:`~repro.likelihood.partitioned.PartitionedLikelihood` and the
fork-join workers' :class:`~repro.engines.executor.DescriptorExecutor`.

A zero-pattern share (a partition this process does not own) is in no
stack: nothing is stored or computed for it.

Kernel calls run between ``t0 = prof.begin()`` and ``prof.end(t0, op,
stack, rows)``: the hook is handed objects that already exist and nothing
else, so with profiling off a call computes no argument for it.  What a
call worked on and allocated follows from the stack's :class:`StackShape`
— every CLV of a stack has one shape, and a masked op writes rows into an
entry without changing it — so the profiler reads units and bytes off the
shape when its totals are read, and the CLV store counts entries, not
bytes.  A batched P build still counts two ``pmatrix`` calls per op.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import LikelihoodError
from repro.likelihood import kernel
from repro.model.substitution import EigenSystem, fill_eigen_caches

__all__ = ["PartitionStack", "StackShape", "build_stacks", "clv_stats",
           "evaluate_stacks", "derivatives_of_stacks", "fold_by_set", "wire_ops"]

#: A tip (taxon row) or a stored CLV (directed-edge key).
Ref = int | tuple[int, int]

#: One op of a traversal: ``(key, a, b, ta, tb, mask)`` computes ``clv(key)``
#: from the children ``a`` and ``b`` over the branch-length vectors ``ta``
#: and ``tb``, for the partitions in ``mask`` (``None``: all of them).
Op = tuple[tuple[int, int], Ref, Ref, np.ndarray, np.ndarray,
           frozenset[int] | None]


def wire_ops(wire, masks, ref) -> list[Op]:
    """The stack ops of a wire descriptor — ops ``(node, toward, child_a,
    child_b, t_a, t_b)`` with one mask each — where ``ref(child, node)``
    names a child's operand (a taxon row or ``(child, node)``)."""
    return [((node, toward), ref(a, node), ref(b, node), ta, tb, mask)
            for (node, toward, a, b, ta, tb), mask in zip(wire, masks)]


class StackShape(NamedTuple):
    """A stack's partitions and the dimensions all its rows share: what
    its kernel calls compute and allocate follows from these."""

    partitions: tuple[int, ...]
    n_patterns: int
    n_cats: int
    n_states: int
    #: rates a P matrix is built for: categories, or one per pattern (PSR)
    n_rates: int
    site_specific: bool
    #: work units of one CLV-shaped op, per partition (cost-model convention)
    unit: float

    @property
    def clv_bytes(self) -> int:
        """Bytes of one stored CLV entry, per partition: the CLV and its
        per-pattern scale vector (both float64)."""
        return 8 * self.n_patterns * (self.n_cats * self.n_states + 1)

    def charge(self, op: str) -> tuple[float, int]:
        """``(work units, allocated bytes)`` of one ``op`` call, per
        partition computed: a P matrix (units are matrices), a CLV, a
        sumtable (a CLV without scale), or no array."""
        if op == "pmatrix":
            return self.n_rates, 8 * self.n_rates * self.n_states ** 2
        if op == "newview":
            return self.unit, self.clv_bytes
        if op == "sumtable":
            return self.unit, 8 * self.n_patterns * self.n_cats * self.n_states
        return self.unit, 0


class PartitionStack:
    """The partitions ``members`` of ``parts`` (one shape), stacked.

    ``members`` index the owner's partition list; row ``i`` of every
    stacked array belongs to partition ``members[i]``.
    """

    def __init__(self, members: list[int], parts: list) -> None:
        self.members = np.asarray(members, dtype=np.intp)
        self.partitions = tuple(members)
        self.parts = [parts[i] for i in members]
        first = self.parts[0]
        g = len(members)
        self.n_states = first.model.n_states
        self.site_specific = first.site_specific
        rates, self.cat_weights = first.category_rates()
        n_rates = len(rates)
        self.shape = StackShape(
            self.partitions, first.n_patterns, first.n_cats, self.n_states,
            n_rates, self.site_specific, first.cost_patterns * first.n_cats)
        #: traversal ops whose P matrices (2 · rates · n² per row) are built
        #: per call: as many as fit in one CLV's bytes (patterns · cats · n
        #: per row), so a Γ traversal takes a few calls and a PSR one (P per
        #: pattern) one call per op
        self.ops_per_build = max(1, first.n_patterns * first.n_cats
                                 // (2 * n_rates * first.model.n_states))
        # the stack's arrays are views or the only copy, never a second one
        self.weights = (first.weights[None, :] if g == 1
                        else np.stack([p.weights for p in self.parts]))
        self.branch_sets = np.array([p.branch_set for p in self.parts],
                                    dtype=np.intp)
        n = self.n_states
        self.eigen = EigenSystem(np.empty((g, n)), np.empty((g, n, n)),
                                 np.empty((g, n, n)), np.empty((g, n)))
        self.rates = np.empty((g, n_rates))
        self._versions: list[int | None] = [None] * g
        self._tips: dict[int, np.ndarray] = {}
        #: directed edge -> (clv ``(g, cats, states, patterns)``, scale
        #: ``(g, patterns)``)
        self.clvs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        #: most entries ever stored at once, and entries evicted so far
        self.peak_entries = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # stacked model state and operands
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Bring the stacked eigensystems and rates up to the members'
        model versions; the changed rows are decomposed together."""
        versions = [p.model_version for p in self.parts]
        if versions == self._versions:
            return
        rows = [i for i, (new, old) in enumerate(zip(versions, self._versions))
                if new != old]
        fill_eigen_caches([self.parts[i].model for i in rows])
        eigen = self.eigen
        for i in rows:
            part = self.parts[i]
            mine = part.model.eigen()
            eigen.eigenvalues[i] = mine.eigenvalues
            eigen.left[i] = mine.left
            eigen.right[i] = mine.right
            eigen.frequencies[i] = mine.frequencies
            self.rates[i] = part.category_rates()[0]
        self._versions = versions

    def tip(self, row: int) -> np.ndarray:
        """Stacked 0/1 tip vectors of one taxon row: ``(g, states, patterns)``."""
        tip = self._tips.get(row)
        if tip is None:
            masks = np.stack([p.patterns[row] for p in self.parts])
            tip = self._tips[row] = np.ascontiguousarray(np.swapaxes(
                self.parts[0].alphabet.tip_vectors(masks), -1, -2))
        return tip

    def side(self, ref: Ref) -> tuple[np.ndarray, np.ndarray | None]:
        """``(clv or tip, scale or None)`` of one operand reference."""
        if isinstance(ref, tuple):
            try:
                return self.clvs[ref]
            except KeyError:
                raise LikelihoodError(
                    f"missing CLV ({ref[0]}->{ref[1]})") from None
        return self.tip(ref), None

    def rows_of(self, mask: frozenset[int] | None) -> list[int] | None:
        """Rows of the members in ``mask``; ``None`` for every row (what a
        ``None`` mask means too), ``[]`` for no row."""
        if mask is None:
            return None
        rows = [i for i, p in enumerate(self.partitions) if p in mask]
        return None if len(rows) == len(self.partitions) else rows

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def traverse(self, ops: list[Op], prof) -> None:
        """Compute and store the CLVs of ``ops``, in order (a child may be
        an earlier op's result).

        The P matrices of up to :attr:`ops_per_build` ops are built in one
        call, for the union of the rows those ops cover; an op with a mask
        then computes only its own rows and writes them into the stored
        entry (the others are still valid there).  Each matrix is its own
        GEMM, so a row's result is bitwise the same however the ops are
        batched and whichever rows an op covers.
        """
        work = [(op, self.rows_of(op[5])) for op in ops]
        work = [(op, rows) for op, rows in work if rows != []]
        if not work:
            return
        self.refresh()
        for start in range(0, len(work), self.ops_per_build):
            self._batch(work[start:start + self.ops_per_build], prof)

    def _batch(self, batch: list[tuple[Op, list[int] | None]], prof) -> None:
        """Build the P matrices of ``batch`` in one call, then run its ops
        (the matrices die with this frame, before the next batch's)."""
        union = None
        if all(rows is not None for _, rows in batch):
            union = sorted(set().union(*(rows for _, rows in batch)))
        eigen, rates, sets = self.eigen, self.rates, self.branch_sets
        if union is not None:
            eigen = EigenSystem(eigen.eigenvalues[union], eigen.left[union],
                                eigen.right[union], eigen.frequencies[union])
            rates, sets = rates[union], sets[union]
        t = np.array([(op[3], op[4]) for op, _ in batch])[..., sets]
        t0 = prof.begin()
        p = kernel.pmatrices(eigen, t, rates)  # (ops, 2, rows, rates, n, n)
        # each op's rows are charged two matrix builds, as if the op had
        # built them alone; the call's wall time goes to the batch's first op
        for _, rows in batch:
            prof.end(t0, "pmatrix", self, rows, count=2)
            t0 = prof.begin()
        for i, ((key, a, b, _, _, _), rows) in enumerate(batch):
            p_ab = p[i]
            if rows != union:
                p_ab = p_ab[:, rows if union is None
                            else [union.index(r) for r in rows]]
            self._newview(key, a, b, p_ab[0], p_ab[1], rows, prof)

    def _newview(self, key: tuple[int, int], a: Ref, b: Ref, p_a: np.ndarray,
                 p_b: np.ndarray, rows: list[int] | None, prof) -> None:
        """One op of :meth:`traverse`, from its P matrices."""
        clv_a, scale_a = self.side(a)
        clv_b, scale_b = self.side(b)
        if rows is not None:
            clv_a, clv_b = clv_a[rows], clv_b[rows]
            scale_a = None if scale_a is None else scale_a[rows]
            scale_b = None if scale_b is None else scale_b[rows]
        t0 = prof.begin()
        clv, scale = kernel.newview(p_a, clv_a, scale_a, p_b, clv_b, scale_b,
                                    site_specific=self.site_specific)
        if rows is None:
            self.clvs[key] = (clv, scale)
            self.peak_entries = max(self.peak_entries, len(self.clvs))
        else:
            old_clv, old_scale = self.clvs[key]
            old_clv[rows] = clv
            old_scale[rows] = scale
        prof.end(t0, "newview", self, rows)

    def evaluate(self, u: Ref, v: Ref, t_root: np.ndarray,
                 prof) -> tuple[np.ndarray, np.ndarray]:
        """Per-member log likelihoods ``(g,)`` and per-pattern values
        ``(g, patterns)`` at the virtual root between ``u`` and ``v``."""
        self.refresh()
        t0 = prof.begin()
        p_root = kernel.pmatrices(self.eigen, t_root[self.branch_sets],
                                  self.rates)
        prof.end(t0, "pmatrix", self)
        clv_i, scale_i = self.side(u)
        clv_j, scale_j = self.side(v)
        t0 = prof.begin()
        result = kernel.evaluate_edge(
            p_root, clv_i, scale_i, clv_j, scale_j, self.eigen.frequencies,
            self.cat_weights, self.weights, site_specific=self.site_specific)
        prof.end(t0, "evaluate", self)
        return result

    def sumtable(self, u: Ref, v: Ref, prof) -> np.ndarray:
        """Eigen-basis sumtable ``(g, cats, states, patterns)`` of the edge."""
        self.refresh()
        clv_i, _ = self.side(u)
        clv_j, _ = self.side(v)
        t0 = prof.begin()
        table = kernel.sumtable(self.eigen, clv_i, clv_j)
        prof.end(t0, "sumtable", self)
        return table

    def derivatives(self, table: np.ndarray, t: np.ndarray,
                    prof) -> tuple[np.ndarray, np.ndarray]:
        """Per-member first and second log-likelihood derivatives at the
        branch lengths ``t`` (one per branch set)."""
        self.refresh()
        t0 = prof.begin()
        d1, d2 = kernel.derivatives_from_sumtable(
            self.eigen, table, t[self.branch_sets], self.rates,
            self.cat_weights, self.weights)
        prof.end(t0, "derivative", self)
        return d1, d2

    # ------------------------------------------------------------------ #
    # CLV store
    # ------------------------------------------------------------------ #
    def drop(self, keys=None) -> int:
        """Evict the stored CLVs of ``keys`` (all when ``None``); returns
        the per-partition entries evicted."""
        before = len(self.clvs)
        for k in list(self.clvs) if keys is None else keys:
            self.clvs.pop(k, None)
        evicted = before - len(self.clvs)
        self.evictions += evicted
        return evicted * len(self.partitions)


def build_stacks(parts: list) -> list[PartitionStack]:
    """Group the partitions with local patterns by array shape, in order
    of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, part in enumerate(parts):
        if part.n_patterns == 0:
            continue
        shape = (part.n_patterns, part.pattern_scale, part.n_cats,
                 part.model.n_states, type(part.rate_het))
        groups.setdefault(shape, []).append(i)
    return [PartitionStack(members, parts) for members in groups.values()]


def evaluate_stacks(
    stacks: list[PartitionStack], n_partitions: int, u: Ref, v: Ref,
    t_root: np.ndarray, prof,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-partition log likelihoods and per-pattern log likelihoods at
    the virtual root between ``u`` and ``v``; ``0.0`` and an empty vector
    for a partition in no stack."""
    per_part = np.zeros(n_partitions)
    site_lhs = [np.empty(0)] * n_partitions
    for stack in stacks:
        totals, log_site = stack.evaluate(u, v, t_root, prof)
        per_part[stack.members] = totals
        for p, row in zip(stack.partitions, log_site):
            site_lhs[p] = row
    return per_part, site_lhs


def derivatives_of_stacks(
    stacks: list[PartitionStack], n_partitions: int,
    tables: list[np.ndarray], t: np.ndarray, prof,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition first and second log-likelihood derivatives from one
    sumtable per stack; both ``0.0`` for a partition in no stack."""
    d1 = np.zeros(n_partitions)
    d2 = np.zeros(n_partitions)
    for stack, table in zip(stacks, tables):
        d1[stack.members], d2[stack.members] = stack.derivatives(table, t, prof)
    return d1, d2


def fold_by_set(d1: np.ndarray, d2: np.ndarray, branch_sets,
                n_sets: int) -> np.ndarray:
    """Per-partition derivatives summed per branch set, stacked as the
    ``(2, n_sets)`` array that goes on the wire.  Summed in partition
    order; a partition without local patterns adds an exact ``0.0``."""
    return np.vstack([np.bincount(branch_sets, weights=d1, minlength=n_sets),
                      np.bincount(branch_sets, weights=d2, minlength=n_sets)])


def clv_stats(stacks: list[PartitionStack], n_partitions: int) -> list[dict[str, int]]:
    """Per-partition CLV memory accounting: a partition's row of its
    stack's entries (current, peak and evicted counts times one entry's
    bytes); zeros for a partition in no stack."""
    stats = [{"partition": p, "entries": 0, "live_bytes": 0, "peak_bytes": 0,
              "evictions": 0, "evicted_bytes": 0} for p in range(n_partitions)]
    for stack in stacks:
        entry = stack.shape.clv_bytes
        for p in stack.partitions:
            stats[p].update(
                entries=len(stack.clvs), live_bytes=len(stack.clvs) * entry,
                peak_bytes=stack.peak_entries * entry,
                evictions=stack.evictions,
                evicted_bytes=stack.evictions * entry)
    return stats

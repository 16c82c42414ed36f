"""Partitioned likelihood orchestration.

:class:`PartitionedLikelihood` is the tree-aware driver of the likelihood
core.  Per partition it holds a :class:`PartitionData` — compressed site
patterns, substitution model, rate-heterogeneity model; the arrays the
kernels work on (tips, eigensystems, conditional likelihood vectors keyed
by directed edge) live in :class:`~repro.likelihood.stack.PartitionStack`
objects, one per group of equally shaped partitions, so every kernel runs
once per stack rather than once per partition.  It is the *computational*
engine that both parallelization schemes drive — in a real distributed run
every rank holds one over its local data; in lock-step simulation a single
instance holds the full data.

Cache invalidation is dependency-tracked: every computed orientation
records — once, for all partitions — the identity of its two children, the
version stamps of the connecting edges and the model version of every
partition; recomputing a CLV marks the orientations that read it stale for
the recomputed partitions.  An orientation is valid for a partition iff
those stamps still match and its children are (recursively) valid, so
branch-length changes, SPR moves and model updates invalidate exactly the
right CLVs without any explicit notification — the same effect as RAxML's
orientation bookkeeping, but robust against arbitrary topology edits.

The CLV updates an edge needs form its *traversal descriptor*: the
post-order list of ops that the fork-join scheme (RAxML-Light) broadcasts
to its workers before every parallel region — the structure whose bytes
the paper's scheme eliminates (Table I puts 30–98% of fork-join bytes in
it; :func:`repro.engines.forkjoin.descriptor_nbytes` is its byte model).
It is built in one iterative pass, directly in that wire format, and each
op carries the set of partitions it is stale for (all of them, unless only
some models changed); the one list feeds the stacks, the broadcast and
the region log.

Compute follows ownership.  A partition with no local patterns (a rank's
share of a partition it does not own, see :mod:`repro.dist`) keeps its
replicated model state and takes part in the validity stamps — the
fork-join master's wire descriptor comes from them — but is in no
stack: no tip vectors, P matrices, CLVs or sumtables are built for it, no
kernel runs, nothing reaches the profiler, and its
slot of every per-partition result is an exact ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LikelihoodError, ModelError, TreeError
from repro.likelihood.stack import (
    PartitionStack,
    build_stacks,
    clv_stats,
    derivatives_of_stacks,
    evaluate_stacks,
    wire_ops,
)
from repro.model.frequencies import smooth_frequencies
from repro.model.rates import (
    DiscreteGamma,
    NoRateHeterogeneity,
    PerSiteRates,
    RateHeterogeneity,
)
from repro.model.substitution import SubstitutionModel
from repro.obs.nullprofiler import NULL_OP_PROFILER
from repro.seq.alignment import Alignment
from repro.seq.partitions import PartitionScheme
from repro.tree.topology import Node, Tree

__all__ = ["PartitionData", "PartitionedLikelihood", "BranchWorkspace",
           "EdgeDescriptor"]


class PartitionData:
    """Computational state of one partition.

    Parameters
    ----------
    name:
        Partition name.
    patterns:
        ``(n_taxa, n_patterns)`` bit-mask array (rows follow the *global*
        taxon order of the enclosing :class:`PartitionedLikelihood`).
    weights:
        Pattern multiplicities (may be scaled for virtual workloads).
    model:
        The partition's substitution model.
    rate_het:
        Γ, PSR or none.
    branch_set:
        Index into the tree's per-edge branch-length vectors (0 when
        branch lengths are joint across partitions).
    pattern_scale:
        Work multiplier: each real pattern stands for this many virtual
        patterns in the performance model.
    """

    def __init__(
        self,
        name: str,
        patterns: np.ndarray,
        weights: np.ndarray,
        model: SubstitutionModel,
        rate_het: RateHeterogeneity,
        branch_set: int = 0,
        pattern_scale: float = 1.0,
        alphabet=None,
    ) -> None:
        from repro.seq.alphabet import DNA

        self.name = name
        self.patterns = np.asarray(patterns, dtype=np.uint32)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.patterns.ndim != 2:
            raise LikelihoodError("patterns must be (n_taxa, n_patterns)")
        if self.weights.shape != (self.patterns.shape[1],):
            raise LikelihoodError("weights shape mismatch")
        if pattern_scale <= 0:
            raise LikelihoodError("pattern_scale must be positive")
        self.model = model
        self.rate_het = rate_het
        self.branch_set = int(branch_set)
        self.pattern_scale = float(pattern_scale)
        self.alphabet = alphabet if alphabet is not None else DNA
        self.model_version = 0

    @property
    def n_patterns(self) -> int:
        return int(self.patterns.shape[1])

    @property
    def cost_patterns(self) -> float:
        """Virtual pattern count charged to the performance model."""
        return self.n_patterns * self.pattern_scale

    @property
    def n_cats(self) -> int:
        return self.rate_het.n_cats

    @property
    def site_specific(self) -> bool:
        return self.rate_het.site_specific

    def category_rates(self) -> tuple[np.ndarray, np.ndarray | None]:
        return self.rate_het.category_rates(self.n_patterns)

    def bump_model(self) -> None:
        self.model_version += 1

    def subset(self, pattern_idx: np.ndarray) -> "PartitionData":
        """Pattern-subset copy (used to build per-rank local data).

        The rate-heterogeneity object is deep-copied: it is mutable
        (alpha updates, PSR rate updates), and shared state between a
        parent and its subsets would let one run's optimization leak into
        another's starting point.
        """
        pattern_idx = np.asarray(pattern_idx, dtype=np.intp)
        rate_het = self.rate_het
        if isinstance(rate_het, PerSiteRates):
            rate_het = PerSiteRates(rate_het.rates[pattern_idx])
        elif isinstance(rate_het, DiscreteGamma):
            rate_het = DiscreteGamma(alpha=rate_het.alpha, n_cats=rate_het.n_cats,
                                     method=rate_het.method)
        return PartitionData(
            name=self.name,
            patterns=self.patterns[:, pattern_idx],
            weights=self.weights[pattern_idx],
            model=self.model,
            rate_het=rate_het,
            branch_set=self.branch_set,
            pattern_scale=self.pattern_scale,
            alphabet=self.alphabet,
        )


#: Stale set of an orientation that is up to date for every partition
#: (tested by identity).
_VALID: frozenset[int] = frozenset()


@dataclass
class _Stamp:
    """What ``clv(node -> toward)`` was computed from (validity only)."""

    child_a: int
    child_b: int
    ver_a: int
    ver_b: int
    #: every partition's model version when the orientation was last
    #: computed or found valid for it
    model_vers: tuple[int, ...]
    #: the partitions whose rows were computed from a child CLV that has
    #: been recomputed since (``None``: all of them)
    dirty: frozenset[int] | None = _VALID


#: Memo miss.
_UNSEEN = object()


@dataclass
class EdgeDescriptor:
    """The CLV updates one edge needs.  ``ops`` are in fork-join's wire
    format, ``(node, toward, child_a, child_b, t_a, t_b)``, children before
    parents; ``masks[i]`` is the set of partitions op ``i`` is stale for
    (``None``: all of them, the common case).  An op's mask contains its
    children's, so ``ops`` is the longest per-partition descriptor."""

    ops: list[tuple]
    masks: list[frozenset[int] | None]
    n_partitions: int

    def op_counts(self) -> list[int]:
        """How many ops each partition takes part in."""
        counts = [sum(mask is None for mask in self.masks)] * self.n_partitions
        for mask in self.masks:
            for p in mask or ():
                counts[p] += 1
        return counts


@dataclass
class BranchWorkspace:
    """Per-branch state reused across Newton iterations: the sumtables,
    one per partition stack."""

    u: Node
    v: Node
    sumtables: list[np.ndarray]
    edge_version: int


class PartitionedLikelihood:
    """Likelihood of a tree over a list of partitions.

    Parameters
    ----------
    tree:
        The (mutable) tree; the instance observes it through version
        stamps, so callers may freely rearrange it between calls.
    parts:
        Per-partition data; all must share the global taxon order.
    taxa:
        Global taxon order (labels ↔ pattern rows).
    """

    def __init__(
        self,
        tree: Tree,
        parts: list[PartitionData],
        taxa: list[str],
    ) -> None:
        if not parts:
            raise LikelihoodError("need at least one partition")
        for part in parts:
            if part.patterns.shape[0] != len(taxa):
                raise LikelihoodError(
                    f"partition {part.name!r} has {part.patterns.shape[0]} rows "
                    f"for {len(taxa)} taxa"
                )
            if part.branch_set >= tree.n_branch_sets:
                raise LikelihoodError(
                    f"partition {part.name!r} wants branch set {part.branch_set} "
                    f"but the tree has only {tree.n_branch_sets} branch set(s)"
                )
        self.tree = tree
        self.parts = parts
        self.taxa = list(taxa)
        self.taxon_row = {label: i for i, label in enumerate(taxa)}
        self.profiler = NULL_OP_PROFILER
        self.stacks: list[PartitionStack] = build_stacks(parts)
        #: branch set of every partition (what derivatives are folded by)
        self.branch_sets = np.array([part.branch_set for part in parts],
                                    dtype=np.intp)
        # one validity stamp per directed edge, for all partitions; the
        # arrays it vouches for are in the stacks
        self._stamps: dict[tuple[int, int], _Stamp] = {}
        self._memo: dict[tuple[int, int], frozenset[int] | None] = {}
        self._memo_token: tuple | None = None
        self._versions: tuple[int, ...] = ()
        missing = [
            leaf.label for leaf in tree.leaves() if leaf.label not in self.taxon_row
        ]
        if missing:
            raise LikelihoodError(f"tree taxa missing from alignment: {missing}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        alignment: Alignment,
        tree: Tree,
        scheme: PartitionScheme | None = None,
        rate_mode: str = "gamma",
        n_cats: int = 4,
        alpha: float = 1.0,
        models: list[SubstitutionModel] | None = None,
        per_partition_branches: bool = False,
        pattern_scale: float = 1.0,
    ) -> "PartitionedLikelihood":
        """Assemble a likelihood from an alignment and a partition scheme.

        ``rate_mode`` is ``"gamma"`` (Γ with ``n_cats`` categories),
        ``"psr"`` (per-site rates, all starting at 1) or ``"none"``.
        Models default to GTR with all-ones exchangeabilities and smoothed
        empirical base frequencies per partition.
        """
        if scheme is None:
            scheme = PartitionScheme.single(alignment.n_sites)
        scheme.validate_cover(alignment.n_sites)
        if models is not None and len(models) != len(scheme):
            raise ModelError("one model per partition required")
        if per_partition_branches:
            tree.set_n_branch_sets(len(scheme))
        parts: list[PartitionData] = []
        for i, partition in enumerate(scheme):
            sub = alignment.slice_sites(partition.sites)
            pat = sub.compress()
            weights = pat.weights * pattern_scale
            if models is not None:
                model = models[i]
            else:
                freqs = smooth_frequencies(sub.empirical_frequencies())
                n_states = alignment.alphabet.n_states
                model = SubstitutionModel(
                    np.ones(n_states * (n_states - 1) // 2), freqs
                )
            rate_het: RateHeterogeneity
            if rate_mode == "gamma":
                rate_het = DiscreteGamma(alpha=alpha, n_cats=n_cats)
            elif rate_mode == "psr":
                rate_het = PerSiteRates(n_patterns=pat.n_patterns)
            elif rate_mode == "none":
                rate_het = NoRateHeterogeneity()
            else:
                raise ModelError(f"unknown rate_mode {rate_mode!r}")
            parts.append(
                PartitionData(
                    name=partition.name,
                    patterns=pat.patterns,
                    weights=weights,
                    model=model,
                    rate_het=rate_het,
                    branch_set=i if per_partition_branches else 0,
                    pattern_scale=pattern_scale,
                    alphabet=alignment.alphabet,
                )
            )
        return cls(tree, parts, alignment.taxa)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    @property
    def n_branch_sets(self) -> int:
        return self.tree.n_branch_sets

    # ------------------------------------------------------------------ #
    # cache validity
    # ------------------------------------------------------------------ #
    def _fresh_memos(self) -> None:
        versions = tuple(part.model_version for part in self.parts)
        token = (self.tree._version_counter, versions)
        if token != self._memo_token:
            self._memo.clear()
            self._memo_token = token
            self._versions = versions

    def _edge_nodes(self, key: tuple[int, int]) -> tuple[Node, Node] | None:
        """``(node, toward)`` of a directed edge the tree still has."""
        try:
            node = self.tree.node(key[0])
            toward = self.tree.node(key[1])
        except TreeError:
            return None
        return (node, toward) if node in toward.neighbors else None

    def _walk(self, roots, ops: list | None = None,
              masks: list | None = None) -> frozenset[int] | None:
        """One iterative post-order pass over the orientations behind
        ``roots`` (``(node, toward)`` pairs, in order).  Each orientation's
        stale set — :data:`_VALID` (none), ``None`` (every partition) or
        the partitions it is out of date for — is its stamp's verdict
        united with its children's, memoised until the tree or a model
        changes.  With ``ops``, every orientation not valid for all
        partitions is appended in wire format, children before parents,
        with its stale set in ``masks``; a valid orientation's subtree is
        skipped (its children are valid too).  Returns the last root's."""
        tree, memo = self.tree, self._memo
        todo = [(node, toward, None, None) for node, toward in reversed(roots)]
        while todo:
            node, toward, children, own = todo.pop()
            key = (node.id, toward.id)
            stale = memo.get(key, _UNSEEN)
            if children is None:  # first visit: the stamp, then the children
                if (node.is_leaf or stale is _VALID
                        or (ops is None and stale is not _UNSEEN)):
                    continue
                children = tree.other_neighbors(node, toward)
                if len(children) != 2:
                    if ops is not None:
                        raise TreeError(
                            f"inner node {node.id} has {len(children) + 1} "
                            "neighbors; tree is not binary")
                    memo[key] = None
                    continue
                if stale is _UNSEEN:
                    own = self._stamp_stale(key, node, children)
                    if own is None and ops is None:
                        memo[key] = None  # no need to look below
                        continue
                a, b = children  # sorted by id: a's ops come first
                todo += [(node, toward, children, own), (b, node, None, None),
                         (a, node, None, None)]
                continue
            if stale is _UNSEEN:  # last visit: unite with the children's
                stale = own
                for child in children:
                    below = _VALID if child.is_leaf else memo[(child.id, node.id)]
                    if stale is None or below is None:
                        stale = None
                    elif below:  # a valid result stays the _VALID object
                        stale = stale | below
                if stale is not None and len(stale) == len(self.parts):
                    stale = None
                memo[key] = stale
            if stale is not _VALID and ops is not None:
                a, b = children
                ops.append((node.id, toward.id, a.id, b.id,
                            tree.edge_length(node, a), tree.edge_length(node, b)))
                masks.append(stale)
        return memo.get((roots[-1][0].id, roots[-1][1].id))

    def _stamp_stale(self, key: tuple[int, int], node: Node,
                     children: list[Node]) -> frozenset[int] | None:
        """What the stamp of ``clv(key)`` alone says (children aside)."""
        entry = self._stamps.get(key)
        a, b = children
        if (entry is None or entry.dirty is None
                or (a.id, b.id) != (entry.child_a, entry.child_b)
                or self.tree.edge_version(node, a) != entry.ver_a
                or self.tree.edge_version(node, b) != entry.ver_b):
            return None
        if entry.model_vers == self._versions:
            return entry.dirty
        return entry.dirty | frozenset(
            p for p, (then, now) in enumerate(zip(entry.model_vers, self._versions))
            if then != now)

    def invalidate_partition(self, p: int) -> None:
        """Drop all cached CLVs of partition ``p`` (model change)."""
        self.parts[p].bump_model()

    def invalidate_all(self) -> None:
        for part in self.parts:
            part.bump_model()

    def _evict(self, keys: list[tuple[int, int]]) -> int:
        for key in keys:
            del self._stamps[key]
        return sum(stack.drop(keys) for stack in self.stacks)

    def gc(self) -> int:
        """Drop the cache entries no partition can use any more (stale for
        every partition, or their edge is gone); returns how many
        per-partition CLVs were evicted."""
        self._fresh_memos()
        return self._evict([k for k in self._stamps
                            if (nodes := self._edge_nodes(k)) is None
                            or self._walk((nodes,)) is None])

    def _sweep(self) -> None:
        """Keep the store bounded: SPR moves leave behind the orientations
        of edges they removed, so once the store holds twice the
        orientations a tree has, drop those whose edge is gone.  An edge
        that is pruned and restored keeps its CLV in between — it is still
        valid by its stamp — which is why this is not done on every
        topology change."""
        orientations = 3 * (self.tree.n_edges - 1) // 2  # 3 per inner node
        if len(self._stamps) > 2 * orientations:
            self._evict([k for k in self._stamps if self._edge_nodes(k) is None])

    def drop_clvs(self) -> None:
        """Forget every CLV and stamp (the tree object was replaced)."""
        self._evict(list(self._stamps))
        self._memo_token = None

    def clv_stats(self) -> list[dict[str, int]]:
        """Per-partition CLV cache accounting (for profile emission).

        Counts arrays, not stamps: a partition with no local patterns
        reports zero entries and zero bytes."""
        return clv_stats(self.stacks, self.n_partitions)

    # ------------------------------------------------------------------ #
    # CLV computation
    # ------------------------------------------------------------------ #
    def _ref(self, node: Node, toward: int) -> int | tuple[int, int]:
        """Stack operand reference of ``node`` seen from node ``toward``."""
        if node.is_leaf:
            return self.taxon_row[node.label]
        return (node.id, toward)

    def descriptors_for_edge(self, u: Node, v: Node) -> EdgeDescriptor:
        """The CLV updates edge ``{u, v}`` still needs, with the partitions
        each is needed for (what :meth:`ensure_clvs` executes): one pass
        from ``u``'s side, then from ``v``'s."""
        if not self.tree.has_edge(u, v):
            raise TreeError(f"cannot evaluate at missing edge ({u.id},{v.id})")
        self._fresh_memos()
        ops, masks = [], []
        self._walk(((u, v), (v, u)), ops, masks)
        return EdgeDescriptor(ops, masks, self.n_partitions)

    def execute_descriptors(self, descriptors: EdgeDescriptor) -> None:
        """Run :meth:`descriptors_for_edge`'s result: recompute the listed
        orientations on the stacks and stamp them (a partition with no
        local patterns is stamped only)."""
        if not descriptors.ops:
            return
        tree = self.tree
        ops = wire_ops(descriptors.ops, descriptors.masks,
                       lambda child, node: self._ref(tree.node(child), node))
        for stack in self.stacks:
            stack.traverse(ops, self.profiler)
        for (node_id, toward, a_id, b_id, *_), mask in zip(descriptors.ops,
                                                            descriptors.masks):
            node = tree.node(node_id)
            self._stamps[(node_id, toward)] = _Stamp(
                a_id, b_id, tree.edge_version(node, tree.node(a_id)),
                tree.edge_version(node, tree.node(b_id)), self._versions)
            self._memo[(node_id, toward)] = _VALID
            # an orientation that reads this CLV keeps rows computed from
            # the old one (a later op of this descriptor restamps it; a
            # memo entry of it already holds ``mask``)
            for other in tree.node(toward).neighbors:
                reader = self._stamps.get((toward, other.id))
                if other.id != node_id and reader and reader.dirty is not None:
                    reader.dirty = None if mask is None else reader.dirty | mask
        self._sweep()

    def ensure_clvs(self, u: Node, v: Node) -> EdgeDescriptor:
        """Make both CLVs of edge ``{u, v}`` valid; returns the executed
        descriptor (for region accounting)."""
        descriptors = self.descriptors_for_edge(u, v)
        self.execute_descriptors(descriptors)
        return descriptors

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self, u: Node, v: Node
    ) -> tuple[float, np.ndarray, EdgeDescriptor]:
        """Log likelihood at the virtual root on edge ``{u, v}``.

        Returns ``(total, per_partition, descriptors)``; ``per_partition``
        is the vector a distributed run reduces (``0.0`` in the slot of a
        partition with no local patterns).
        """
        descriptors = self.ensure_clvs(u, v)
        per_part, _ = self.evaluate_local(u, v)
        return float(per_part.sum()), per_part, descriptors

    def evaluate_local(
        self, u: Node, v: Node
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-partition log likelihoods and per-pattern log likelihoods
        from the CLVs edge ``{u, v}`` already has (see :meth:`ensure_clvs`)."""
        return evaluate_stacks(
            self.stacks, self.n_partitions, self._ref(u, v.id), self._ref(v, u.id),
            self.tree.edge_length(u, v), self.profiler)

    def site_log_likelihoods(
        self, u: Node, v: Node
    ) -> list[np.ndarray]:
        """Per-pattern log likelihoods per partition (PSR optimizer input)."""
        self.ensure_clvs(u, v)
        return self.evaluate_local(u, v)[1]

    # ------------------------------------------------------------------ #
    # branch-length derivatives (Newton–Raphson support)
    # ------------------------------------------------------------------ #
    def prepare_branch(self, u: Node, v: Node) -> BranchWorkspace:
        """Build the eigen-basis sumtables for edge ``{u, v}``.

        The sumtables are independent of the branch length, so a whole
        Newton iteration sequence reuses one workspace.
        """
        self.ensure_clvs(u, v)
        return self.sumtables_local(u, v)

    def sumtables_local(self, u: Node, v: Node) -> BranchWorkspace:
        """:meth:`prepare_branch` from the CLVs the edge already has."""
        sumtables = [
            stack.sumtable(self._ref(u, v.id), self._ref(v, u.id), self.profiler)
            for stack in self.stacks
        ]
        return BranchWorkspace(
            u=u, v=v, sumtables=sumtables, edge_version=self.tree.edge_version(u, v)
        )

    def branch_derivatives(
        self, ws: BranchWorkspace, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First/second log-likelihood derivatives per partition at branch
        lengths ``t`` (shape ``(n_branch_sets,)``); both ``0.0`` for a
        partition with no local patterns."""
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (self.n_branch_sets,):
            raise LikelihoodError(
                f"t shape {t.shape} != ({self.n_branch_sets},)"
            )
        return derivatives_of_stacks(
            self.stacks, self.n_partitions, ws.sumtables, t, self.profiler)

    # ------------------------------------------------------------------ #
    # model parameter setters
    # ------------------------------------------------------------------ #
    def set_alpha(self, p: int, alpha: float) -> None:
        rate_het = self.parts[p].rate_het
        if not isinstance(rate_het, DiscreteGamma):
            raise ModelError(f"partition {p} does not use the Γ model")
        rate_het.alpha = alpha
        self.invalidate_partition(p)

    def set_gtr_rates(self, p: int, rates: np.ndarray) -> None:
        self.parts[p].model = self.parts[p].model.with_rates(np.asarray(rates, float))
        self.invalidate_partition(p)

    def set_psr_rates(self, p: int, rates: np.ndarray) -> None:
        rate_het = self.parts[p].rate_het
        if not isinstance(rate_het, PerSiteRates):
            raise ModelError(f"partition {p} does not use the PSR model")
        rate_het.set_rates(rates)
        self.invalidate_partition(p)

    def get_alpha(self, p: int) -> float:
        rate_het = self.parts[p].rate_het
        if not isinstance(rate_het, DiscreteGamma):
            raise ModelError(f"partition {p} does not use the Γ model")
        return rate_het.alpha

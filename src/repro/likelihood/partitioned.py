"""Partitioned likelihood orchestration.

:class:`PartitionedLikelihood` owns, per partition: the compressed site
patterns, tip vectors, substitution model, rate-heterogeneity model and a
cache of conditional likelihood vectors keyed by directed edge.  It is the
*computational* engine that both parallelization schemes drive — in a real
distributed run every rank holds one over its local data; in lock-step
simulation a single instance holds the full data.

Cache invalidation is dependency-tracked: every computed orientation
records the identity of its two children and the version stamps of the
connecting edges and of the partition's model.  An orientation is valid
iff those stamps still match and its children are (recursively) valid, so
branch-length changes, SPR moves and model updates invalidate exactly the
right CLVs without any explicit notification — the same effect as RAxML's
orientation bookkeeping, but robust against arbitrary topology edits.

Compute follows ownership.  A partition with no local patterns (a rank's
share of a partition it does not own, see :mod:`repro.dist`) keeps its
replicated model state and its validity stamps — the fork-join master
derives the wire descriptor from them — but no arrays: no tip vectors,
P matrices, CLVs or sumtables are built for it, no kernel runs, nothing
is charged to the ledger or the profiler, and its slot of every
per-partition result is an exact ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LikelihoodError, ModelError
from repro.likelihood import kernel
from repro.model.frequencies import smooth_frequencies
from repro.model.rates import (
    DiscreteGamma,
    NoRateHeterogeneity,
    PerSiteRates,
    RateHeterogeneity,
)
from repro.model.substitution import SubstitutionModel
from repro.par.ledger import ComputeItem, OpKind, WorkLedger
from repro.seq.alignment import Alignment
from repro.seq.partitions import PartitionScheme
from repro.tree.topology import Node, Tree
from repro.tree.traversal import TraversalDescriptor, traversal_for_edge

__all__ = ["PartitionData", "PartitionedLikelihood", "BranchWorkspace"]


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
        self._tips: dict[int, np.ndarray] = {}

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

    def tip_clv(self, taxon_row: int) -> np.ndarray:
        """Cached 0/1 tip vector for the given global taxon row."""
        tip = self._tips.get(taxon_row)
        if tip is None:
            tip = self.alphabet.tip_vectors(self.patterns[taxon_row])
            self._tips[taxon_row] = tip
        return tip

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


@dataclass
class _Stamp:
    """What ``clv(node -> toward)`` was computed from (validity only)."""

    child_a: int
    child_b: int
    ver_a: int
    ver_b: int
    model_ver: int


@dataclass
class BranchWorkspace:
    """Per-branch state reused across Newton iterations: the sumtables
    (``None`` for a partition with no local patterns)."""

    u: Node
    v: Node
    sumtables: list[np.ndarray | None]
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
    ledger:
        Optional cumulative :class:`WorkLedger`.
    """

    def __init__(
        self,
        tree: Tree,
        parts: list[PartitionData],
        taxa: list[str],
        ledger: WorkLedger | None = None,
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
                    f"but tree has {tree.n_branch_sets}"
                )
        # Lazy import: repro.obs.hotspots initializes the repro.obs
        # package, parts of which import back into likelihood/engines.
        from repro.obs.hotspots import NULL_OP_PROFILER

        self.tree = tree
        self.parts = parts
        self.taxa = list(taxa)
        self.taxon_row = {label: i for i, label in enumerate(taxa)}
        self.ledger = ledger if ledger is not None else WorkLedger()
        self.profiler = NULL_OP_PROFILER
        # per partition, keyed by directed edge: validity stamps for every
        # partition, (clv, scale) arrays only where there are local patterns
        self._stamps: list[dict[tuple[int, int], _Stamp]] = [{} for _ in parts]
        self._clv: list[dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]] = [
            {} for _ in parts
        ]
        self._memo: list[dict[tuple[int, int], bool]] = [{} for _ in parts]
        self._memo_counter = -1
        self._clv_bytes = [0] * len(parts)
        self._clv_peak = [0] * len(parts)
        self._clv_evictions = [0] * len(parts)
        self._clv_evicted_bytes = [0] * len(parts)
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
        ledger: WorkLedger | None = None,
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
        return cls(tree, parts, alignment.taxa, ledger)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    @property
    def n_branch_sets(self) -> int:
        return self.tree.n_branch_sets

    def total_cost_patterns(self) -> float:
        return sum(p.cost_patterns for p in self.parts)

    # ------------------------------------------------------------------ #
    # cache validity
    # ------------------------------------------------------------------ #
    def _fresh_memos(self) -> None:
        if self._memo_counter != self.tree._version_counter:
            for memo in self._memo:
                memo.clear()
            self._memo_counter = self.tree._version_counter

    def _is_valid(self, p: int, key: tuple[int, int]) -> bool:
        memo = self._memo[p]
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = self._check_valid(p, key)
        memo[key] = ok
        return ok

    def _check_valid(self, p: int, key: tuple[int, int]) -> bool:
        entry = self._stamps[p].get(key)
        if entry is None or entry.model_ver != self.parts[p].model_version:
            return False
        tree = self.tree
        try:
            node = tree.node(key[0])
            toward = tree.node(key[1])
        except Exception:
            return False
        if node not in toward.neighbors:
            return False
        children = tree.other_neighbors(node, toward)
        if len(children) != 2:
            return False
        a, b = children  # sorted by id
        if (a.id, b.id) != (entry.child_a, entry.child_b):
            return False
        if tree.edge_version(node, a) != entry.ver_a:
            return False
        if tree.edge_version(node, b) != entry.ver_b:
            return False
        for child in (a, b):
            if not child.is_leaf and not self._is_valid(p, (child.id, node.id)):
                return False
        return True

    def invalidate_partition(self, p: int) -> None:
        """Drop all cached CLVs of partition ``p`` (model change)."""
        self.parts[p].bump_model()
        self._memo[p].clear()

    def invalidate_all(self) -> None:
        for p in range(self.n_partitions):
            self.invalidate_partition(p)

    def gc(self) -> int:
        """Drop stale cache entries; returns how many were evicted."""
        self._fresh_memos()
        evicted = 0
        for p, stamps in enumerate(self._stamps):
            store = self._clv[p]
            dead = [k for k in stamps if not self._is_valid(p, k)]
            for k in dead:
                del stamps[k]
                arrays = store.pop(k, None)
                if arrays is not None:
                    nbytes = arrays[0].nbytes + arrays[1].nbytes
                    self._clv_bytes[p] -= nbytes
                    self._clv_evicted_bytes[p] += nbytes
                    self._clv_evictions[p] += 1
                    evicted += 1
        return evicted

    def clv_stats(self) -> list[dict[str, int]]:
        """Per-partition CLV cache accounting (for profile emission).

        Counts arrays, not stamps: a partition with no local patterns
        reports zero entries and zero bytes."""
        return [
            {
                "partition": p,
                "entries": len(self._clv[p]),
                "live_bytes": self._clv_bytes[p],
                "peak_bytes": self._clv_peak[p],
                "evictions": self._clv_evictions[p],
                "evicted_bytes": self._clv_evicted_bytes[p],
            }
            for p in range(self.n_partitions)
        ]

    # ------------------------------------------------------------------ #
    # CLV computation
    # ------------------------------------------------------------------ #
    def _side_clv(
        self, p: int, node: Node, toward: Node
    ) -> tuple[np.ndarray, np.ndarray | None]:
        if node.is_leaf:
            return self.parts[p].tip_clv(self.taxon_row[node.label]), None
        arrays = self._clv[p].get((node.id, toward.id))
        if arrays is None:  # pragma: no cover - traversal guarantees presence
            raise LikelihoodError(f"missing CLV ({node.id}->{toward.id})")
        return arrays

    def _branch_length(self, part: PartitionData, u: Node, v: Node) -> float:
        return float(self.tree.edge_length(u, v)[part.branch_set])

    def descriptors_for_edge(self, u: Node, v: Node) -> list[TraversalDescriptor]:
        """Per-partition descriptors of the CLV updates edge ``{u, v}``
        still needs (what :meth:`ensure_clvs` executes)."""
        self._fresh_memos()
        return [
            traversal_for_edge(
                self.tree, u, v, is_valid=lambda key, p=p: self._is_valid(p, key)
            )
            for p in range(self.n_partitions)
        ]

    def execute_descriptors(self, descriptors: list[TraversalDescriptor]) -> None:
        """Run :meth:`descriptors_for_edge`'s result, one per partition."""
        for p, desc in enumerate(descriptors):
            self._execute_descriptor(p, desc)

    def ensure_clvs(self, u: Node, v: Node) -> list[TraversalDescriptor]:
        """Make both CLVs of edge ``{u, v}`` valid; returns the executed
        per-partition traversal descriptors (for region accounting)."""
        descriptors = self.descriptors_for_edge(u, v)
        self.execute_descriptors(descriptors)
        return descriptors

    def _execute_descriptor(self, p: int, desc: TraversalDescriptor) -> None:
        """Recompute and stamp the orientations ``desc`` lists; a partition
        with no local patterns is stamped only."""
        part = self.parts[p]
        owned = part.n_patterns > 0
        if owned:
            eigen = part.model.eigen()
            rates, _ = part.category_rates()
            store = self._clv[p]
            prof = self.profiler
            unit = part.cost_patterns * part.n_cats
            n_states = part.model.n_states
            live = self._clv_bytes[p]
            peak = self._clv_peak[p]
        tree = self.tree
        stamps = self._stamps[p]
        memo = self._memo[p]
        for op in desc.ops:
            key = (op.node, op.toward)
            node = tree.node(op.node)
            a = tree.node(op.child_a)
            b = tree.node(op.child_b)
            if owned:
                ta = self._branch_length(part, node, a)
                tb = self._branch_length(part, node, b)
                t0 = prof.begin()
                p_a = kernel.pmatrices(eigen, ta, rates)
                p_b = kernel.pmatrices(eigen, tb, rates)
                prof.end(t0, "pmatrix", p, 2 * len(rates), count=2,
                         alloc=p_a.nbytes + p_b.nbytes,
                         n_states=n_states, site_specific=part.site_specific)
                clv_a, scale_a = self._side_clv(p, a, node)
                clv_b, scale_b = self._side_clv(p, b, node)
                t0 = prof.begin()
                arrays = kernel.newview(
                    p_a, clv_a, scale_a, p_b, clv_b, scale_b,
                    site_specific=part.site_specific,
                )
                nbytes = arrays[0].nbytes + arrays[1].nbytes
                prof.end(t0, "newview", p, unit, alloc=nbytes,
                         n_states=n_states, site_specific=part.site_specific)
                old = store.get(key)
                if old is not None:
                    live -= old[0].nbytes + old[1].nbytes
                store[key] = arrays
                live += nbytes
                if live > peak:
                    peak = live
            if a.id > b.id:
                a, b = b, a
            stamps[key] = _Stamp(
                child_a=a.id,
                child_b=b.id,
                ver_a=tree.edge_version(node, a),
                ver_b=tree.edge_version(node, b),
                model_ver=part.model_version,
            )
            memo[key] = True
        if owned and desc.ops:
            self._clv_bytes[p] = live
            self._clv_peak[p] = peak
            self.ledger.charge(
                ComputeItem(
                    op=OpKind.NEWVIEW,
                    partition=p,
                    n_patterns=part.cost_patterns,
                    n_cats=part.n_cats,
                    count=len(desc.ops),
                    site_specific=part.site_specific,
                )
            )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self, u: Node, v: Node, ensure: bool = True
    ) -> tuple[float, np.ndarray, list[TraversalDescriptor]]:
        """Log likelihood at the virtual root on edge ``{u, v}``.

        Returns ``(total, per_partition, descriptors)``; ``per_partition``
        is the vector a distributed run reduces (``0.0`` in the slot of a
        partition with no local patterns).
        """
        descriptors = self.ensure_clvs(u, v) if ensure else []
        per_part = np.empty(self.n_partitions)
        for p in range(self.n_partitions):
            total, _ = self._evaluate_partition(p, u, v)
            per_part[p] = total
        return float(per_part.sum()), per_part, descriptors

    def _evaluate_partition(
        self, p: int, u: Node, v: Node
    ) -> tuple[float, np.ndarray]:
        part = self.parts[p]
        if part.n_patterns == 0:
            return 0.0, np.empty(0)
        eigen = part.model.eigen()
        rates, cat_w = part.category_rates()
        prof = self.profiler
        t = self._branch_length(part, u, v)
        t0 = prof.begin()
        p_root = kernel.pmatrices(eigen, t, rates)
        prof.end(t0, "pmatrix", p, len(rates), alloc=p_root.nbytes,
                 n_states=part.model.n_states,
                 site_specific=part.site_specific)
        clv_i, scale_i = self._side_clv(p, u, v)
        clv_j, scale_j = self._side_clv(p, v, u)
        t0 = prof.begin()
        total, log_site = kernel.evaluate_edge(
            p_root,
            clv_i,
            scale_i,
            clv_j,
            scale_j,
            part.model.frequencies,
            cat_w,
            part.weights,
            site_specific=part.site_specific,
        )
        prof.end(t0, "evaluate", p, part.cost_patterns * part.n_cats,
                 n_states=part.model.n_states,
                 site_specific=part.site_specific)
        self.ledger.charge(
            ComputeItem(
                op=OpKind.EVALUATE,
                partition=p,
                n_patterns=part.cost_patterns,
                n_cats=part.n_cats,
                site_specific=part.site_specific,
            )
        )
        return total, log_site

    def site_log_likelihoods(
        self, u: Node, v: Node
    ) -> list[np.ndarray]:
        """Per-pattern log likelihoods per partition (PSR optimizer input)."""
        self.ensure_clvs(u, v)
        return [self._evaluate_partition(p, u, v)[1] for p in range(self.n_partitions)]

    # ------------------------------------------------------------------ #
    # branch-length derivatives (Newton–Raphson support)
    # ------------------------------------------------------------------ #
    def prepare_branch(self, u: Node, v: Node) -> BranchWorkspace:
        """Build the eigen-basis sumtables for edge ``{u, v}``.

        The sumtables are independent of the branch length, so a whole
        Newton iteration sequence reuses one workspace.
        """
        self.ensure_clvs(u, v)
        sumtables: list[np.ndarray | None] = []
        prof = self.profiler
        for p in range(self.n_partitions):
            part = self.parts[p]
            if part.n_patterns == 0:
                sumtables.append(None)
                continue
            eigen = part.model.eigen()
            clv_i, _ = self._side_clv(p, u, v)
            clv_j, _ = self._side_clv(p, v, u)
            t0 = prof.begin()
            table = kernel.sumtable(eigen, clv_i, clv_j)
            prof.end(t0, "sumtable", p, part.cost_patterns * part.n_cats,
                     alloc=table.nbytes, n_states=part.model.n_states,
                     site_specific=part.site_specific)
            sumtables.append(table)
            self.ledger.charge(
                ComputeItem(
                    op=OpKind.SUMTABLE,
                    partition=p,
                    n_patterns=part.cost_patterns,
                    n_cats=part.n_cats,
                    site_specific=part.site_specific,
                )
            )
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
        d1 = np.zeros(self.n_partitions)
        d2 = np.zeros(self.n_partitions)
        prof = self.profiler
        for p in range(self.n_partitions):
            part = self.parts[p]
            table = ws.sumtables[p]
            if table is None:
                continue
            eigen = part.model.eigen()
            rates, cat_w = part.category_rates()
            t0 = prof.begin()
            _, dl, d2l = kernel.derivatives_from_sumtable(
                eigen,
                table,
                float(t[part.branch_set]),
                rates,
                cat_w,
                part.weights,
            )
            prof.end(t0, "derivative", p, part.cost_patterns * part.n_cats,
                     n_states=part.model.n_states,
                     site_specific=part.site_specific)
            d1[p] = dl
            d2[p] = d2l
            self.ledger.charge(
                ComputeItem(
                    op=OpKind.DERIVATIVE,
                    partition=p,
                    n_patterns=part.cost_patterns,
                    n_cats=part.n_cats,
                    site_specific=part.site_specific,
                )
            )
        return d1, d2

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

    def set_frequencies(self, p: int, freqs: np.ndarray) -> None:
        self.parts[p].model = self.parts[p].model.with_frequencies(
            np.asarray(freqs, float)
        )
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

    # ------------------------------------------------------------------ #
    # memory model hooks
    # ------------------------------------------------------------------ #
    def clv_bytes_per_inner_node(self) -> float:
        """Virtual bytes of one inner-node CLV across all partitions —
        the quantity behind the paper's 'Γ needs 4× PSR memory' point."""
        total = 0.0
        for part in self.parts:
            n_states = part.model.n_states
            total += part.cost_patterns * part.n_cats * n_states * 8
        return total

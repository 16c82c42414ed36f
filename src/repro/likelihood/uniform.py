"""Stacked-partition likelihood: vectorized across partitions.

The reference :class:`PartitionedLikelihood` loops over partitions in
Python — perfectly fine for tens of partitions, hopeless for the paper's
1000-partition workloads.  When every partition has the same pattern count
and rate-heterogeneity flavor (true by construction for the generated
benchmark datasets), all per-partition state can be *stacked* along a
leading axis and every kernel becomes a single einsum over
``(p, n_patterns, …)`` arrays: the classic "vectorize the Python loop"
optimization, worth 1–2 orders of magnitude here.

Numerically this is the same computation in a different evaluation order
per partition-stack; results agree with the reference implementation to
tight float64 tolerance (asserted by the equivalence tests).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LikelihoodError
from repro.likelihood.partitioned import (
    BranchWorkspace,
    PartitionData,
    PartitionedLikelihood,
)
from repro.model.rates import DiscreteGamma
from repro.par.ledger import ComputeItem, OpKind
from repro.tree.topology import Node, Tree
from repro.tree.traversal import TraversalDescriptor, traversal_for_edge

__all__ = ["UniformPartitionedLikelihood"]

_SCALE_THRESHOLD = 1e-100
_LH_FLOOR = 1e-300

#: Cache entries beyond which invalid CLVs are garbage collected.
_GC_HIGH_WATER_FACTOR = 2


class UniformPartitionedLikelihood(PartitionedLikelihood):
    """Drop-in replacement for uniform partition stacks.

    Requirements: every partition has the same ``n_patterns``, the same
    rate-heterogeneity class (all Γ with equal category count, all PSR, or
    all uniform-rate) and four states.  Model parameters may differ freely
    per partition.
    """

    def __init__(self, tree: Tree, parts: list[PartitionData], taxa: list[str],
                 ledger=None) -> None:
        super().__init__(tree, parts, taxa, ledger)
        n = parts[0].n_patterns
        kinds = {type(p.rate_het) for p in parts}
        if len(kinds) != 1:
            raise LikelihoodError("uniform stack needs one rate-het flavor")
        if n == 0 or any(p.n_patterns != n for p in parts):
            raise LikelihoodError(
                "uniform stack needs equal pattern counts, at least one each")
        if any(p.model.n_states != 4 for p in parts):
            raise LikelihoodError("uniform stack is DNA-only")
        if any(p.n_cats != parts[0].n_cats for p in parts):
            raise LikelihoodError("uniform stack needs equal category counts")
        self._n = n
        self._site_specific = parts[0].site_specific
        self._cats = parts[0].n_cats
        # stacked constants
        self._weights = np.stack([p.weights for p in parts])  # (p, n)
        self._stack_valid = False
        self._stack: dict[str, np.ndarray] = {}
        # single CLV cache keyed by directed edge (all partitions together)
        self._ucache: dict[tuple[int, int], tuple] = {}
        self._umemo: dict[tuple[int, int], bool] = {}
        self._umemo_counter = -1
        self._stack_model_version = -1
        # tip stacks built lazily per taxon row
        self._utips: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # stacked model state
    # ------------------------------------------------------------------ #
    def _model_fingerprint(self) -> int:
        return sum(p.model_version for p in self.parts) + 1000003 * len(self.parts)

    def _ensure_stack(self) -> None:
        fp = self._model_fingerprint()
        if self._stack_valid and fp == self._stack_model_version:
            return
        lam = np.empty((self.n_partitions, 4))
        left = np.empty((self.n_partitions, 4, 4))
        right = np.empty((self.n_partitions, 4, 4))
        freqs = np.empty((self.n_partitions, 4))
        for i, part in enumerate(self.parts):
            eigen = part.model.eigen()
            lam[i] = eigen.eigenvalues
            left[i] = eigen.left
            right[i] = eigen.right
            freqs[i] = part.model.frequencies
        stack = {"lam": lam, "left": left, "right": right, "freqs": freqs}
        if self._site_specific:
            stack["rates"] = np.stack(
                [p.rate_het.rates for p in self.parts]  # type: ignore[attr-defined]
            )  # (p, n)
        else:
            rates = np.empty((self.n_partitions, self._cats))
            for i, part in enumerate(self.parts):
                r, _ = part.category_rates()
                rates[i] = r
            stack["rates"] = rates  # (p, cats)
            stack["cat_w"] = np.full(self._cats, 1.0 / self._cats) if isinstance(
                self.parts[0].rate_het, DiscreteGamma
            ) else np.ones(1)
        self._stack = stack
        self._stack_valid = True
        self._stack_model_version = fp

    def _tip(self, row: int) -> np.ndarray:
        """Stacked tip vectors for one taxon row: ``(p, n, 4)``."""
        tip = self._utips.get(row)
        if tip is None:
            masks = np.stack([p.patterns[row] for p in self.parts])  # (p, n)
            bits = (masks[..., None] >> np.arange(4)) & 1
            tip = bits.astype(np.float64)
            self._utips[row] = tip
        return tip

    # ------------------------------------------------------------------ #
    # stacked kernels
    # ------------------------------------------------------------------ #
    def _pmats(self, t_per_part: np.ndarray) -> np.ndarray:
        """P matrices for one branch: (p, cats, 4, 4) or (p, n, 4, 4)."""
        s = self._stack
        if self._site_specific:
            arg = s["rates"] * t_per_part[:, None]  # (p, n)
            expo = np.exp(arg[..., None] * s["lam"][:, None, :])  # (p, n, 4)
            return np.einsum("pik,pnk,pkj->pnij", s["left"], expo, s["right"])
        arg = s["rates"] * t_per_part[:, None]  # (p, cats)
        expo = np.exp(arg[..., None] * s["lam"][:, None, :])  # (p, cats, 4)
        return np.einsum("pik,pck,pkj->pcij", s["left"], expo, s["right"])

    def _apply(self, pmat: np.ndarray, child) -> np.ndarray:
        """Propagate a child (tip or CLV) through stacked P matrices.

        Tips are ``(p, n, 4)``, CLVs ``(p, n, cats, 4)``; the result is
        always ``(p, n, cats, 4)``.
        """
        if self._site_specific:
            if child.ndim == 3:  # tip
                out = np.einsum("pnxy,pny->pnx", pmat, child)
                return out[:, :, None, :]
            return np.einsum("pnxy,pncy->pncx", pmat, child)
        if child.ndim == 3:  # tip
            return np.einsum("pcxy,pny->pncx", pmat, child)
        return np.einsum("pcxy,pncy->pncx", pmat, child)

    def _uside(self, node: Node, toward: Node):
        if node.is_leaf:
            return self._tip(self.taxon_row[node.label]), None
        entry = self._ucache.get((node.id, toward.id))
        if entry is None:  # pragma: no cover - traversal guarantees order
            raise LikelihoodError(f"missing stacked CLV ({node.id}->{toward.id})")
        return entry[0], entry[1]

    def _branch_vector(self, u: Node, v: Node) -> np.ndarray:
        """Per-partition branch lengths for edge {u, v}: shape (p,)."""
        lengths = self.tree.edge_length(u, v)
        bs = np.array([p.branch_set for p in self.parts])
        return lengths[bs]

    # ------------------------------------------------------------------ #
    # validity (single global cache; any model change invalidates all)
    # ------------------------------------------------------------------ #
    def _ufresh(self) -> None:
        if self._umemo_counter != self.tree._version_counter:
            self._umemo.clear()
            self._umemo_counter = self.tree._version_counter

    def _uvalid(self, key: tuple[int, int]) -> bool:
        memo = self._umemo.get(key)
        if memo is not None:
            return memo
        ok = self._ucheck(key)
        self._umemo[key] = ok
        return ok

    def _ucheck(self, key: tuple[int, int]) -> bool:
        entry = self._ucache.get(key)
        if entry is None or entry[2] != self._model_fingerprint():
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
        a, b = children
        if (a.id, b.id) != entry[3]:
            return False
        if tree.edge_version(node, a) != entry[4] or tree.edge_version(node, b) != entry[5]:
            return False
        for child in (a, b):
            if not child.is_leaf and not self._uvalid((child.id, node.id)):
                return False
        return True

    def _maybe_gc(self) -> None:
        if len(self._ucache) > _GC_HIGH_WATER_FACTOR * max(1, 2 * self.tree.n_edges):
            self._ufresh()
            dead = [k for k in self._ucache if not self._uvalid(k)]
            for k in dead:
                del self._ucache[k]

    # ------------------------------------------------------------------ #
    # overridden public API
    # ------------------------------------------------------------------ #
    def ensure_clvs(self, u: Node, v: Node) -> list[TraversalDescriptor]:
        self._ensure_stack()
        self._ufresh()
        desc = traversal_for_edge(self.tree, u, v, is_valid=self._uvalid)
        fp = self._model_fingerprint()
        tree = self.tree
        for op in desc.ops:
            node = tree.node(op.node)
            a = tree.node(op.child_a)
            b = tree.node(op.child_b)
            p_a = self._pmats(self._branch_vector(node, a))
            p_b = self._pmats(self._branch_vector(node, b))
            clv_a, scale_a = self._uside(a, node)
            clv_b, scale_b = self._uside(b, node)
            clv = self._apply(p_a, clv_a) * self._apply(p_b, clv_b)
            scale = np.zeros((self.n_partitions, self._n))
            if scale_a is not None:
                scale += scale_a
            if scale_b is not None:
                scale += scale_b
            m = clv.reshape(self.n_partitions, self._n, -1).max(axis=2)
            tiny = (m < _SCALE_THRESHOLD) & (m > 0)
            if np.any(tiny):
                clv[tiny] /= m[tiny][:, None, None]
                scale[tiny] += np.log(m[tiny])
            if np.any(m == 0):
                raise LikelihoodError("stacked CLV underflowed to zero")
            lo, hi = min(op.child_a, op.child_b), max(op.child_a, op.child_b)
            self._ucache[(op.node, op.toward)] = (
                clv,
                scale,
                fp,
                (lo, hi),
                tree.edge_version(node, tree.node(lo)),
                tree.edge_version(node, tree.node(hi)),
            )
            self._umemo[(op.node, op.toward)] = True
        if desc.ops:
            for i, part in enumerate(self.parts):
                self.ledger.charge(
                    ComputeItem(
                        op=OpKind.NEWVIEW,
                        partition=i,
                        n_patterns=part.cost_patterns,
                        n_cats=part.n_cats,
                        count=len(desc.ops),
                        site_specific=part.site_specific,
                    )
                )
        self._maybe_gc()
        return [desc] * self.n_partitions

    def _evaluate_stacked(self, u: Node, v: Node) -> tuple[np.ndarray, np.ndarray]:
        """Per-partition totals and per-site log likelihoods (stacked)."""
        s = self._stack
        p_root = self._pmats(self._branch_vector(u, v))
        clv_i, scale_i = self._uside(u, v)
        clv_j, scale_j = self._uside(v, u)
        right = self._apply(p_root, clv_j)
        if clv_i.ndim == 3:  # tip
            clv_i = clv_i[:, :, None, :]
        per_cat = np.einsum("pncx,pncx,px->pnc", clv_i, right, s["freqs"])
        if self._site_specific:
            site = per_cat[:, :, 0]
        else:
            site = per_cat @ s["cat_w"]
        site = np.maximum(site, _LH_FLOOR)
        log_site = np.log(site)
        if scale_i is not None:
            log_site = log_site + scale_i
        if scale_j is not None:
            log_site = log_site + scale_j
        totals = np.einsum("pn,pn->p", self._weights, log_site)
        if not np.all(np.isfinite(totals)):
            raise LikelihoodError("non-finite stacked likelihood")
        for i, part in enumerate(self.parts):
            self.ledger.charge(
                ComputeItem(
                    op=OpKind.EVALUATE,
                    partition=i,
                    n_patterns=part.cost_patterns,
                    n_cats=part.n_cats,
                    site_specific=part.site_specific,
                )
            )
        return totals, log_site

    def evaluate(self, u: Node, v: Node, ensure: bool = True):
        descriptors = self.ensure_clvs(u, v) if ensure else []
        totals, _ = self._evaluate_stacked(u, v)
        return float(totals.sum()), totals, descriptors

    def _evaluate_partition(self, p: int, u: Node, v: Node):
        totals, log_site = self._evaluate_stacked(u, v)
        return float(totals[p]), log_site[p]

    def site_log_likelihoods(self, u: Node, v: Node) -> list[np.ndarray]:
        self.ensure_clvs(u, v)
        _, log_site = self._evaluate_stacked(u, v)
        return [log_site[i] for i in range(self.n_partitions)]

    def prepare_branch(self, u: Node, v: Node) -> BranchWorkspace:
        self.ensure_clvs(u, v)
        s = self._stack
        clv_i, _ = self._uside(u, v)
        clv_j, _ = self._uside(v, u)
        if clv_i.ndim == 3:
            clv_i = clv_i[:, :, None, :]
        if clv_j.ndim == 3:
            clv_j = clv_j[:, :, None, :]
        zi = np.einsum("pncy,pky->pnck", clv_i, s["right"])
        zj = np.einsum("pncy,pky->pnck", clv_j, s["right"])
        st = zi * zj  # (p, n, cats, 4)
        for i, part in enumerate(self.parts):
            self.ledger.charge(
                ComputeItem(
                    op=OpKind.SUMTABLE,
                    partition=i,
                    n_patterns=part.cost_patterns,
                    n_cats=part.n_cats,
                    site_specific=part.site_specific,
                )
            )
        return BranchWorkspace(
            u=u, v=v, sumtables=[st], edge_version=self.tree.edge_version(u, v)
        )

    def branch_derivatives(self, ws: BranchWorkspace, t: np.ndarray):
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (self.n_branch_sets,):
            raise LikelihoodError(f"t shape {t.shape} != ({self.n_branch_sets},)")
        s = self._stack
        st = ws.sumtables[0]
        bs = np.array([p.branch_set for p in self.parts])
        t_p = t[bs]  # (p,)
        if self._site_specific:
            lr = s["rates"][..., None] * s["lam"][:, None, :]  # (p, n, 4)
            e = np.exp(lr * t_p[:, None, None])
            stp = st[:, :, 0, :]
            site = np.einsum("pnk,pnk->pn", stp, e)
            site1 = np.einsum("pnk,pnk,pnk->pn", stp, e, lr)
            site2 = np.einsum("pnk,pnk,pnk,pnk->pn", stp, e, lr, lr)
        else:
            lr = s["rates"][..., None] * s["lam"][:, None, :]  # (p, cats, 4)
            e = np.exp(lr * t_p[:, None, None])
            f = np.einsum("pnck,pck->pnc", st, e)
            f1 = np.einsum("pnck,pck,pck->pnc", st, e, lr)
            f2 = np.einsum("pnck,pck,pck,pck->pnc", st, e, lr, lr)
            site = f @ s["cat_w"]
            site1 = f1 @ s["cat_w"]
            site2 = f2 @ s["cat_w"]
        site = np.maximum(site, _LH_FLOOR)
        r1 = site1 / site
        r2 = site2 / site
        d1 = np.einsum("pn,pn->p", self._weights, r1)
        d2 = np.einsum("pn,pn->p", self._weights, r2 - r1 * r1)
        for i, part in enumerate(self.parts):
            self.ledger.charge(
                ComputeItem(
                    op=OpKind.DERIVATIVE,
                    partition=i,
                    n_patterns=part.cost_patterns,
                    n_cats=part.n_cats,
                    site_specific=part.site_specific,
                )
            )
        return d1, d2

    # model updates must also refresh the stacked arrays / tip caches
    def invalidate_partition(self, p: int) -> None:
        super().invalidate_partition(p)
        self._stack_valid = False
        # the single stacked cache cannot keep other partitions' CLVs
        self._ucache.clear()
        self._umemo.clear()

    def set_psr_rates(self, p: int, rates: np.ndarray) -> None:
        super().set_psr_rates(p, rates)
        self._stack_valid = False

    @classmethod
    def build_uniform(cls, alignment, tree, scheme=None, **kwargs):
        """Like :meth:`PartitionedLikelihood.build`, forcing *uncompressed*
        per-partition patterns so every partition has the same count.

        (The generated benchmark datasets use equal-length partitions, so
        skipping compression — each site is its own pattern of weight
        ``pattern_scale`` — keeps the stack rectangular.)
        """
        from repro.seq.partitions import PartitionScheme
        from repro.model.frequencies import smooth_frequencies
        from repro.model.substitution import SubstitutionModel
        from repro.model.rates import DiscreteGamma as DG, PerSiteRates as PSR
        from repro.model.rates import NoRateHeterogeneity as NRH

        rate_mode = kwargs.pop("rate_mode", "gamma")
        n_cats = kwargs.pop("n_cats", 4)
        alpha = kwargs.pop("alpha", 1.0)
        per_partition_branches = kwargs.pop("per_partition_branches", False)
        pattern_scale = kwargs.pop("pattern_scale", 1.0)
        models = kwargs.pop("models", None)
        ledger = kwargs.pop("ledger", None)
        if kwargs:
            raise TypeError(f"unknown arguments {sorted(kwargs)}")

        if scheme is None:
            scheme = PartitionScheme.single(alignment.n_sites)
        scheme.validate_cover(alignment.n_sites)
        if per_partition_branches:
            tree.set_n_branch_sets(len(scheme))
        parts = []
        for i, partition in enumerate(scheme):
            sub = alignment.slice_sites(partition.sites)
            patterns = sub.data  # no compression: rectangular stack
            weights = np.full(patterns.shape[1], float(pattern_scale))
            if models is not None:
                model = models[i]
            else:
                freqs = smooth_frequencies(sub.empirical_frequencies())
                model = SubstitutionModel(np.ones(6), freqs)
            if rate_mode == "gamma":
                rate_het = DG(alpha=alpha, n_cats=n_cats)
            elif rate_mode == "psr":
                rate_het = PSR(n_patterns=patterns.shape[1])
            elif rate_mode == "none":
                rate_het = NRH()
            else:
                raise LikelihoodError(f"unknown rate_mode {rate_mode!r}")
            parts.append(
                PartitionData(
                    name=partition.name,
                    patterns=patterns,
                    weights=weights,
                    model=model,
                    rate_het=rate_het,
                    branch_set=i if per_partition_branches else 0,
                    pattern_scale=pattern_scale,
                    alphabet=alignment.alphabet,
                )
            )
        return cls(tree, parts, alignment.taxa, ledger)

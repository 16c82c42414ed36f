"""Reference likelihood backend: one partition at a time, nothing cached.

The oracle the stacked likelihood core is checked against.  It drives the
einsum kernels of ``reference_kernels.py`` with the simplest possible
control flow: every call recomputes every conditional likelihood vector it
needs by plain recursion over the tree, partition by partition.  There are
no stacks, no CLV store, no validity stamps, no traversal descriptors and
no row masks to get wrong, so what it returns is what the model says —
only slowly.  It implements the ``LikelihoodBackend`` protocol, so the real
search and the real optimizers run on it unmodified.

From ``src`` it takes only passive data and model classes
(``PartitionData``, ``SubstitutionModel``/``EigenSystem``, the rate models,
``Tree``).  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import numpy as np
import reference_kernels as ref

from repro.likelihood.backend import PartitionInfo
from repro.model.rates import DiscreteGamma, PerSiteRates


class ReferenceBackend:
    def __init__(self, tree, parts, taxa) -> None:
        self.tree = tree
        self.parts = parts
        self.row = {label: i for i, label in enumerate(taxa)}

    # -- protocol: facts ------------------------------------------------- #
    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    @property
    def n_branch_sets(self) -> int:
        return self.tree.n_branch_sets

    def partition_info(self) -> list[PartitionInfo]:
        return [
            PartitionInfo(
                index=i, name=part.name, branch_set=part.branch_set,
                n_cats=part.n_cats, site_specific=part.site_specific,
                has_gamma=isinstance(part.rate_het, DiscreteGamma),
                cost_patterns=part.cost_patterns)
            for i, part in enumerate(self.parts)
        ]

    # -- the recursion ---------------------------------------------------- #
    def _pmatrix(self, part, u, v):
        t = float(self.tree.edge_length(u, v)[part.branch_set])
        return ref.pmatrices(part.model.eigen(), t, part.category_rates()[0])

    def clv(self, part, node, toward):
        """``(clv, scale)`` of ``node`` seen from ``toward``; also returns
        how many patterns were rescaled below (for the scaling tests)."""
        if node.is_leaf:
            masks = part.patterns[self.row[node.label]]
            bits = (masks[:, None] >> np.arange(part.model.n_states)) & 1
            return bits.astype(np.float64), None
        a, b = self.tree.other_neighbors(node, toward)
        clv_a, scale_a = self.clv(part, a, node)
        clv_b, scale_b = self.clv(part, b, node)
        return ref.newview(
            self._pmatrix(part, node, a), clv_a, scale_a,
            self._pmatrix(part, node, b), clv_b, scale_b,
            site_specific=part.site_specific)

    def site_log_likelihoods(self, u, v) -> list[np.ndarray]:
        out = []
        for part in self.parts:
            clv_i, scale_i = self.clv(part, u, v)
            clv_j, scale_j = self.clv(part, v, u)
            _, log_site = ref.evaluate_edge(
                self._pmatrix(part, u, v), clv_i, scale_i, clv_j, scale_j,
                part.model.frequencies, part.category_rates()[1],
                part.weights, site_specific=part.site_specific)
            out.append(log_site)
        return out

    # -- protocol: regions ------------------------------------------------ #
    def evaluate(self, u, v) -> tuple[float, np.ndarray]:
        per_part = np.array([
            float(np.dot(part.weights, log_site))
            for part, log_site in zip(self.parts, self.site_log_likelihoods(u, v))
        ])
        return float(per_part.sum()), per_part

    def begin_branch(self, u, v) -> list[np.ndarray]:
        return [
            ref.sumtable(part.model.eigen(), self.clv(part, u, v)[0],
                         self.clv(part, v, u)[0])
            for part in self.parts
        ]

    def derivatives(self, handle, t) -> tuple[np.ndarray, np.ndarray]:
        """Per branch set, as the protocol asks."""
        sets = [part.branch_set for part in self.parts]
        d1, d2 = self.partition_derivatives(handle, t)
        return (np.bincount(sets, weights=d1, minlength=self.n_branch_sets),
                np.bincount(sets, weights=d2, minlength=self.n_branch_sets))

    def partition_derivatives(self, handle, t) -> tuple[np.ndarray, np.ndarray]:
        d1 = np.zeros(self.n_partitions)
        d2 = np.zeros(self.n_partitions)
        for i, (part, table) in enumerate(zip(self.parts, handle)):
            rates, cat_w = part.category_rates()
            _, d1[i], d2[i] = ref.derivatives_from_sumtable(
                part.model.eigen(), table, float(t[part.branch_set]), rates,
                cat_w, part.weights)
        return d1, d2

    def set_branch_length(self, u, v, t) -> None:
        self.tree.set_edge_length(u, v, t)

    def set_alphas(self, alphas: dict[int, float]) -> None:
        for p, alpha in alphas.items():
            self.parts[p].rate_het.alpha = alpha

    def set_gtr_rates(self, rates: dict[int, np.ndarray]) -> None:
        for p, r in rates.items():
            self.parts[p].model = self.parts[p].model.with_rates(np.asarray(r, float))

    def get_alpha(self, p: int) -> float:
        return self.parts[p].rate_het.alpha

    def get_gtr_rates(self, p: int) -> np.ndarray:
        return self.parts[p].model.rates.copy()

    def optimize_psr(self, u, v, candidates: np.ndarray) -> None:
        psr = [p for p in self.parts if isinstance(p.rate_het, PerSiteRates)]
        tables: dict[int, list[np.ndarray]] = {id(p): [] for p in psr}
        for rate in candidates:
            for part in psr:
                part.rate_het.set_rates(np.full(part.n_patterns, float(rate)))
            for part, log_site in zip(self.parts, self.site_log_likelihoods(u, v)):
                if id(part) in tables:
                    tables[id(part)].append(log_site)
        for part in psr:
            best = np.argmax(np.vstack(tables[id(part)]), axis=0)
            part.rate_het.set_rates(np.asarray(candidates, dtype=np.float64)[best])
            part.rate_het.normalize(part.weights)

    def finish(self) -> None:
        return None

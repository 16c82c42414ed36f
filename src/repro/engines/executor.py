"""Tree-agnostic descriptor execution (the worker kernel).

Fork-join workers in RAxML-Light never hold a tree: every likelihood
operation reaches them as a *traversal descriptor* — node indices plus
branch lengths — and they maintain conditional likelihood vectors keyed by
those indices.  :class:`DescriptorExecutor` is exactly that: it executes
wire-format descriptors over a list of local :class:`PartitionData`
shares, with no topology knowledge whatsoever.

Wire op format: ``(node, toward, child_a, child_b, t_a, t_b)`` where the
``t_*`` are branch-length vectors of ``n_branch_sets`` doubles.

Compute follows ownership: a share with no local patterns (a partition
this rank does not own) is skipped by every method — no P matrix, tip
vector or CLV is built for it — and its slot of a per-partition result
is an exact ``0.0``, so reductions keep their shape.

Every kernel call is bracketed with the attached op profiler (a
:data:`~repro.obs.hotspots.NULL_OP_PROFILER` by default, whose hooks are
no-ops and read no clock), and the CLV store carries live/peak byte
accounting per partition for memory attribution.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommError, LikelihoodError
from repro.likelihood import kernel
from repro.likelihood.partitioned import PartitionData

__all__ = ["DescriptorExecutor"]


class DescriptorExecutor:
    """Executes broadcast descriptors on local site data.

    Parameters
    ----------
    parts:
        The rank's local partition shares (global taxon rows).
    node_taxon:
        ``node_id -> taxon row`` for every leaf of the master's tree.
    """

    def __init__(self, parts: list[PartitionData], node_taxon: dict[int, int]) -> None:
        if not parts:
            raise LikelihoodError("executor needs at least one partition")
        # Lazy import: repro.obs.hotspots initializes the repro.obs
        # package, whose instrument module imports this module back.
        from repro.obs.hotspots import NULL_OP_PROFILER

        self.parts = parts
        self.node_taxon = dict(node_taxon)
        self.profiler = NULL_OP_PROFILER
        # per partition: (node, toward) -> (clv, scale)
        self._clv: list[dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]] = [
            {} for _ in parts
        ]
        n = len(parts)
        self._clv_bytes = [0] * n
        self._clv_peak = [0] * n
        self._clv_evictions = [0] * n
        self._clv_evicted_bytes = [0] * n

    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    def _side(
        self, p: int, node_id: int, toward_id: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        row = self.node_taxon.get(node_id)
        if row is not None:
            return self.parts[p].tip_clv(row), None
        try:
            clv, scale = self._clv[p][(node_id, toward_id)]
        except KeyError as exc:
            raise CommError(
                f"descriptor references unknown CLV ({node_id}->{toward_id})"
            ) from exc
        return clv, scale

    def run_ops(self, wire: list[tuple]) -> None:
        """Execute a wire descriptor (every partition with local patterns,
        dependency order)."""
        prof = self.profiler
        for p, part in enumerate(self.parts):
            if part.n_patterns == 0:
                continue
            eigen = part.model.eigen()
            rates, _ = part.category_rates()
            bs = part.branch_set
            store = self._clv[p]
            unit = part.cost_patterns * part.n_cats
            n_states = part.model.n_states
            ss = part.site_specific
            live = self._clv_bytes[p]
            peak = self._clv_peak[p]
            for node_id, toward_id, a_id, b_id, ta, tb in wire:
                t0 = prof.begin()
                p_a = kernel.pmatrices(eigen, float(ta[bs]), rates)
                p_b = kernel.pmatrices(eigen, float(tb[bs]), rates)
                prof.end(t0, "pmatrix", p, 2 * len(rates), count=2,
                         alloc=p_a.nbytes + p_b.nbytes,
                         n_states=n_states, site_specific=ss)
                clv_a, scale_a = self._side(p, a_id, node_id)
                clv_b, scale_b = self._side(p, b_id, node_id)
                t0 = prof.begin()
                entry = kernel.newview(
                    p_a, clv_a, scale_a, p_b, clv_b, scale_b,
                    site_specific=ss,
                )
                nbytes = entry[0].nbytes + entry[1].nbytes
                prof.end(t0, "newview", p, unit, alloc=nbytes,
                         n_states=n_states, site_specific=ss)
                key = (node_id, toward_id)
                old = store.get(key)
                if old is not None:
                    live -= old[0].nbytes + old[1].nbytes
                store[key] = entry
                live += nbytes
                if live > peak:
                    peak = live
            self._clv_bytes[p] = live
            self._clv_peak[p] = peak

    def evaluate(
        self, u_id: int, v_id: int, t_root: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Local per-partition log likelihoods (and per-site values)."""
        prof = self.profiler
        per_part = np.zeros(self.n_partitions)
        site_lhs: list[np.ndarray] = []
        for p, part in enumerate(self.parts):
            if part.n_patterns == 0:
                site_lhs.append(np.empty(0))
                continue
            eigen = part.model.eigen()
            rates, cat_w = part.category_rates()
            n_states = part.model.n_states
            ss = part.site_specific
            t0 = prof.begin()
            p_root = kernel.pmatrices(eigen, float(t_root[part.branch_set]), rates)
            prof.end(t0, "pmatrix", p, len(rates), alloc=p_root.nbytes,
                     n_states=n_states, site_specific=ss)
            clv_i, scale_i = self._side(p, u_id, v_id)
            clv_j, scale_j = self._side(p, v_id, u_id)
            t0 = prof.begin()
            total, log_site = kernel.evaluate_edge(
                p_root, clv_i, scale_i, clv_j, scale_j,
                part.model.frequencies, cat_w, part.weights,
                site_specific=ss,
            )
            prof.end(t0, "evaluate", p, part.cost_patterns * part.n_cats,
                     n_states=n_states, site_specific=ss)
            per_part[p] = total
            site_lhs.append(log_site)
        return per_part, site_lhs

    def sumtables(self, u_id: int, v_id: int) -> list[np.ndarray | None]:
        prof = self.profiler
        tables: list[np.ndarray | None] = []
        for p, part in enumerate(self.parts):
            if part.n_patterns == 0:
                tables.append(None)
                continue
            eigen = part.model.eigen()
            clv_i, _ = self._side(p, u_id, v_id)
            clv_j, _ = self._side(p, v_id, u_id)
            t0 = prof.begin()
            table = kernel.sumtable(eigen, clv_i, clv_j)
            prof.end(t0, "sumtable", p, part.cost_patterns * part.n_cats,
                     alloc=table.nbytes, n_states=part.model.n_states,
                     site_specific=part.site_specific)
            tables.append(table)
        return tables

    def derivatives(
        self, tables: list[np.ndarray | None], t: np.ndarray, n_branch_sets: int
    ) -> np.ndarray:
        """Per-branch-set summed (d1, d2) stacked as a ``(2, sets)`` array."""
        prof = self.profiler
        d1 = np.zeros(n_branch_sets)
        d2 = np.zeros(n_branch_sets)
        for p, part in enumerate(self.parts):
            table = tables[p]
            if table is None:
                continue
            eigen = part.model.eigen()
            rates, cat_w = part.category_rates()
            t0 = prof.begin()
            _, dl, d2l = kernel.derivatives_from_sumtable(
                eigen, table, float(t[part.branch_set]), rates, cat_w,
                part.weights,
            )
            prof.end(t0, "derivative", p, part.cost_patterns * part.n_cats,
                     n_states=part.model.n_states,
                     site_specific=part.site_specific)
            d1[part.branch_set] += dl
            d2[part.branch_set] += d2l
        return np.vstack([d1, d2])

    # -- CLV store accounting ------------------------------------------- #
    def clv_stats(self) -> list[dict[str, int]]:
        """Per-partition CLV memory accounting (for profile emission)."""
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

    def _on_evict(self, count: int, nbytes: int) -> None:
        """Hook for subclasses to surface evictions (metrics, spans)."""

    # -- model updates (local, no CLV cache: caller re-broadcasts full
    #    traversals after parameter changes, so stale CLVs are overwritten;
    #    we still clear to keep memory bounded and bugs loud) ------------- #
    def clear_clvs(self, p: int | None = None) -> None:
        targets = range(self.n_partitions) if p is None else (p,)
        count = 0
        freed = 0
        for idx in targets:
            store = self._clv[idx]
            count += len(store)
            freed += self._clv_bytes[idx]
            self._clv_evictions[idx] += len(store)
            self._clv_evicted_bytes[idx] += self._clv_bytes[idx]
            self._clv_bytes[idx] = 0
            store.clear()
        if count:
            self._on_evict(count, freed)

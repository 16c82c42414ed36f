"""Tree-agnostic descriptor execution (the worker kernel).

Fork-join workers in RAxML-Light never hold a tree: every likelihood
operation reaches them as a *traversal descriptor* — node indices plus
branch lengths, the post-order list of CLV updates the master broadcasts
before every parallel region — and they maintain conditional likelihood
vectors keyed by those indices.  :class:`DescriptorExecutor` is exactly
that: it executes wire-format descriptors over a list of local
:class:`PartitionData` shares, with no topology knowledge whatsoever.

Wire op format: ``(node, toward, child_a, child_b, t_a, t_b)`` where the
``t_*`` are branch-length vectors of ``n_branch_sets`` doubles — the
format :meth:`~repro.likelihood.partitioned.PartitionedLikelihood.descriptors_for_edge`
builds, turned into stack ops by the same
:func:`~repro.likelihood.stack.wire_ops` the master uses.

Compute follows ownership: a share with no local patterns (a partition
this rank does not own) is skipped by every method — no P matrix, tip
vector or CLV is built for it — and its slot of a per-partition result
is an exact ``0.0``, so reductions keep their shape.

The arrays live in :class:`~repro.likelihood.stack.PartitionStack`
objects — the same stacks, kernels and accounting the tree-aware
:class:`~repro.likelihood.partitioned.PartitionedLikelihood` uses — so a
worker's numbers are bitwise the master's.  Every kernel call is bracketed
with the attached op profiler (a
:data:`~repro.obs.nullprofiler.NULL_OP_PROFILER` by default, whose hooks are
no-ops and read no clock), and the CLV store counts its entries, whose
bytes per partition follow from the stack's shape, for memory
attribution.
"""

from __future__ import annotations

from collections.abc import Container
from itertools import repeat

import numpy as np

from repro.errors import CommError, LikelihoodError
from repro.likelihood.partitioned import PartitionData
from repro.likelihood.stack import (
    build_stacks,
    clv_stats,
    derivatives_of_stacks,
    evaluate_stacks,
    fold_by_set,
    wire_ops,
)
from repro.obs.nullprofiler import NULL_OP_PROFILER

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
        self.parts = parts
        self.node_taxon = dict(node_taxon)
        self.profiler = NULL_OP_PROFILER
        self.stacks = build_stacks(parts)
        self.branch_sets = np.array([part.branch_set for part in parts],
                                    dtype=np.intp)

    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    def _ref(self, node_id: int, toward_id: int,
             made: Container[tuple[int, int]] = ()) -> int | tuple[int, int]:
        """Stack operand reference of ``node_id`` seen from ``toward_id``:
        a tip, a stored CLV or one of ``made`` (the CLVs earlier ops of the
        same descriptor produce)."""
        row = self.node_taxon.get(node_id)
        if row is not None:
            return row
        key = (node_id, toward_id)
        if self.stacks and key not in made and key not in self.stacks[0].clvs:
            raise CommError(
                f"descriptor references unknown CLV ({node_id}->{toward_id})"
            )
        return key

    def run_ops(self, wire: list[tuple]) -> None:
        """Execute a wire descriptor (every partition with local patterns,
        dependency order): one traversal per stack.  A descriptor that
        reads a CLV neither stored nor made by an earlier op is refused
        before any op runs."""
        made: set[tuple[int, int]] = set()
        for node_id, toward_id, a_id, b_id, *_ in wire:
            self._ref(a_id, node_id, made)
            self._ref(b_id, node_id, made)
            made.add((node_id, toward_id))
        ops = wire_ops(wire, repeat(None),
                       lambda child, node: self.node_taxon.get(child, (child, node)))
        for stack in self.stacks:
            stack.traverse(ops, self.profiler)

    def evaluate(
        self, u_id: int, v_id: int, t_root: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Local per-partition log likelihoods (and per-site values)."""
        return evaluate_stacks(
            self.stacks, self.n_partitions, self._ref(u_id, v_id),
            self._ref(v_id, u_id), t_root, self.profiler)

    def sumtables(self, u_id: int, v_id: int) -> list[np.ndarray]:
        """One sumtable per partition stack."""
        u, v = self._ref(u_id, v_id), self._ref(v_id, u_id)
        return [stack.sumtable(u, v, self.profiler) for stack in self.stacks]

    def derivatives(
        self, tables: list[np.ndarray], t: np.ndarray, n_branch_sets: int
    ) -> np.ndarray:
        """Per-branch-set summed (d1, d2) stacked as a ``(2, sets)`` array."""
        d1, d2 = derivatives_of_stacks(
            self.stacks, self.n_partitions, tables, t, self.profiler)
        return fold_by_set(d1, d2, self.branch_sets, n_branch_sets)

    # -- CLV store accounting ------------------------------------------- #
    def clv_stats(self) -> list[dict[str, int]]:
        """Per-partition CLV memory accounting (for profile emission)."""
        return clv_stats(self.stacks, self.n_partitions)

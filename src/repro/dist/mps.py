"""Monolithic per-partition scheduling (the ``-Q`` option).

Assigning whole partitions to processors so that the per-processor load is
balanced is the NP-hard *multiprocessor scheduling problem* (paper,
Section II, citing Zhang & Stamatakis 2011).  We provide the classic LPT
(Longest Processing Time first) heuristic — 4/3-approximate — plus a
local-search refinement that moves partitions while the makespan
improves.  :func:`mps_assignment` composes the two and is the *one*
schedule everything downstream uses: the shares the ranks hold, the
``owned`` matrix the cost model replays, recovery pricing and the
service's rank sizing all describe the same split.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DistributionError

__all__ = ["lpt_schedule", "refine_schedule", "schedule_makespan", "mps_assignment"]


def lpt_schedule(loads: np.ndarray, n_ranks: int) -> np.ndarray:
    """LPT assignment: returns ``assignment[i] = rank`` per partition.

    Ties (equal loads, equal rank fill) break deterministically by index so
    every replica computes the same schedule.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1 or loads.size == 0:
        raise DistributionError("loads must be a non-empty vector")
    if np.any(loads < 0):
        raise DistributionError("loads must be non-negative")
    if n_ranks < 1:
        raise DistributionError("need at least one rank")
    order = np.argsort(-loads, kind="stable")
    assignment = np.empty(loads.size, dtype=np.intp)
    rank_load = np.zeros(n_ranks)
    for i in order:
        r = int(np.argmin(rank_load))  # argmin breaks ties toward rank 0
        assignment[i] = r
        rank_load[r] += loads[i]
    return assignment


def schedule_makespan(loads: np.ndarray, assignment: np.ndarray, n_ranks: int) -> float:
    """Maximum per-rank load under an assignment."""
    loads = np.asarray(loads, dtype=np.float64)
    per_rank = np.bincount(assignment, weights=loads, minlength=n_ranks)
    return float(per_rank.max())


def refine_schedule(
    loads: np.ndarray, assignment: np.ndarray, n_ranks: int, max_moves: int = 1000
) -> np.ndarray:
    """Greedy single-move refinement of a schedule.

    Repeatedly moves one partition from the most-loaded rank to the
    least-loaded rank while that strictly shrinks the makespan.
    """
    loads = np.asarray(loads, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.intp).copy()
    per_rank = np.bincount(assignment, weights=loads, minlength=n_ranks)
    for _ in range(max_moves):
        hi = int(np.argmax(per_rank))
        lo = int(np.argmin(per_rank))
        if hi == lo:
            break
        candidates = np.nonzero(assignment == hi)[0]
        if candidates.size == 0:
            break
        best_i = -1
        best_new_max = per_rank[hi]
        for i in candidates:
            new_hi = per_rank[hi] - loads[i]
            new_lo = per_rank[lo] + loads[i]
            new_max = max(new_hi, new_lo)
            if new_max < best_new_max:
                best_new_max = new_max
                best_i = int(i)
        if best_i < 0:
            break
        assignment[best_i] = lo
        per_rank[hi] -= loads[best_i]
        per_rank[lo] += loads[best_i]
    return assignment


def mps_assignment(loads: np.ndarray, n_ranks: int) -> np.ndarray:
    """The MPS schedule: LPT followed by refinement.

    Deterministic in ``(loads, n_ranks)``, so every replica — and every
    model of the run — derives the identical owner per partition.
    """
    return refine_schedule(loads, lpt_schedule(loads, n_ranks), n_ranks)

"""Newton–Raphson branch-length optimization.

This mirrors RAxML's ``makenewz``: one traversal builds the eigen-basis
sumtables for the branch, then each Newton iteration only re-evaluates the
cheap exponential sums — and, in a distributed run, costs exactly one
parallel region exchanging the first/second derivatives (2 doubles under
joint branch lengths, 2·p under per-partition lengths, the ``-M`` mode).

The iteration is safeguarded: where the second derivative is not negative
(no local curvature toward a maximum) the step falls back to a doubling
walk in the uphill direction, and all steps are clamped to
``[BL_MIN, BL_MAX]`` — the same guards RAxML employs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LikelihoodError

__all__ = ["BL_MIN", "BL_MAX", "optimize_branch", "smooth_all_branches"]

#: RAxML's branch-length bounds (substitutions per site).
BL_MIN = 1.0e-6
BL_MAX = 60.0


def optimize_branch(
    backend,
    u,
    v,
    tol: float = 1.0e-8,
    max_iter: int = 32,
) -> np.ndarray:
    """Optimize the branch ``{u, v}``; returns the new length vector.

    Runs a single synchronized Newton iteration across all branch sets —
    partitions converge (and freeze) individually, matching the paper's
    requirement that parameter changes are proposed *simultaneously for
    all partitions* so that each iteration is one parallel region.
    """
    if tol <= 0 or max_iter < 1:
        raise LikelihoodError("invalid Newton parameters")
    tree = backend.tree
    n_sets = backend.n_branch_sets
    handle = backend.begin_branch(u, v)
    t = tree.edge_length(u, v).copy()
    t = np.clip(t, BL_MIN, BL_MAX)
    active = np.ones(n_sets, dtype=bool)
    step_cap = np.full(n_sets, 1.0)  # doubling-walk step for non-concave spots
    iters_run = 0

    for _ in range(max_iter):
        iters_run += 1
        d1, d2 = backend.derivatives(handle, t)

        new_t = t.copy()
        concave = d2 < 0.0
        # Newton step where curvature is right
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - d1 / d2
        use = active & concave & np.isfinite(newton)
        new_t[use] = newton[use]
        # doubling walk uphill elsewhere
        walk = active & ~use
        if np.any(walk):
            direction = np.sign(d1[walk])
            new_t[walk] = t[walk] + direction * step_cap[walk]
            step_cap[walk] *= 2.0
        new_t = np.clip(new_t, BL_MIN, BL_MAX)

        moved = np.abs(new_t - t)
        t = np.where(active, new_t, t)
        active = active & (moved > tol) & ~(
            (np.abs(d1) < 1e-10) & concave
        )
        if not np.any(active):
            break

    backend.set_branch_length(u, v, t)
    # Live telemetry: each Newton iteration is one parallel region, so
    # the per-rank iteration count is a direct progress signal (see
    # repro.obs.progress).  Unmonitored backends skip this entirely.
    progress = getattr(backend, "progress", None)
    if progress is not None and progress.enabled:
        progress.add_newton(iters_run)
    return t


def smooth_all_branches(
    backend,
    passes: int = 2,
    tol: float = 1.0e-8,
    max_iter: int = 32,
) -> None:
    """Optimize every branch of the tree, ``passes`` times.

    Edges are visited in the deterministic order :meth:`Tree.edges`
    provides, which keeps the decentralized replicas in lock step.
    """
    if passes < 1:
        raise LikelihoodError("need at least one smoothing pass")
    for _ in range(passes):
        for u, v in backend.tree.edges():
            optimize_branch(backend, u, v, tol=tol, max_iter=max_iter)

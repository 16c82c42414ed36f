"""NumPy likelihood kernels, written as matrix products.

These are the three functions every likelihood-based phylogenetics code is
built from (the paper, Section III-A):

1. :func:`newview` — compute a conditional likelihood vector (CLV) at an
   inner node from its two children (Felsenstein pruning);
2. :func:`evaluate_edge` — the log likelihood at the virtual root,
   ending in the parallel reduction;
3. :func:`sumtable` / :func:`derivatives_from_sumtable` — first and second
   derivatives of the likelihood in a branch length, for Newton–Raphson.

Shapes
------
Every array may carry leading *stack* axes (written ``...`` below): a
:class:`~repro.likelihood.stack.PartitionStack` runs each kernel once for
all partitions of one shape, stacked on one leading axis, and builds the
P matrices of many traversal ops in one :func:`pmatrices` call, with the
ops and both children as two more leading axes.  Every contraction is an
``np.matmul`` over those axes, which runs one GEMM per stacked item, or
(PSR's one P per pattern) a running sum over states, elementwise over the
patterns; neither reduces across the stack, so an item's result does not
depend on what else is in the call — the property that keeps a rank
holding 8 genes bitwise equal to a rank holding 16, and a traversal built
in one call equal to one built op by op.

Every pattern-indexed array keeps its patterns on the *last* axis, so each
contraction is a small matrix times a long row of patterns:

* CLVs: ``(..., n_cats, n_states, n_patterns)`` float64.  PSR uses
  ``n_cats == 1``.
* Tip vectors: ``(..., n_states, n_patterns)`` of 0/1 (ambiguity-aware);
  a kernel gives a tip a singleton category axis where it meets a CLV.
* P matrices: ``(..., n_cats, n, n)`` for category rates (Γ / uniform) or
  ``(..., n_patterns, n, n)`` for site-specific rates (PSR).
* Sumtables: ``(..., n_cats, n_states, n_patterns)``, like CLVs.
* Scalers: per-pattern accumulated *log* scale, ``(..., n_patterns)``.
  Keeping the logarithm directly (instead of RAxML's integer count of
  2^256 multiplications) is exact and simpler; the cost model charges the
  same traffic either way.

The einsum forms these replace live on in ``tests/reference_kernels.py``
as the oracle the GEMM forms are property-tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LikelihoodError

__all__ = [
    "SCALE_THRESHOLD",
    "pmatrices",
    "newview",
    "evaluate_edge",
    "sumtable",
    "derivatives_from_sumtable",
    "flops_per_unit",
    "bytes_per_unit",
]

#: When a pattern's CLV maximum falls below this, it is rescaled to 1.
SCALE_THRESHOLD = 1e-100

#: Floor for per-site likelihoods before taking logs.
_LH_FLOOR = 1e-300


def _check_branch(t: np.ndarray) -> None:
    if not t.min() >= 0:  # NaN compares false
        raise LikelihoodError(f"negative or NaN branch length in {t}")


def pmatrices(eigen, t, rates: np.ndarray) -> np.ndarray:
    """Transition matrices for one branch under a set of rate multipliers.

    ``rates`` of shape ``(..., n_cats)`` (Γ / uniform) yields
    ``(..., n_cats, n, n)``; shape ``(..., n_patterns)`` (PSR) yields
    ``(..., n_patterns, n, n)``.  ``t`` is one length per stacked item;
    ``eigen``'s arrays carry the trailing ones of its leading axes, so one
    call serves a whole ``(ops, 2, g)`` batch of branches.
    """
    t = np.asarray(t, dtype=np.float64)
    _check_branch(t)
    arg = np.asarray(rates, dtype=np.float64) * t[..., None]
    # P = left · diag(expo) · right: scale left's columns, then one GEMM
    # per item serves all of its rates (expo is freed before the GEMM)
    scaled = eigen.left[..., None, :, :] * np.exp(
        arg[..., None] * eigen.eigenvalues[..., None, :])[..., None, :]
    n = scaled.shape[-1]
    flat = scaled.reshape(scaled.shape[:-3] + (-1, n))
    return np.matmul(flat, eigen.right).reshape(scaled.shape)


def _per_pattern(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``out[..., x, p] = Σ_y m[..., p, x, y] · v[..., y, p]``: one matrix
    per pattern (PSR), summed over ``y`` in order and elementwise over the
    patterns, so no value depends on the batch or the pattern count."""
    mt = np.ascontiguousarray(np.swapaxes(m, -3, -1))  # (..., y, x, patterns)
    out = mt[..., 0, :, :] * v[..., 0, None, :]
    for y in range(1, mt.shape[-3]):
        out += mt[..., y, :, :] * v[..., y, None, :]
    return out


def _apply(p: np.ndarray, child: np.ndarray, site_specific: bool) -> np.ndarray:
    """Propagate a child CLV (or tip vector) through its P matrices.

    ``site_specific`` selects the PSR flavor (one P matrix per pattern,
    singleton category axis) versus the category flavor (one P matrix per
    rate category, shared across patterns).  Returns a fresh
    ``(..., n_cats, n_states, n_patterns)``.

    The category flavor is ``P @ child``: one ``(n × n)·(n × patterns)``
    GEMM per stacked item and category; a tip, which has no category axis,
    meets every category's P.
    """
    is_tip = child.ndim == p.ndim - 1
    if site_specific:
        if not is_tip:
            if child.shape[-3] != 1:
                raise LikelihoodError(
                    "site-specific rates require a singleton category axis"
                )
            child = child[..., 0, :, :]
        return _per_pattern(p, child)[..., None, :, :]
    if is_tip:
        child = child[..., None, :, :]
    elif child.shape[-3] != p.shape[-3]:
        raise LikelihoodError(
            f"CLV has {child.shape[-3]} categories but P has {p.shape[-3]}"
        )
    return np.matmul(p, child)


def newview(
    p_a: np.ndarray,
    clv_a: np.ndarray,
    scale_a: np.ndarray | None,
    p_b: np.ndarray,
    clv_b: np.ndarray,
    scale_b: np.ndarray | None,
    site_specific: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Felsenstein pruning step: combine two children into a parent CLV.

    ``scale_*`` are the children's accumulated per-pattern log scalers
    (``None`` for tips).  Returns ``(clv, scale)`` for the parent.
    """
    clv = _apply(p_a, clv_a, site_specific)
    clv *= _apply(p_b, clv_b, site_specific)
    flat = clv.reshape(clv.shape[:-3] + (-1, clv.shape[-1]))
    scale = np.zeros(flat.shape[:-2] + flat.shape[-1:])
    if scale_a is not None:
        scale += scale_a
    if scale_b is not None:
        scale += scale_b
    # Rescale patterns whose magnitude dropped below threshold.  A pattern's
    # maximum is at least its mean, so a column sum of twice the threshold
    # per entry rules the pattern out — one GEMV per stacked item; the exact
    # maximum is only taken when some pattern is not ruled out (NaN
    # compares false).
    width = flat.shape[-2]
    sums = np.matmul(np.ones(width), flat)
    if not (sums >= 2.0 * width * SCALE_THRESHOLD).all():
        m = flat.max(axis=-2)
        tiny = (m < SCALE_THRESHOLD) & (m > 0)
        if np.any(tiny):
            # dividing the other patterns by 1.0 leaves them exact
            clv /= np.where(tiny, m, 1.0)[..., None, None, :]
            scale[tiny] += np.log(m[tiny])
        if np.any(m == 0):
            raise LikelihoodError("CLV underflowed to exactly zero")
    return clv, scale


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``Σ_p weights[..., p] · values[..., p]``, one dot product per item."""
    return np.matmul(weights[..., None, :], values[..., :, None])[..., 0, 0]


def evaluate_edge(
    p_root: np.ndarray,
    clv_i: np.ndarray,
    scale_i: np.ndarray | None,
    clv_j: np.ndarray,
    scale_j: np.ndarray | None,
    frequencies: np.ndarray,
    cat_weights: np.ndarray | None,
    weights: np.ndarray,
    site_specific: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Log likelihood at the virtual root on edge ``{i, j}``.

    ``p_root`` carries the branch between the two CLVs and is applied to
    side ``j``.  ``cat_weights`` (shared by the stack) is ``None`` for
    site-specific rates (PSR: a single implicit category of weight 1).

    Returns ``(log_likelihood, per_pattern_log_likelihood)`` where the
    total — one per stacked item — is ``Σ_p weights[p] · per_pattern[p]``.
    The per-pattern vector is what the PSR rate optimizer consumes and
    what distributed ranks reduce.
    """
    both = _apply(p_root, clv_j, site_specific)
    if clv_i.ndim == both.ndim - 1:  # tip on side i
        clv_i = clv_i[..., None, :, :]
    both *= clv_i
    # Σ_c w_c Σ_x π_x (...) as one GEMV: weights and frequencies folded
    # into one (1 × cats·n) left-hand side
    mix = frequencies[..., None, :]
    if cat_weights is not None:
        mix = cat_weights[:, None] * mix
    mix = mix.reshape(mix.shape[:-2] + (1, -1))
    flat = both.reshape(both.shape[:-3] + (-1, both.shape[-1]))
    site_lh = np.matmul(mix, flat)[..., 0, :]
    log_site = np.log(np.maximum(site_lh, _LH_FLOOR))
    if scale_i is not None:
        log_site = log_site + scale_i
    if scale_j is not None:
        log_site = log_site + scale_j
    total = _weighted_sum(weights, log_site)
    if not np.all(np.isfinite(total)):
        raise LikelihoodError("non-finite log likelihood")
    return total, log_site


def sumtable(
    eigen,
    clv_i: np.ndarray,
    clv_j: np.ndarray,
) -> np.ndarray:
    """Eigen-basis cross product used for branch-length derivatives.

    With ``z = right · clv`` per category the per-site likelihood on the
    connecting branch is ``f(t) = Σ_k st[c, k, p] · e^{λ_k r t}`` where
    ``st = z_i ⊙ z_j``.  Tips are promoted to a singleton category axis.
    """
    ndim = eigen.right.ndim + 1
    if clv_i.ndim < ndim:
        clv_i = clv_i[..., None, :, :]
    if clv_j.ndim < ndim:
        clv_j = clv_j[..., None, :, :]
    if clv_i.shape[-3] != clv_j.shape[-3] and 1 not in (
        clv_i.shape[-3], clv_j.shape[-3]
    ):
        raise LikelihoodError("category mismatch between CLVs")
    right = eigen.right[..., None, :, :]
    return np.matmul(right, clv_i) * np.matmul(right, clv_j)


def derivatives_from_sumtable(
    eigen,
    st: np.ndarray,
    t,
    rates: np.ndarray,
    cat_weights: np.ndarray | None,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of the log likelihood in ``t``.

    Returns ``(dlnL, d2lnL)``, one each per stacked item (scalers are
    constant in ``t``, so the derivatives are exact without them).

    ``rates`` is ``(..., n_cats)`` with ``cat_weights`` given, or
    ``(..., n_patterns)`` with ``cat_weights=None`` (PSR).
    """
    t = np.asarray(t, dtype=np.float64)
    _check_branch(t)
    lr = rates[..., None] * eigen.eigenvalues[..., None, :]  # (..., rates, k)
    e = np.exp(lr * t[..., None, None])
    if cat_weights is not None:
        e = e * cat_weights[:, None]
    # f, f' and f'' as the three rows of one left-hand side
    lhs = np.stack([e, e * lr, e * lr * lr], axis=-2)  # (..., rates, 3, k)
    if cat_weights is not None:
        # every pattern meets the same (3, cats·k) operand: one GEMM
        lhs = np.swapaxes(lhs, -2, -3).reshape(lhs.shape[:-3] + (3, -1))
        f = np.matmul(lhs, st.reshape(st.shape[:-3] + (-1, st.shape[-1])))
    else:
        # PSR: one exponent row, hence one (3, k) operand, per pattern
        f = _per_pattern(lhs, st[..., 0, :, :])
    site = np.maximum(f[..., 0, :], _LH_FLOOR)
    ratio1 = f[..., 1, :] / site
    ratio2 = f[..., 2, :] / site
    dlnl = _weighted_sum(weights, ratio1)
    d2lnl = _weighted_sum(weights, ratio2 - ratio1 * ratio1)
    return dlnl, d2lnl


# --------------------------------------------------------------------- #
# analytic per-unit operation counts
# --------------------------------------------------------------------- #
#
# The work unit is one pattern·category — the same virtual-pattern unit
# the region log and the cost model charge in — except for ``pmatrix``,
# whose work is independent of the pattern count under category rates:
# its unit is one transition *matrix*.  Modeled FLOPs are the analytic
# minimum of the operation for ``n = n_states`` — what a per-category
# contraction performs, and what ``_apply``'s one ``P @ clv`` GEMM per
# category executes; the column-sum guard of the rescale scan adds a GEMV
# that the scan's estimate below does not itemize.  Achieved GFLOP/s
# computed from these counts is therefore useful work per second, which is
# what one wants to compare across implementations.
#
# newview:    two child propagations (per category ``P · clv``: n mul +
#             n−1 add per output state, n outputs → 2·(2n−1)·n = 4n²−2n),
#             the elementwise product (n), and the rescale scan
#             (max + compare ≈ n + 2n per unit) → 4n² + 3n.
# evaluate:   one propagation (2n²−n), the product with the other side
#             and the frequencies (3n−1 per unit), the category mix +
#             floor + log + weighted-sum tail (≈ n + 5 spread per unit)
#             → 2n² + 3n + 4.
# sumtable:   two ztransforms (eigen-basis change, each 2n²−n per unit)
#             and the product (n) → 4n² + n.
# derivative: exp(lr·t) amortized over patterns is negligible; the f/f′/f″
#             sums over the eigen index cost 2n−1, 3n−1, 4n−1; category
#             mix + ratios + dots ≈ 7 → 9n + 6.
# pmatrix:    eigen reconstruction U·diag(e^{λrt})·U⁻¹ per matrix:
#             n³ mul + n²·(n−1) add + n² scale + n exp → 2n³ + n² + n.
#
# Bytes are first-order compulsory streaming traffic in float64: the
# arrays each unit must read and write assuming nothing stays in cache
# across patterns (P matrices and eigenvectors *do* stay resident — they
# are O(n²) per partition — so they are charged only to ``pmatrix``).
#
# newview:    read two child states + write parent (3n) + scaler
#             read-modify-write amortized (2 per unit) → (3n + 2)·8.
# evaluate:   read both CLVs + frequencies-weighted reduce + site
#             output (≈ 3n + 1) → (3n + 1)·8.
# sumtable:   read two CLVs + write table → 3n·8.
# derivative: read table slice + site outputs → (n + 1)·8.
# pmatrix:    write one n×n matrix + read U, U⁻¹ → 3n²·8 per matrix.
#
# For DNA under Γ (n = 4) newview lands at 76 FLOP / 112 B ≈ 0.7 FLOP/B
# — far left of any CPU's ridge point, which is the quantitative form of
# the paper's Section V observation that likelihood computation is
# memory bandwidth bound.

_FLOPS_PER_UNIT = {
    "newview": lambda n: 4 * n * n + 3 * n,
    "evaluate": lambda n: 2 * n * n + 3 * n + 4,
    "sumtable": lambda n: 4 * n * n + n,
    "derivative": lambda n: 9 * n + 6,
    "pmatrix": lambda n: 2 * n * n * n + n * n + n,
}

_BYTES_PER_UNIT = {
    "newview": lambda n: (3 * n + 2) * 8,
    "evaluate": lambda n: (3 * n + 1) * 8,
    "sumtable": lambda n: 3 * n * 8,
    "derivative": lambda n: (n + 1) * 8,
    "pmatrix": lambda n: 3 * n * n * 8,
}


def flops_per_unit(op: str, n_states: int = 4) -> float:
    """Floating point operations per work unit of kernel op ``op``.

    The unit is one pattern·category for CLV-shaped ops and one
    transition matrix for ``pmatrix`` (see the derivation above).
    """
    try:
        return float(_FLOPS_PER_UNIT[op](n_states))
    except KeyError:
        raise LikelihoodError(f"unknown kernel op {op!r}") from None


def bytes_per_unit(op: str, n_states: int = 4) -> float:
    """First-order compulsory memory traffic (bytes) per work unit."""
    try:
        return float(_BYTES_PER_UNIT[op](n_states))
    except KeyError:
        raise LikelihoodError(f"unknown kernel op {op!r}") from None

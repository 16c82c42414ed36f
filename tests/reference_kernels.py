"""Reference likelihood kernels: the per-partition einsum forms.

This is the implementation ``repro.likelihood.kernel`` had before its
contractions became stacked matrix products.  It shares no code with the
GEMM forms (every contraction here is an ``np.einsum`` on one partition's
arrays, the rescale scan takes the exact maximum unconditionally), which is
what makes it an oracle: ``tests/test_stack.py`` property-tests the stacked
kernels against it.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LikelihoodError

#: When a pattern's CLV maximum falls below this, it is rescaled to 1.
SCALE_THRESHOLD = 1e-100

#: Floor for per-site likelihoods before taking logs.
_LH_FLOOR = 1e-300


def pmatrices(eigen, t: float, rates: np.ndarray) -> np.ndarray:
    """Transition matrices for one branch under a set of rate multipliers.

    ``rates`` of shape ``(n_cats,)`` (Γ / uniform) yields ``(n_cats, n, n)``;
    shape ``(n_patterns,)`` (PSR) yields ``(n_patterns, n, n)``.
    """
    if t < 0:
        raise LikelihoodError(f"negative branch length {t}")
    return eigen.pmatrices(np.asarray(rates, dtype=np.float64) * t)


def _apply(p: np.ndarray, clv_or_tip: np.ndarray, site_specific: bool) -> np.ndarray:
    """Propagate a child CLV (or tip vector) through its P matrices.

    ``site_specific`` selects the PSR flavor (one P matrix per pattern,
    singleton category axis) versus the category flavor (one P matrix per
    rate category, shared across patterns).  Returns
    ``(n_patterns, n_cats, n_states)``.
    """
    if clv_or_tip.ndim == 2:  # tip vector (patterns, states)
        if site_specific:
            return np.einsum("pxy,py->px", p, clv_or_tip)[:, None, :]
        return np.einsum("cxy,py->pcx", p, clv_or_tip)
    if site_specific:
        if clv_or_tip.shape[1] != 1:
            raise LikelihoodError(
                "site-specific rates require a singleton category axis"
            )
        return np.einsum("pxy,pcy->pcx", p, clv_or_tip)
    if clv_or_tip.shape[1] != p.shape[0]:
        raise LikelihoodError(
            f"CLV has {clv_or_tip.shape[1]} categories but P has {p.shape[0]}"
        )
    return np.einsum("cxy,pcy->pcx", p, clv_or_tip)


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
    left = _apply(p_a, clv_a, site_specific)
    right = _apply(p_b, clv_b, site_specific)
    clv = left * right
    n_patterns = clv.shape[0]
    scale = np.zeros(n_patterns)
    if scale_a is not None:
        scale += scale_a
    if scale_b is not None:
        scale += scale_b
    # rescale patterns whose magnitude dropped below threshold
    m = clv.reshape(n_patterns, -1).max(axis=1)
    tiny = (m < SCALE_THRESHOLD) & (m > 0)
    if np.any(tiny):
        factor = m[tiny]
        clv[tiny] /= factor[:, None, None]
        scale[tiny] += np.log(factor)
    if np.any(m == 0):
        raise LikelihoodError("CLV underflowed to exactly zero")
    return clv, scale


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
) -> tuple[float, np.ndarray]:
    """Log likelihood at the virtual root on edge ``{i, j}``.

    ``p_root`` carries the branch between the two CLVs and is applied to
    side ``j``.  ``cat_weights`` is ``None`` for site-specific rates (PSR:
    a single implicit category of weight 1).

    Returns ``(log_likelihood, per_pattern_log_likelihood)`` where the
    total is ``Σ_p weights[p] · per_pattern[p]``.  The per-pattern vector is
    what the PSR rate optimizer consumes and what distributed ranks reduce.
    """
    right = _apply(p_root, clv_j, site_specific)
    if clv_i.ndim == 2:  # tip on side i
        clv_i = clv_i[:, None, :]
    per_cat = np.einsum("pcx,pcx,x->pc", clv_i, right, frequencies)
    if cat_weights is None:
        site_lh = per_cat[:, 0]
    else:
        site_lh = per_cat @ cat_weights
    site_lh = np.maximum(site_lh, _LH_FLOOR)
    log_site = np.log(site_lh)
    if scale_i is not None:
        log_site = log_site + scale_i
    if scale_j is not None:
        log_site = log_site + scale_j
    total = float(np.dot(weights, log_site))
    if not np.isfinite(total):
        raise LikelihoodError("non-finite log likelihood")
    return total, log_site


def sumtable(
    eigen,
    clv_i: np.ndarray,
    clv_j: np.ndarray,
) -> np.ndarray:
    """Eigen-basis cross product used for branch-length derivatives.

    With ``z = clv · rightᵀ`` the per-site likelihood on the connecting
    branch is ``f(t) = Σ_k st[p, c, k] · e^{λ_k r t}`` where
    ``st = z_i ⊙ z_j``.  Tips are promoted to a singleton category axis.
    """
    if clv_i.ndim == 2:
        clv_i = clv_i[:, None, :]
    if clv_j.ndim == 2:
        clv_j = clv_j[:, None, :]
    if clv_i.shape[1] != clv_j.shape[1]:
        if clv_i.shape[1] == 1:
            clv_i = np.broadcast_to(clv_i, clv_j.shape)
        elif clv_j.shape[1] == 1:
            clv_j = np.broadcast_to(clv_j, clv_i.shape)
        else:
            raise LikelihoodError("category mismatch between CLVs")
    zi = eigen.ztransform(clv_i)
    zj = eigen.ztransform(clv_j)
    return zi * zj


def derivatives_from_sumtable(
    eigen,
    st: np.ndarray,
    t: float,
    rates: np.ndarray,
    cat_weights: np.ndarray | None,
    weights: np.ndarray,
) -> tuple[float, float, float]:
    """First and second derivative of the log likelihood in ``t``.

    Returns ``(logl_proxy, dlnL, d2lnL)``; the proxy omits scaler terms and
    is only used for trend checks inside the Newton solver (scalers are
    constant in ``t`` so derivatives are exact).

    ``rates`` is ``(n_cats,)`` with ``cat_weights`` given, or
    ``(n_patterns,)`` with ``cat_weights=None`` (PSR).
    """
    if t < 0:
        raise LikelihoodError(f"negative branch length {t}")
    lam = eigen.eigenvalues
    if cat_weights is not None:
        lr = rates[:, None] * lam[None, :]  # (cats, k)
        e = np.exp(lr * t)  # (cats, k)
        f = np.einsum("pck,ck->pc", st, e)
        f1 = np.einsum("pck,ck,ck->pc", st, e, lr)
        f2 = np.einsum("pck,ck,ck,ck->pc", st, e, lr, lr)
        site = f @ cat_weights
        site1 = f1 @ cat_weights
        site2 = f2 @ cat_weights
    else:
        lr = rates[:, None] * lam[None, :]  # (patterns, k)
        e = np.exp(lr * t)
        stp = st[:, 0, :]
        site = np.einsum("pk,pk->p", stp, e)
        site1 = np.einsum("pk,pk,pk->p", stp, e, lr)
        site2 = np.einsum("pk,pk,pk,pk->p", stp, e, lr, lr)
    site = np.maximum(site, _LH_FLOOR)
    ratio1 = site1 / site
    ratio2 = site2 / site
    logl = float(np.dot(weights, np.log(site)))
    dlnl = float(np.dot(weights, ratio1))
    d2lnl = float(np.dot(weights, ratio2 - ratio1 * ratio1))
    return logl, dlnl, d2lnl

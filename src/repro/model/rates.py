"""Rate heterogeneity among sites: the Γ model and the PSR model.

The paper's RAxML family implements exactly two schemes:

* **Γ** [Yang 1994]: per-site rates are integrated over a discretized
  Gamma(α, α) distribution (mean 1).  With the standard 4 categories every
  CLV entry is 4× larger than under a single rate — *the* reason the Γ
  runs in Figure 3 exhaust node memory and swap on 1–2 nodes.
* **PSR** (Per-Site Rate, the model RAxML calls CAT [Stamatakis 2006],
  renamed in ExaML to avoid confusion with PhyloBayes' CAT): every site
  gets an individually optimized rate.  One category ⇒ 4× less memory,
  but the per-site rates are extra model parameters that the fork-join
  master must broadcast — an important contributor to Table I's
  "model parameters" row under PSR.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ModelError
from repro.model._incgamma import gammainc, gammaincinv

__all__ = [
    "RateHeterogeneity",
    "NoRateHeterogeneity",
    "DiscreteGamma",
    "PerSiteRates",
    "discrete_gamma_rates",
    "categorize_rates",
]

#: Bounds RAxML uses for the α shape parameter.
ALPHA_MIN = 0.02
ALPHA_MAX = 100.0

#: Bounds for individually optimized per-site rates (RAxML uses similar).
PSR_MIN = 0.001
PSR_MAX = 30.0


def discrete_gamma_rates(alpha: float, n_cats: int, method: str = "mean") -> np.ndarray:
    """Discretize Gamma(α, α) into ``n_cats`` equiprobable categories.

    ``method='mean'`` uses the category means (Yang 1994 eq. 10); ``'median'``
    uses the quantile midpoints rescaled to mean one.  Returns rates of
    shape ``(n_cats,)`` with weighted mean exactly 1.

    The result is a pure function of ``(alpha, n_cats, method)`` and is
    memoised on it (the model optimiser proposes one α to every
    partition in lockstep), so the array is read-only: copy to modify.
    """
    alpha = float(alpha)
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:  # False for NaN too
        raise ModelError(f"alpha {alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
    if n_cats < 1:
        raise ModelError("need at least one rate category")
    if method not in ("mean", "median"):
        raise ModelError(f"unknown discretization method {method!r}")
    return _discrete_gamma_rates(alpha, int(n_cats), method)


@lru_cache(maxsize=256)
def _discrete_gamma_rates(alpha: float, n_cats: int, method: str) -> np.ndarray:
    if n_cats == 1:
        rates = np.ones(1)
    elif method == "mean":
        # category boundaries b_i at the quantiles i/k of Gamma(shape=α,
        # scale=1/α); α·b_i is that quantile of Gamma(shape=α, scale=1)
        cuts = [gammaincinv(alpha, i / n_cats) for i in range(1, n_cats)]
        # mean of Gamma(α, α) over [a,b] × k:
        #   k * (I(α+1, αb) − I(α+1, αa)), I = regularized lower inc. gamma
        cdf = np.array([0.0, *(gammainc(alpha + 1.0, x) for x in cuts), 1.0])
        rates = n_cats * np.diff(cdf)
    else:
        qs = np.array([gammaincinv(alpha, (i + 0.5) / n_cats)
                       for i in range(n_cats)])
        rates = qs * n_cats / qs.sum()
    if not np.all(rates > 0):
        raise ModelError(f"non-positive gamma rates for alpha={alpha}")
    rates.flags.writeable = False
    return rates


class RateHeterogeneity:
    """Interface: a per-partition description of among-site rate variation.

    Implementations expose ``category_rates(n_patterns)`` →
    ``(rates, weights)`` where either

    * ``rates``/``weights`` have shape ``(n_cats,)`` (site-independent
      categories: Γ, uniform), or
    * ``rates`` has shape ``(n_patterns,)`` and ``weights`` is ``None``
      (site-specific rates: PSR).
    """

    #: number of CLV rate categories this model needs per pattern entry
    n_cats: int = 1
    #: True when rates are per-site (PSR) rather than per-category
    site_specific: bool = False

    def memory_categories(self) -> int:
        """CLV width multiplier (4 for Γ-4, 1 for PSR) — drives the
        paper's '£Γ needs 4× the memory of PSR' observation."""
        return self.n_cats

    def parameter_bytes(self, n_patterns: int) -> int:
        """Bytes a fork-join master must broadcast when these rate
        parameters change (Table I 'model parameters' row)."""
        raise NotImplementedError


class NoRateHeterogeneity(RateHeterogeneity):
    """A single rate of 1 for all sites (the plain GTR model)."""

    n_cats = 1
    site_specific = False

    def category_rates(self, n_patterns: int) -> tuple[np.ndarray, np.ndarray]:
        return np.ones(1), np.ones(1)

    def parameter_bytes(self, n_patterns: int) -> int:
        return 0

    def __repr__(self) -> str:
        return "NoRateHeterogeneity()"


class DiscreteGamma(RateHeterogeneity):
    """The discrete Γ model with ``n_cats`` equiprobable categories."""

    site_specific = False

    def __init__(self, alpha: float = 1.0, n_cats: int = 4, method: str = "mean") -> None:
        if n_cats < 2:
            raise ModelError("DiscreteGamma needs >= 2 categories")
        self.n_cats = int(n_cats)
        self.method = method
        self._alpha = 0.0
        self._rates: np.ndarray | None = None
        self.alpha = alpha  # validates & computes rates

    @property
    def alpha(self) -> float:
        return self._alpha

    @alpha.setter
    def alpha(self, value: float) -> None:
        value = float(value)
        if value == self._alpha and self._rates is not None:
            return
        self._rates = discrete_gamma_rates(value, self.n_cats, self.method)
        self._alpha = value

    def category_rates(self, n_patterns: int) -> tuple[np.ndarray, np.ndarray]:
        assert self._rates is not None
        return self._rates, np.full(self.n_cats, 1.0 / self.n_cats)

    def parameter_bytes(self, n_patterns: int) -> int:
        # one double: the α shape parameter
        return 8

    def __repr__(self) -> str:
        return f"DiscreteGamma(alpha={self._alpha:.4g}, n_cats={self.n_cats})"


class PerSiteRates(RateHeterogeneity):
    """The PSR (CAT) model: one individually optimized rate per pattern.

    Rates are stored per *pattern*; their pattern-weighted mean is kept at
    one by :meth:`normalize` so branch lengths stay identifiable.  The
    vector is empty for a rank's share of a partition it holds no pattern
    of: such a share contributes exactly ``0`` to the normalization sums.
    """

    n_cats = 1
    site_specific = True

    def __init__(self, rates: np.ndarray | None = None, n_patterns: int | None = None) -> None:
        if rates is None:
            if n_patterns is None:
                raise ModelError("PerSiteRates needs rates or n_patterns")
            rates = np.ones(n_patterns)
        self.rates = np.asarray(rates, dtype=np.float64).copy()
        if self.rates.ndim != 1:
            raise ModelError("per-site rates must be a vector")
        if np.any(self.rates < PSR_MIN) or np.any(self.rates > PSR_MAX):
            raise ModelError(f"per-site rates outside [{PSR_MIN}, {PSR_MAX}]")

    def category_rates(self, n_patterns: int) -> tuple[np.ndarray, None]:
        if self.rates.shape[0] != n_patterns:
            raise ModelError(
                f"PSR has {self.rates.shape[0]} rates but partition has "
                f"{n_patterns} patterns"
            )
        return self.rates, None

    def set_rates(self, rates: np.ndarray) -> None:
        rates = np.asarray(rates, dtype=np.float64)
        if rates.shape != self.rates.shape:
            raise ModelError("rate vector shape changed")
        self.rates = np.clip(rates, PSR_MIN, PSR_MAX)

    def normalize(self, weights: np.ndarray) -> float:
        """Rescale so the pattern-weighted mean rate is one.

        Returns the scale factor applied (callers fold it into branch
        lengths to keep the likelihood invariant).
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.rates.shape:
            raise ModelError("weights shape mismatch")
        if weights.size == 0:
            raise ModelError(
                "cannot normalize an empty PSR share locally; the mean rate "
                "is a global quantity (reduce the normalization sums)")
        mean = float(np.dot(weights, self.rates) / weights.sum())
        if mean <= 0:  # pragma: no cover - defensive
            raise ModelError("degenerate per-site rates")
        self.rates = np.clip(self.rates / mean, PSR_MIN, PSR_MAX)
        return mean

    def parameter_bytes(self, n_patterns: int) -> int:
        # the full per-site rate vector must be broadcast
        return 8 * int(n_patterns)

    def __repr__(self) -> str:
        return f"PerSiteRates(n={self.rates.size}, mean={self.rates.mean():.3f})"


def categorize_rates(
    rates: np.ndarray,
    weights: np.ndarray,
    n_categories: int = 25,
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse per-site rates into at most ``n_categories`` distinct values.

    RAxML's CAT implementation does not keep one free rate per site: after
    optimization it clusters sites into a bounded number of rate
    categories (default 25), replacing each site's rate by its category
    representative.  This bounds both the number of distinct P matrices
    per branch and the model-parameter state.

    Sites are bucketed on a log-rate grid between the observed extremes;
    each bucket's representative is its weighted mean rate.  Returns
    ``(categorized_rates, category_index)``; the weighted mean of the
    result is renormalized to that of the input.
    """
    rates = np.asarray(rates, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if rates.shape != weights.shape or rates.ndim != 1:
        raise ModelError("rates/weights must be matching vectors")
    if n_categories < 1:
        raise ModelError("need at least one category")
    if rates.size == 0:
        raise ModelError("empty rate vector")
    lo, hi = float(rates.min()), float(rates.max())
    if hi / lo < 1.0 + 1e-9 or n_categories == 1:
        value = float(np.dot(weights, rates) / weights.sum())
        return np.full_like(rates, value), np.zeros(rates.size, dtype=np.intp)
    edges = np.geomspace(lo, hi, n_categories + 1)
    idx = np.clip(np.searchsorted(edges, rates, side="right") - 1, 0,
                  n_categories - 1)
    out = rates.copy()
    # the occupied categories, ascending (flag-less ``np.unique`` would
    # import ``numpy.ma``)
    for c in np.flatnonzero(np.bincount(idx, minlength=n_categories)):
        mask = idx == c
        w = weights[mask]
        out[mask] = float(np.dot(w, rates[mask]) / w.sum())
    # preserve the input's weighted mean exactly
    target = float(np.dot(weights, rates) / weights.sum())
    current = float(np.dot(weights, out) / weights.sum())
    out *= target / current
    return out, idx

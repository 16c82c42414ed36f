"""Regularised lower incomplete gamma function and its inverse.

The two special functions the discrete Γ model needs, on ``math``
scalars only: ExaML carries its own incomplete-gamma and χ²-quantile
code so that a rank is nothing but the program, and every process here
pays its imports once per rank too.  Results depend on libm alone (no
BLAS, no threads), so every replica, fork-join worker and restarted run
recomputes the same bits from the same α.

Valid for the shapes ``[ALPHA_MIN, ALPHA_MAX + 1]`` of
:mod:`repro.model.rates`; the callers validate α.
"""

from __future__ import annotations

from math import exp, inf, lgamma, log, log1p, pi, sqrt

__all__ = ["gammainc", "gammaincinv"]

_EPS = 2.0 ** -53
_TINY = 1e-300
#: above this shape the prefactor is taken relative to its mode (below)
_LARGE_A = 10.0
#: Halley's method is cubic: a step below this relative size leaves an
#: error below double precision
_HALLEY_TOL = 1e-6
_MAX_HALLEY = 32
_MAX_TERMS = 1000
#: B_2n / (2n(2n−1)), highest order first: log Γ(a+1) − log(√(2πa) a^a e^-a)
#: = Σ c_n a^(1−2n); the first omitted term is 3e-17 at a = _LARGE_A
_STIRLING = (1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0,
             1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)


def _log_prefactor(a: float, x: float) -> float:
    """``log(x^a e^-x / Γ(a+1))``.

    Directly, the three terms are each ~a·log a and cancel, which costs
    ~a ulps.  For large ``a`` the factor is written around its mode
    ``x = a``: ``a·(log1p(μ) − μ)`` with ``μ = (x − a)/a`` plus
    Stirling's series for ``log(a^a e^-a / Γ(a+1))``, whose terms are
    all small.
    """
    if a < _LARGE_A:
        return a * log(x) - x - lgamma(a + 1.0)
    mu = (x - a) / a
    # log(x/a) − μ.  Near the mode the two cancel and x − a is exact, so
    # log1p(μ) keeps the digits; far below it 1 + μ would lose them again
    shape = a * ((log1p(mu) if abs(mu) < 0.5 else log(x / a)) - mu)
    stirling = 0.0
    for coeff in _STIRLING:
        stirling = coeff + stirling / (a * a)
    stirling /= a
    return shape - 0.5 * log(2.0 * pi * a) - stirling


def gammainc(a: float, x: float) -> float:
    """``P(a, x) = γ(a, x) / Γ(a)`` for ``a > 0``, ``x >= 0``."""
    if x <= 0.0:
        return 0.0
    if x == inf:
        return 1.0
    if x < a + 1.0:
        # power series: P = x^a e^-x / Γ(a+1) · Σ x^n / ((a+1)…(a+n)),
        # every term positive
        term = total = 1.0
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return total * exp(_log_prefactor(a, x))
    # Q = 1 − P as a continued fraction, modified Lentz evaluation
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    # ~100 terms at worst over the valid shapes; the bound only guards
    # against rounding holding delta a few ulps off 1
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.0 * _EPS:
            break
    # x^a e^-x / Γ(a) = a · x^a e^-x / Γ(a+1)
    return 1.0 - h * a * exp(_log_prefactor(a, x))


def gammaincinv(a: float, p: float) -> float:
    """The ``x`` with ``P(a, x) = p`` for ``a > 0``, ``0 <= p <= 1``."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return inf
    if a > 1.0:
        # Wilson–Hilferty: (x/a)^(1/3) is close to normal
        pp = p if p < 0.5 else 1.0 - p
        t = sqrt(-2.0 * log(pp))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        if p >= 0.5:
            z = -z
        x = max(1e-3, a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * sqrt(a))) ** 3)
    else:
        # P ≈ x^a / Γ(a+1) below the knee t, an exponential tail above
        t = 1.0 - a * (0.253 + a * 0.12)
        if p < t:
            x = (p / t) ** (1.0 / a)
        else:
            x = 1.0 - log(1.0 - (p - t) / (1.0 - t))
    if x == 0.0:  # the quantile is below the smallest double
        return 0.0
    a1 = a - 1.0
    for _ in range(_MAX_HALLEY):
        # f = P − p, f' = x^(a−1) e^-x / Γ(a), f''/f' = (a−1)/x − 1
        slope = exp(_log_prefactor(a, x)) * a / x
        u = (gammainc(a, x) - p) / slope
        step = u / (1.0 - 0.5 * min(1.0, u * (a1 / x - 1.0)))
        x -= step
        if x <= 0.0:
            x = 0.5 * (x + step)
        if abs(step) <= _HALLEY_TOL * x:
            break
    return x

"""Rate-heterogeneity tests: Γ discretization and PSR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model._incgamma import gammainc, gammaincinv
from repro.model.rates import (
    ALPHA_MAX,
    ALPHA_MIN,
    DiscreteGamma,
    NoRateHeterogeneity,
    PerSiteRates,
    discrete_gamma_rates,
)


class TestDiscreteGammaRates:
    def test_mean_is_one(self):
        for alpha in [0.1, 0.5, 1.0, 2.0, 10.0]:
            rates = discrete_gamma_rates(alpha, 4)
            assert rates.mean() == pytest.approx(1.0, abs=1e-10)

    def test_rates_increase(self):
        rates = discrete_gamma_rates(0.5, 4)
        assert np.all(np.diff(rates) > 0)

    def test_small_alpha_is_spread_out(self):
        tight = discrete_gamma_rates(10.0, 4)
        spread = discrete_gamma_rates(0.2, 4)
        assert spread.max() / spread.min() > tight.max() / tight.min()

    def test_large_alpha_approaches_uniform(self):
        rates = discrete_gamma_rates(99.0, 4)
        assert np.allclose(rates, 1.0, atol=0.15)

    def test_known_yang_values(self):
        # Yang (1994), alpha=0.5, 4 categories, mean method
        rates = discrete_gamma_rates(0.5, 4)
        expected = np.array([0.0334, 0.2519, 0.8203, 2.8944])
        assert np.allclose(rates, expected, atol=2e-4)

    def test_single_category(self):
        assert discrete_gamma_rates(0.7, 1)[0] == 1.0

    def test_median_method(self):
        rates = discrete_gamma_rates(0.5, 4, method="median")
        assert rates.mean() == pytest.approx(1.0)
        assert np.all(np.diff(rates) > 0)

    def test_alpha_bounds(self):
        with pytest.raises(ModelError):
            discrete_gamma_rates(ALPHA_MIN / 2, 4)
        with pytest.raises(ModelError):
            discrete_gamma_rates(ALPHA_MAX * 2, 4)

    def test_bad_method(self):
        with pytest.raises(ModelError):
            discrete_gamma_rates(1.0, 4, method="mode")

    @given(st.floats(0.05, 50.0), st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_mean_one_property(self, alpha, k):
        rates = discrete_gamma_rates(alpha, k)
        assert rates.shape == (k,)
        assert rates.mean() == pytest.approx(1.0, abs=1e-8)
        assert np.all(rates > 0)


class TestDiscreteGammaModel:
    def test_category_rates(self):
        g = DiscreteGamma(alpha=0.7, n_cats=4)
        rates, weights = g.category_rates(100)
        assert rates.shape == (4,)
        assert np.allclose(weights, 0.25)

    def test_alpha_setter_revalidates(self):
        g = DiscreteGamma(alpha=1.0)
        g.alpha = 0.5
        assert g.alpha == 0.5
        with pytest.raises(ModelError):
            g.alpha = -1.0

    def test_memory_categories(self):
        assert DiscreteGamma(n_cats=4).memory_categories() == 4

    def test_parameter_bytes(self):
        assert DiscreteGamma().parameter_bytes(1000) == 8

    def test_needs_two_categories(self):
        with pytest.raises(ModelError):
            DiscreteGamma(n_cats=1)


class TestPerSiteRates:
    def test_default_uniform(self):
        psr = PerSiteRates(n_patterns=10)
        rates, weights = psr.category_rates(10)
        assert weights is None
        assert np.allclose(rates, 1.0)

    def test_memory_is_one_category(self):
        # the paper's key PSR advantage: 4x less CLV memory than Γ-4
        assert PerSiteRates(n_patterns=5).memory_categories() == 1

    def test_pattern_count_enforced(self):
        psr = PerSiteRates(n_patterns=10)
        with pytest.raises(ModelError):
            psr.category_rates(11)

    def test_set_rates_clips(self):
        psr = PerSiteRates(n_patterns=3)
        psr.set_rates(np.array([1e-9, 1.0, 1e9]))
        assert psr.rates[0] >= 0.001
        assert psr.rates[2] <= 30.0

    def test_normalize(self):
        psr = PerSiteRates(rates=np.array([2.0, 4.0]))
        weights = np.array([1.0, 3.0])
        factor = psr.normalize(weights)
        assert factor == pytest.approx(3.5)
        assert np.dot(weights, psr.rates) / weights.sum() == pytest.approx(1.0)

    def test_parameter_bytes_scale_with_sites(self):
        assert PerSiteRates(n_patterns=100).parameter_bytes(100) == 800

    def test_out_of_bounds_init(self):
        with pytest.raises(ModelError):
            PerSiteRates(rates=np.array([0.0]))


class TestNoHeterogeneity:
    def test_trivial(self):
        n = NoRateHeterogeneity()
        rates, weights = n.category_rates(7)
        assert rates[0] == 1.0 and weights[0] == 1.0
        assert n.parameter_bytes(100) == 0


def _scipy_reference(alpha: float, k: int, method: str) -> np.ndarray:
    """The discretisation as it was computed from SciPy (the oracle)."""
    from scipy.special import gammainc
    from scipy.stats import gamma

    if method == "median":
        qs = gamma.ppf((np.arange(k) + 0.5) / k, a=alpha, scale=1.0 / alpha)
        return qs * k / qs.sum()
    qs = gamma.ppf(np.arange(1, k) / k, a=alpha, scale=1.0 / alpha)
    bounds = np.concatenate([[0.0], qs, [np.inf]])
    return k * (gammainc(alpha + 1.0, alpha * bounds[1:])
                - gammainc(alpha + 1.0, alpha * bounds[:-1]))


def _alpha_sweep() -> list[float]:
    rng = np.random.default_rng(1994)
    alphas = np.exp(rng.uniform(np.log(ALPHA_MIN), np.log(ALPHA_MAX), 400))
    return [ALPHA_MIN, ALPHA_MAX, *map(float, alphas)]


class TestAgainstScipyOracle:
    """The program computes Γ rates with its own incomplete-gamma code
    (``repro.model._incgamma``); SciPy is the test-side oracle.  The
    contract is a tolerance against it, and bitwise equality between
    processes (``tests/test_no_scipy.py``)."""

    @pytest.mark.parametrize("method", ["mean", "median"])
    def test_rates_within_tolerance(self, method):
        for alpha in _alpha_sweep():
            for k in (2, 4, 8, 16):
                got = discrete_gamma_rates(alpha, k, method)
                np.testing.assert_allclose(
                    got, _scipy_reference(alpha, k, method), rtol=1e-12,
                    atol=0.0, err_msg=f"alpha={alpha} k={k}")

    def test_incomplete_gamma_within_tolerance(self):
        from scipy import special

        for alpha in _alpha_sweep():
            for k in (2, 4, 8, 16):
                for p in np.arange(1, 2 * k) / (2 * k):
                    x = gammaincinv(alpha, float(p))
                    assert x == pytest.approx(
                        special.gammaincinv(alpha, p), rel=1e-12, abs=0.0)
                    assert gammainc(alpha + 1.0, x) == pytest.approx(
                        special.gammainc(alpha + 1.0, x), rel=1e-12, abs=0.0)

    def test_quantile_round_trip(self):
        for alpha in _alpha_sweep():
            for k in (2, 4, 8, 16):
                for p in np.arange(1, 2 * k) / (2 * k):
                    x = gammaincinv(alpha, float(p))
                    assert abs(gammainc(alpha, x) - p) <= 1e-14, (alpha, p)


class TestIncompleteGamma:
    def test_limits(self):
        assert gammainc(0.5, 0.0) == 0.0
        assert gammainc(0.5, math.inf) == 1.0
        assert gammaincinv(0.5, 0.0) == 0.0
        assert gammaincinv(0.5, 1.0) == math.inf
        # a quantile below the smallest double is 0, which the
        # discretisation rejects as a non-positive rate
        assert gammaincinv(ALPHA_MIN, 1e-7) == 0.0

    def test_closed_forms(self):
        # P(1, x) = 1 − e^-x;  P(1/2, x) = erf(√x)
        for x in (1e-9, 0.3, 1.0, 1.9, 2.1, 7.5, 40.0):
            assert gammainc(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-14)
            assert gammainc(0.5, x) == pytest.approx(
                math.erf(math.sqrt(x)), rel=1e-14)

    @pytest.mark.parametrize("a", [ALPHA_MIN, 0.5, 1.0, 3.7, 9.999, 10.0, 57.0,
                                   ALPHA_MAX + 1.0])
    def test_series_meets_continued_fraction(self, a):
        """``x < a + 1`` sums the series, ``x >= a + 1`` evaluates the
        continued fraction: P is continuous and increasing across the seam."""
        seam = a + 1.0
        below = gammainc(a, math.nextafter(seam, 0.0))
        at = gammainc(a, seam)
        above = gammainc(a, math.nextafter(seam, math.inf))
        assert at == pytest.approx(below, rel=4e-15)
        assert above == pytest.approx(at, rel=4e-15)
        assert gammainc(a, 0.99 * seam) < below and above < gammainc(a, 1.01 * seam)


class TestDiscreteGammaProperties:
    @given(st.floats(ALPHA_MIN, ALPHA_MAX), st.integers(2, 16),
           st.sampled_from(["mean", "median"]))
    @settings(max_examples=200, deadline=None)
    def test_increasing_positive_mean_one(self, alpha, k, method):
        rates = discrete_gamma_rates(alpha, k, method)
        assert rates.shape == (k,)
        assert rates[0] > 0 and np.all(np.diff(rates) > 0)
        assert abs(rates.mean() - 1.0) <= 4 * np.finfo(float).eps

    @given(st.one_of(
        st.floats(max_value=ALPHA_MIN, exclude_max=True),
        st.floats(min_value=ALPHA_MAX, exclude_min=True),
        st.sampled_from([math.nan, math.inf, -math.inf])),
        st.integers(1, 16), st.sampled_from(["mean", "median"]))
    @settings(max_examples=100, deadline=None)
    def test_alpha_out_of_bounds_is_a_model_error(self, alpha, k, method):
        with pytest.raises(ModelError):
            discrete_gamma_rates(alpha, k, method)
        with pytest.raises(ModelError):
            DiscreteGamma(alpha=alpha, n_cats=max(k, 2), method=method)


class TestMemoisedRates:
    def test_result_is_shared_and_read_only(self):
        first = discrete_gamma_rates(0.37, 4)
        assert discrete_gamma_rates(0.37, 4) is first
        assert discrete_gamma_rates(np.float64(0.37), 4) is first
        with pytest.raises(ValueError):
            first[0] = 1.0
        with pytest.raises(ValueError):
            first *= 2.0
        assert discrete_gamma_rates(0.37, 4, "median") is not first

    def test_model_does_not_hand_out_a_writable_array(self):
        g = DiscreteGamma(alpha=0.37)
        rates, _ = g.category_rates(10)
        with pytest.raises(ValueError):
            rates[:] = 1.0
        assert np.array_equal(DiscreteGamma(alpha=0.37).category_rates(10)[0], rates)

    def test_cache_is_bounded(self):
        from repro.model.rates import _discrete_gamma_rates

        size = _discrete_gamma_rates.cache_info().maxsize
        assert size is not None
        for alpha in np.linspace(1.0, 2.0, size + 50):
            discrete_gamma_rates(float(alpha), 4)
        assert _discrete_gamma_rates.cache_info().currsize == size

    def test_unchanged_alpha_is_not_recomputed(self):
        from repro.model.rates import _discrete_gamma_rates

        g = DiscreteGamma(alpha=0.61)
        before = _discrete_gamma_rates.cache_info()
        g.alpha = 0.61
        after = _discrete_gamma_rates.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

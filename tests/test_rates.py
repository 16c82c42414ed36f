"""Rate-heterogeneity tests: Γ discretization and PSR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
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


class TestNoScipyStats:
    """``scipy.stats`` was half of ``import repro.cli``; the Γ quantiles
    come from ``scipy.special.gammaincinv`` — the same arithmetic."""

    def test_cli_import_does_not_load_scipy_stats(self):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-c",
             "import repro.cli, sys; assert 'scipy.stats' not in sys.modules"],
            check=True, env={"PYTHONPATH": str(src)}, timeout=120)

    @pytest.mark.parametrize("method", ["mean", "median"])
    def test_bitwise_equal_to_scipy_stats_ppf(self, method):
        from scipy.special import gammainc
        from scipy.stats import gamma

        def reference(alpha: float, k: int) -> np.ndarray:
            """The implementation this replaced, quantiles from ``ppf``."""
            if method == "median":
                qs = gamma.ppf((np.arange(k) + 0.5) / k, a=alpha,
                               scale=1.0 / alpha)
                return qs * k / qs.sum()
            qs = gamma.ppf(np.arange(1, k) / k, a=alpha, scale=1.0 / alpha)
            bounds = np.concatenate([[0.0], qs, [np.inf]])
            return k * (gammainc(alpha + 1.0, alpha * bounds[1:])
                        - gammainc(alpha + 1.0, alpha * bounds[:-1]))

        rng = np.random.default_rng(1994)
        alphas = np.exp(rng.uniform(np.log(ALPHA_MIN), np.log(ALPHA_MAX), 400))
        for alpha in [ALPHA_MIN, ALPHA_MAX, *alphas]:
            for k in (2, 4, 8):
                got = discrete_gamma_rates(float(alpha), k, method)
                assert np.array_equal(got, reference(float(alpha), k)), (alpha, k)

"""Property-based tests on the likelihood kernels themselves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LikelihoodError
from repro.likelihood import kernel
from repro.model.substitution import GTR, SubstitutionModel


def model_from(rates, freqs):
    freqs = np.array(freqs)
    return SubstitutionModel(np.array(rates), freqs / freqs.sum())


@st.composite
def random_setup(draw):
    rates = draw(st.lists(st.floats(0.1, 8.0), min_size=6, max_size=6))
    freqs = draw(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    n_patterns = draw(st.integers(1, 12))
    n_cats = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(0, 2**31))
    return model_from(rates, freqs), n_patterns, n_cats, seed


class TestNewviewProperties:
    @given(random_setup(), st.floats(0.001, 3.0), st.floats(0.001, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_clvs_stay_positive_and_bounded(self, setup, ta, tb):
        model, n_patterns, n_cats, seed = setup
        rng = np.random.default_rng(seed)
        eigen = model.eigen()
        rates = np.linspace(0.5, 1.5, n_cats)
        p_a = kernel.pmatrices(eigen, ta, rates)
        p_b = kernel.pmatrices(eigen, tb, rates)
        clv_a = rng.random((n_patterns, n_cats, 4))
        clv_b = rng.random((n_patterns, n_cats, 4))
        clv, scale = kernel.newview(p_a, clv_a, None, p_b, clv_b, None)
        assert clv.shape == (n_patterns, n_cats, 4)
        assert np.all(clv >= 0)
        assert np.all(np.isfinite(clv))
        assert np.all(scale <= 0) or np.all(scale == 0)

    @given(random_setup())
    @settings(max_examples=30, deadline=None)
    def test_scaling_is_transparent(self, setup):
        """Pre-scaling a child by a constant shifts only the log-scaler."""
        model, n_patterns, n_cats, seed = setup
        rng = np.random.default_rng(seed)
        eigen = model.eigen()
        rates = np.ones(n_cats)
        P = kernel.pmatrices(eigen, 0.2, rates)
        a = rng.random((n_patterns, n_cats, 4)) + 0.1
        b = rng.random((n_patterns, n_cats, 4)) + 0.1
        clv1, s1 = kernel.newview(P, a, None, P, b, None)
        tiny = a * 1e-120  # forces a rescale
        clv2, s2 = kernel.newview(P, tiny, None, P, b, None)
        log1 = np.log(clv1.reshape(n_patterns, -1)) + s1[:, None]
        log2 = np.log(clv2.reshape(n_patterns, -1)) + s2[:, None]
        assert np.allclose(log2 - log1, np.log(1e-120), atol=1e-6)

    def test_negative_branch_rejected(self):
        model = GTR([1, 2, 1, 1, 2, 1.0], np.full(4, 0.25))
        with pytest.raises(LikelihoodError):
            kernel.pmatrices(model.eigen(), -0.1, np.ones(1))

    @pytest.mark.parametrize("t", [np.nan, [0.1, np.nan]])
    def test_nan_branch_rejected(self, t):
        """NaN compares false both ways: the check must not let it by."""
        model = GTR([1, 2, 1, 1, 2, 1.0], np.full(4, 0.25))
        with pytest.raises(LikelihoodError, match="negative or NaN"):
            kernel.pmatrices(model.eigen(), t, np.ones(1))

    def test_zero_clv_is_loud(self):
        model = GTR([1, 2, 1, 1, 2, 1.0], np.full(4, 0.25))
        eigen = model.eigen()
        P = kernel.pmatrices(eigen, 0.1, np.ones(1))
        zero = np.zeros((2, 1, 4))
        with pytest.raises(LikelihoodError, match="zero"):
            kernel.newview(P, zero, None, P, zero, None)


class TestEvaluateProperties:
    @given(random_setup(), st.floats(0.001, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_weights_are_linear(self, setup, t):
        """logL is linear in pattern weights."""
        model, n_patterns, n_cats, seed = setup
        rng = np.random.default_rng(seed)
        eigen = model.eigen()
        rates = np.ones(n_cats)
        cat_w = np.full(n_cats, 1.0 / n_cats)
        P = kernel.pmatrices(eigen, t, rates)
        clv_i = rng.random((n_patterns, n_cats, 4)) + 0.05
        clv_j = rng.random((n_patterns, n_cats, 4)) + 0.05
        w = rng.uniform(0.5, 3.0, n_patterns)
        l1, _ = kernel.evaluate_edge(P, clv_i, None, clv_j, None,
                                     model.frequencies, cat_w, w)
        l2, _ = kernel.evaluate_edge(P, clv_i, None, clv_j, None,
                                     model.frequencies, cat_w, 2 * w)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)

    @given(random_setup())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_under_side_swap(self, setup):
        """Reversibility: evaluating (i,j) equals evaluating (j,i)."""
        model, n_patterns, n_cats, seed = setup
        rng = np.random.default_rng(seed)
        eigen = model.eigen()
        rates = np.ones(n_cats)
        cat_w = np.full(n_cats, 1.0 / n_cats)
        P = kernel.pmatrices(eigen, 0.3, rates)
        clv_i = rng.random((n_patterns, n_cats, 4)) + 0.05
        clv_j = rng.random((n_patterns, n_cats, 4)) + 0.05
        w = np.ones(n_patterns)
        l1, _ = kernel.evaluate_edge(P, clv_i, None, clv_j, None,
                                     model.frequencies, cat_w, w)
        l2, _ = kernel.evaluate_edge(P, clv_j, None, clv_i, None,
                                     model.frequencies, cat_w, w)
        assert l1 == pytest.approx(l2, rel=1e-10)


class TestDerivativeProperties:
    @given(random_setup(), st.floats(0.01, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_derivative_consistency(self, setup, t):
        """sumtable-based f(t) and its d/dt agree with finite differences."""
        model, n_patterns, n_cats, seed = setup
        rng = np.random.default_rng(seed)
        eigen = model.eigen()
        rates = np.linspace(0.5, 1.5, n_cats)
        cat_w = np.full(n_cats, 1.0 / n_cats)
        clv_i = rng.random((n_patterns, n_cats, 4)) + 0.05
        clv_j = rng.random((n_patterns, n_cats, 4)) + 0.05
        st_table = kernel.sumtable(eigen, clv_i, clv_j)
        w = np.ones(n_patterns)
        logl, d1, _ = kernel.derivatives_from_sumtable(
            eigen, st_table, t, rates, cat_w, w
        )
        h = 1e-7
        lp, _, _ = kernel.derivatives_from_sumtable(
            eigen, st_table, t + h, rates, cat_w, w
        )
        lm, _, _ = kernel.derivatives_from_sumtable(
            eigen, st_table, t - h, rates, cat_w, w
        )
        assert d1 == pytest.approx((lp - lm) / (2 * h), rel=1e-4, abs=1e-4)

"""Property-based tests on the likelihood kernels themselves.

Kernel arrays keep their patterns on the last axis: CLVs and sumtables are
``(n_cats, n_states, n_patterns)``, tips ``(n_states, n_patterns)``.  The
einsum oracle (``reference_kernels.py``) keeps the patterns first; inputs
are transposed for it at the call.
"""

import numpy as np
import pytest
import reference_kernels as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LikelihoodError
from repro.likelihood import kernel
from repro.model.substitution import GTR, SubstitutionModel
from repro.seq.alphabet import DNA


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
        clv_a = rng.random((n_cats, 4, n_patterns))
        clv_b = rng.random((n_cats, 4, n_patterns))
        clv, scale = kernel.newview(p_a, clv_a, None, p_b, clv_b, None)
        assert clv.shape == (n_cats, 4, n_patterns)
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
        a = rng.random((n_cats, 4, n_patterns)) + 0.1
        b = rng.random((n_cats, 4, n_patterns)) + 0.1
        clv1, s1 = kernel.newview(P, a, None, P, b, None)
        tiny = a * 1e-120  # forces a rescale
        clv2, s2 = kernel.newview(P, tiny, None, P, b, None)
        log1 = np.log(clv1.reshape(-1, n_patterns)) + s1[None, :]
        log2 = np.log(clv2.reshape(-1, n_patterns)) + s2[None, :]
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
        zero = np.zeros((1, 4, 2))
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
        clv_i = rng.random((n_cats, 4, n_patterns)) + 0.05
        clv_j = rng.random((n_cats, 4, n_patterns)) + 0.05
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
        clv_i = rng.random((n_cats, 4, n_patterns)) + 0.05
        clv_j = rng.random((n_cats, 4, n_patterns)) + 0.05
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
        """The sumtable's d/dt agrees with finite differences of the log
        likelihood ``evaluate_edge`` computes on the same edge."""
        model, n_patterns, n_cats, seed = setup
        rng = np.random.default_rng(seed)
        eigen = model.eigen()
        rates = np.linspace(0.5, 1.5, n_cats)
        cat_w = np.full(n_cats, 1.0 / n_cats)
        clv_i = rng.random((n_cats, 4, n_patterns)) + 0.05
        clv_j = rng.random((n_cats, 4, n_patterns)) + 0.05
        st_table = kernel.sumtable(eigen, clv_i, clv_j)
        w = np.ones(n_patterns)
        d1, _ = kernel.derivatives_from_sumtable(
            eigen, st_table, t, rates, cat_w, w
        )

        def logl(length):
            p = kernel.pmatrices(eigen, length, rates)
            return kernel.evaluate_edge(p, clv_i, None, clv_j, None,
                                        model.frequencies, cat_w, w)[0]

        h = 1e-7
        assert d1 == pytest.approx((logl(t + h) - logl(t - h)) / (2 * h),
                                   rel=1e-4, abs=1e-4)


# --------------------------------------------------------------------- #
# a tip on either side, against the einsum oracle
# --------------------------------------------------------------------- #
@st.composite
def tip_edge(draw):
    """An edge with a tip (ambiguity codes included) on side ``i`` or ``j``
    and a CLV on the other, under Γ-like categories or PSR."""
    model, n_patterns, n_cats, seed = draw(random_setup())
    psr = draw(st.booleans())
    side = draw(st.sampled_from("ij"))
    chars = draw(st.text("ACGTRN-", min_size=n_patterns, max_size=n_patterns))
    t = draw(st.floats(0.001, 2.0))
    rng = np.random.default_rng(seed)
    if psr:
        n_cats, rates, cat_w = 1, rng.uniform(0.2, 3.0, n_patterns), None
    else:
        rates = np.linspace(0.5, 1.5, n_cats)
        cat_w = np.full(n_cats, 1.0 / n_cats)
    tip = DNA.tip_vectors(DNA.encode(chars)).T  # (states, patterns)
    clv = rng.random((n_cats, 4, n_patterns)) + 0.05
    clv_i, clv_j = (tip, clv) if side == "i" else (clv, tip)
    return (model, t, rates, cat_w, psr, clv_i, clv_j,
            rng.uniform(0.5, 3.0, n_patterns))


def _oracle_layout(x: np.ndarray) -> np.ndarray:
    """Patterns last -> patterns first (the oracle's layout)."""
    return np.moveaxis(x, -1, 0)


class TestTipsAgainstOracle:
    @given(tip_edge())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_sumtable_and_derivatives(self, edge):
        model, t, rates, cat_w, psr, clv_i, clv_j, w = edge
        eigen = model.eigen()
        ref_i, ref_j = _oracle_layout(clv_i), _oracle_layout(clv_j)
        p = kernel.pmatrices(eigen, t, rates)
        total, site = kernel.evaluate_edge(p, clv_i, None, clv_j, None,
                                           model.frequencies, cat_w, w,
                                           site_specific=psr)
        ref_total, ref_site = oracle.evaluate_edge(
            p, ref_i, None, ref_j, None, model.frequencies, cat_w, w,
            site_specific=psr)
        assert np.allclose(site, ref_site, rtol=1e-12, atol=0)
        assert total == pytest.approx(ref_total, rel=1e-12)

        table = kernel.sumtable(eigen, clv_i, clv_j)
        ref_table = oracle.sumtable(eigen, ref_i, ref_j)
        assert np.allclose(_oracle_layout(table), ref_table,
                           rtol=1e-12, atol=1e-14)
        d1, d2 = kernel.derivatives_from_sumtable(eigen, table, t, rates,
                                                  cat_w, w)
        _, ref_d1, ref_d2 = oracle.derivatives_from_sumtable(
            eigen, ref_table, t, rates, cat_w, w)
        assert np.allclose(d1, ref_d1, rtol=1e-10, atol=1e-12 * w.sum())
        assert np.allclose(d2, ref_d2, rtol=1e-10, atol=1e-11 * w.sum())

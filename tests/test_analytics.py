import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from scipy.special import gammainc
from hypothesis import given, settings
from hypothesis import strategies as st

from chasescape import InitMode, ParameterError, exact_distribution_W
from chasescape.analytics import (
    chi_square_gof,
    conversion_growth_limit,
    expected_excess_closed,
    expected_excess_quadrature,
    expected_white_limit,
    extinction_limit,
    prob_gamma_less_exp_closed,
    prob_gamma_less_exp_quadrature,
    stats_ks,
    stats_ks_two_sample,
    stats_wilson_ci,
)

ALPHA_GRID = (0.1, 0.3, 1.0, 2.0, 2.5, 4.0, 8.0)


class TestClosedForms:
    def test_regime_trichotomy_is_exact(self):
        # no tolerance band around lambda = 1: each regime keeps its own limit
        assert extinction_limit(0.999999999, 1.0) == 0.0
        assert extinction_limit(1.0, 1.0) == 0.5
        assert extinction_limit(1.000000001, 1.0) == 1.0

    def test_extinction_limit(self):
        assert extinction_limit(0.5, 3.0) == 0.0
        assert extinction_limit(1.0, 1.0) == 0.5
        assert extinction_limit(1.0, 3.0) == 0.125
        assert extinction_limit(2.0, 0.1) == 1.0

    def test_expected_white_limit(self):
        assert expected_white_limit(1.0) == 2.0
        assert expected_white_limit(3.0) == 6.0
        assert expected_white_limit(0.5) == 1.0

    def test_conversion_growth_limit(self):
        assert conversion_growth_limit(4.0) == 4.0
        assert conversion_growth_limit(0.1) == 0.1

    def test_gamma_vs_exp_closed(self):
        assert prob_gamma_less_exp_closed(1.0) == 0.5
        assert prob_gamma_less_exp_closed(2.0) == 0.25
        assert prob_gamma_less_exp_closed(0.5) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_expected_excess_closed(self):
        assert expected_excess_closed(1.0) == 0.5
        assert expected_excess_closed(2.0) == 1.25
        assert expected_excess_closed(1e-9) == pytest.approx(0.0, abs=1e-8)


class TestQuadratureOracles:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_gamma_vs_exp_matches_closed_form(self, alpha):
        assert abs(
            prob_gamma_less_exp_quadrature(alpha) - prob_gamma_less_exp_closed(alpha)
        ) < 1e-8

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_excess_matches_closed_form(self, alpha):
        assert abs(expected_excess_quadrature(alpha) - expected_excess_closed(alpha)) < 1e-8

    def test_quadrature_would_catch_a_broken_closed_form(self):
        # fault injection: a wrong constant must trip the cross-check
        broken = 2.0 ** -(3.7 * 1.01)
        assert abs(prob_gamma_less_exp_quadrature(3.7) - broken) > 1e-8


class TestRegularizedGamma:
    """stats_ks against the Gamma(a, 1) CDF as criterion 2 passes it:
    scipy's gammainc(a, .), called once on the sorted sample array."""

    @pytest.mark.parametrize("a", (0.3, 1.0, 2.5, 7.0, 30.0))
    @pytest.mark.parametrize("x", (0.01, 0.5, 1.0, 3.0, 10.0, 40.0))
    def test_matches_scipy(self, a, x):
        # pins the (shape, x) argument order against scipy's own Gamma KS test
        samples = x * np.array([0.25, 0.5, 1.0, 1.5, 2.0])
        mine = stats_ks(samples, lambda xs: gammainc(a, xs))
        ref = scipy.stats.kstest(samples, scipy.stats.gamma(a).cdf).statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0, 3.5))
    @pytest.mark.parametrize("x", (0.2, 1.0, 2.5, 6.0))
    def test_cdf_matches_density_quadrature(self, alpha, x):
        # one sample at x: the statistic is max(F(x), 1 - F(x)); tanh-sinh
        # quadrature absorbs the density's endpoint singularity for alpha < 1
        density = lambda t: mpmath.power(t, alpha - 1) * mpmath.exp(-t) / mpmath.gamma(alpha)
        grid = float(mpmath.quad(density, [0, x]))
        assert abs(stats_ks([x], lambda xs: gammainc(alpha, xs)) - max(grid, 1.0 - grid)) < 1e-9

    def test_boundaries(self):
        # F(0) = 0, so samples all at zero sit a full step from the CDF
        assert stats_ks([0.0], lambda xs: gammainc(2.0, xs)) == 1.0
        assert stats_ks([0.0] * 4, lambda xs: gammainc(2.0, xs)) == 1.0

    def test_validation(self):
        # gammainc answers nan for a bad shape or a negative x; stats_ks
        # refuses that and any non-finite sample
        for x, shape in ((2.0, -1.0), (2.0, math.nan), (-1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0)):
            with pytest.raises(ParameterError):
                stats_ks([x], lambda xs: gammainc(shape, xs))


class TestExactDistribution:
    def test_two_vertex_hand_enumeration(self):
        dist = exact_distribution_W(1, 1.0, 1.0)
        assert dist.probabilities == pytest.approx([0.5, 0.5], abs=1e-15)
        assert dist.expected_w == pytest.approx(0.5, abs=1e-15)
        assert dist.expected_c == pytest.approx(1.25, abs=1e-15)
        assert dist.extinction_probability == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "n,lam,alpha", [(10, 1.0, 1.0), (100, 1.0, 4.0), (50, 2.0, 0.5), (37, 0.3, 2.2)]
    )
    def test_instant_conversion_term(self, n, lam, alpha):
        dist = exact_distribution_W(n, lam, alpha)
        assert abs(dist.probabilities[n] - alpha / (lam * n + alpha)) < 1e-12

    def test_kortchemski_equivalence_at_alpha_one(self):
        standard = exact_distribution_W(50, 1.0, 1.0)
        kortchemski = exact_distribution_W(50, 1.0, 0.0, InitMode.KORTCHEMSKI)
        assert np.max(np.abs(standard.probabilities - kortchemski.probabilities)) < 1e-12

    @pytest.mark.parametrize(
        "n,lam,alpha,mode",
        [
            (1, 1.0, 1.0, InitMode.STANDARD),
            (50, 1.0, 2.0, InitMode.STANDARD),
            (200, 0.5, 0.3, InitMode.STANDARD),
            (80, 2.0, 5.0, InitMode.STANDARD),
            (50, 1.0, 0.0, InitMode.KORTCHEMSKI),
            (30, 1.7, 0.0, InitMode.KORTCHEMSKI),
        ],
    )
    def test_normalization(self, n, lam, alpha, mode):
        dist = exact_distribution_W(n, lam, alpha, mode)
        assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-12
        assert np.all(dist.probabilities >= 0)
        assert dist.extinction_probability == dist.probabilities[0]
        assert dist.expected_w == pytest.approx(
            float(np.arange(n + 1) @ dist.probabilities), abs=1e-12
        )

    def test_rejects_oversized_and_invalid(self):
        with pytest.raises(ParameterError):
            exact_distribution_W(5001, 1.0, 1.0)
        with pytest.raises(ParameterError):
            exact_distribution_W(10, 1.0, 0.0)  # standard mode needs alpha > 0
        with pytest.raises(ParameterError):
            exact_distribution_W(10, -1.0, 1.0)


class TestWilsonCI:
    def test_zero_successes(self):
        lo, hi = stats_wilson_ci(0, 100)
        assert lo == 0.0  # interval must contain the point estimate 0
        assert hi == pytest.approx(0.037, abs=0.002)

    def test_symmetric_at_half(self):
        lo, hi = stats_wilson_ci(50, 100)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)
        assert lo < 0.5 < hi

    def test_all_successes(self):
        lo, hi = stats_wilson_ci(100, 100)
        assert hi == 1.0
        assert lo < 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            stats_wilson_ci(5, 0)
        with pytest.raises(ParameterError):
            stats_wilson_ci(11, 10)


@given(trials=st.integers(1, 10000), frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_wilson_interval_brackets_the_point_estimate(trials, frac):
    successes = min(trials, int(frac * trials))
    lo, hi = stats_wilson_ci(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


class TestKolmogorovSmirnov:
    def test_null_distribution_small_statistic(self):
        rng = np.random.default_rng(123)
        samples = rng.random(10**5)
        assert stats_ks(samples, lambda xs: np.clip(xs, 0.0, 1.0)) < 0.006

    def test_constant_samples_vs_continuous_cdf(self):
        assert stats_ks([2.0] * 50, lambda xs: -np.expm1(-xs)) >= 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        samples = list(rng.exponential(size=200))
        cdf = lambda xs: -np.expm1(-xs)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert stats_ks(samples, cdf) == stats_ks(shuffled, cdf)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            stats_ks([], lambda xs: xs)

    def test_matches_scipy_one_sample(self):
        rng = np.random.default_rng(9)
        samples = rng.exponential(size=777)
        mine = stats_ks(samples, lambda xs: -np.expm1(-xs))
        ref = scipy.stats.kstest(samples, scipy.stats.expon.cdf).statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_matches_scipy_two_sample(self):
        rng = np.random.default_rng(10)
        a = rng.exponential(size=500)
        b = rng.exponential(size=700) * 1.2
        assert stats_ks_two_sample(a, b) == pytest.approx(
            scipy.stats.ks_2samp(a, b).statistic, abs=1e-12
        )


class TestChiSquare:
    def test_pvalue_matches_scipy(self):
        observed = [30, 50, 20, 10, 5]
        probs = [0.3, 0.4, 0.15, 0.1, 0.05]
        res = chi_square_gof(observed, probs, min_expected=0.0)
        expected = np.array(probs) * 115
        ref_stat = float(np.sum((np.array(observed) - expected) ** 2 / expected))
        assert res.statistic == pytest.approx(ref_stat, abs=1e-12)
        assert res.pvalue == pytest.approx(
            float(scipy.stats.chi2.sf(ref_stat, res.dof)), abs=1e-10
        )

    def test_pools_sparse_bins(self):
        observed = [500, 480, 15, 3, 1, 1]
        probs = [0.5, 0.48, 0.012, 0.004, 0.002, 0.002]
        res = chi_square_gof(observed, probs, min_expected=5.0)
        assert res.dof + 1 < len(observed)
        assert res.pvalue > 0.001

    def test_detects_wrong_distribution(self):
        observed = [900, 100]
        probs = [0.5, 0.5]
        assert chi_square_gof(observed, probs, min_expected=0.0).pvalue < 1e-10

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            chi_square_gof([3], [1.0])
        with pytest.raises(ParameterError):
            chi_square_gof([0, 0], [0.5, 0.5])

import hashlib
import math
import mpmath
import numpy as np
import pytest
import scipy.integrate
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
    stats_wilson_ci,
)
from chasescape.params import MAX_RATE, MIN_RATE, Params, QuadratureError

ALPHA_GRID = (0.1, 0.3, 1.0, 2.0, 2.5, 4.0, 8.0)

# the exact DP's output recorded to the bit on a grid of both init modes,
# small to capped n, lambda != 1 and both rate-bound corners: the SHA-256 of
# probabilities.tobytes() (little-endian float64) and the float.hex() of
# expected_w, expected_c, extinction_probability, expected_tau and
# expected_tau_coupling
DP_PINS = [
    (
        (1, 1.0, 2.0, InitMode.STANDARD),
        "ecf29fdb23d55a7613c1cdbdac8b54a853e86b59614d7d92983996f051986379",
        (
            "0x1.5555555555555p-1", "0x1.38e38e38e38e4p+0", "0x1.5555555555555p-2",
            "0x1.0e38e38e38e38p-1", "0x1.38e38e38e38e4p-1",
        ),
    ),
    (
        (2, 1.0, 0.5, InitMode.STANDARD),
        "4f27e4954df6e3e0177c6bbc3b62591d72f76e0f9d21373a34094bb3d256091a",
        (
            "0x1.1eb851eb851ecp-1", "0x1.6508dfea27984p+0", "0x1.47ae147ae147bp-1",
            "0x1.992517702f54fp+0", "0x1.6508dfea27984p+1",
        ),
    ),
    (
        (50, 1.0, 2.0, InitMode.STANDARD),
        "e03198cbb4095df3a20a4135ddaaf95e9def3f3712fc22a4ac4e6a49b0cf9bb5",
        (
            "0x1.fc033d32e43c7p+1", "0x1.b025c138d95cap+2", "0x1.fa9bba0b698d2p-3",
            "0x1.ecde34ec7932dp-3", "0x1.b025c138d95c8p+1",
        ),
    ),
    (
        (50, 1.0, 0.0, InitMode.KORTCHEMSKI),
        "e322194858497e34142612e89c56ab4b179c4d101cf2d1a94a4d306dc7f3a798",
        (
            "0x1.006608bd992c1p+1", "0x0.0p+0", "0x1.fad23d652e178p-2",
            "0x1.0ccd159bcd475p-2", "0x1.1b5d36b3ab369p+2",
        ),
    ),
    (
        (300, 1.0, 4.0, InitMode.STANDARD),
        "d0773bf398d3e68cd66749d412fdba5f16c5f21ea9efb8031282a40cf88437e0",
        (
            "0x1.fd79cddc63c60p+2", "0x1.192936c21a37bp+4", "0x1.00d4cd5f8907dp-4",
            "0x1.cd383610b6647p-5", "0x1.192936c21a37ep+2",
        ),
    ),
    (
        (400, 2.0, 0.5, InitMode.STANDARD),
        "b3caab76595b2a4868255b28d2724896ccba799c3f0d0948213ea9618213011b",
        (
            "0x1.023a3cae7a98bp-2", "0x1.fd0a1258b877fp+1", "0x1.febcc5149c7ffp-1",
            "0x1.6b700471a0d0cp-5", "0x1.fd0a1258b8781p+2",
        ),
    ),
    (
        (700, 0.5, 1.0, InitMode.STANDARD),
        "2cb0c6ed1179ba5d602439f76d46618f7a710ea4f721487384f80ac3d727e9c4",
        (
            "0x1.9debd5f2f132fp+4", "0x1.c4fef37e26025p+2", "0x1.71c3f2d8091b0p-9",
            "0x1.5031e73383782p-5", "0x1.c4fef37e2602fp+2",
        ),
    ),
    (
        (1600, 1.0, 0.0, InitMode.KORTCHEMSKI),
        "14abb5db7111b3a85b1215ba01af248186a3a783ec4696bdae11cee64d340f82",
        (
            "0x1.000013c8e809dp+1", "0x0.0p+0", "0x1.ffd706f328ccep-2",
            "0x1.e867463261ca3p-7", "0x1.fcdc27ef1641cp+2",
        ),
    ),
    (
        (5000, 1.0, 2.0, InitMode.STANDARD),
        "d4fe2ef6957538f3d2a4c166b86451f346e96a9067411526c5125c7d7d9a1edb",
        (
            "0x1.fff2e9f01a37fp+1", "0x1.02ed536ac3c8bp+4", "0x1.fff2e2e0d4326p-3",
            "0x1.58688790b3e2ep-8", "0x1.02ed536ac3c86p+3",
        ),
    ),
    (
        (30, MAX_RATE, MIN_RATE, InitMode.STANDARD),
        "9b8fe2749c063cf0d50c0953ff7608283004cb39360ffc55d37de0869934d8d5",
        (
            "0x1.87e92154ef7adp-665", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.2e0b2bb7045aap+327", "0x1.249ad2594c37dp+332",
        ),
    ),
    (
        (30, MIN_RATE, MAX_RATE, InitMode.STANDARD),
        "f54d4c4873d52934ec0c5d8aa9f9e6274ba8f03e6c3732f947d641edbf63dd71",
        (
            "0x1.e000000000000p+4", "0x1.0000000000000p+0", "0x0.0p+0",
            "0x1.bff2ee48e0530p-333", "0x1.bff2ee48e0530p-333",
        ),
    ),
]


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

    @pytest.mark.parametrize("value, abserr", [(0.5, 1.0), (math.nan, 0.0)], ids=["error", "nan"])
    def test_an_unconverged_quadrature_raises(self, value, abserr, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (value, abserr, {}))
        with pytest.raises(QuadratureError, match="quadrature failed"):
            prob_gamma_less_exp_quadrature(2.0)

    def test_quadrature_would_catch_a_broken_closed_form(self):
        # fault injection: a wrong constant must trip the cross-check
        broken = 2.0 ** -(3.7 * 1.01)
        assert abs(prob_gamma_less_exp_quadrature(3.7) - broken) > 1e-8


def _ks_gamma(samples, a):
    """Criterion 2's one-sample KS statistic against Gamma(a, 1)."""
    return scipy.stats.ks_1samp(samples, lambda xs: gammainc(a, xs), method="asymp").statistic


class TestRegularizedGamma:
    """ks_1samp against the Gamma(a, 1) CDF as criterion 2 passes it:
    scipy's gammainc(a, .), called once on the sorted sample array."""

    @pytest.mark.parametrize("a", (0.3, 1.0, 2.5, 7.0, 30.0))
    @pytest.mark.parametrize("x", (0.01, 0.5, 1.0, 3.0, 10.0, 40.0))
    def test_matches_scipy(self, a, x):
        # pins the (shape, x) argument order against scipy's own Gamma KS test
        samples = x * np.array([0.25, 0.5, 1.0, 1.5, 2.0])
        mine = _ks_gamma(samples, a)
        ref = scipy.stats.kstest(samples, scipy.stats.gamma(a).cdf).statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0, 3.5))
    @pytest.mark.parametrize("x", (0.2, 1.0, 2.5, 6.0))
    def test_cdf_matches_density_quadrature(self, alpha, x):
        # one sample at x: the statistic is max(F(x), 1 - F(x)); tanh-sinh
        # quadrature absorbs the density's endpoint singularity for alpha < 1
        density = lambda t: mpmath.power(t, alpha - 1) * mpmath.exp(-t) / mpmath.gamma(alpha)
        grid = float(mpmath.quad(density, [0, x]))
        assert abs(_ks_gamma([x], alpha) - max(grid, 1.0 - grid)) < 1e-9


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

    @pytest.mark.parametrize(
        "n,lam,alpha,mode",
        [
            (1, 1.0, 2.0, InitMode.STANDARD),
            (10, 1.0, 1.0, InitMode.STANDARD),
            (50, 1.0, 2.0, InitMode.STANDARD),
            (200, 0.5, 3.0, InitMode.STANDARD),
            (400, 2.0, 0.5, InitMode.STANDARD),
            (1000, 1.0, 2.0, InitMode.STANDARD),
            (1000, 1.0, 4.0, InitMode.STANDARD),
            (5000, 1.0, 4.0, InitMode.STANDARD),
            (50, 1.0, 0.0, InitMode.KORTCHEMSKI),
        ],
    )
    def test_expected_c_is_a_mixture_over_w_of_the_conversion_flags(self, n, lam, alpha, mode):
        # a run with W = w makes m = r0 + n - w red decreases, and decrease i
        # converts with probability a / (b0 + i + a) whatever the path, so
        # E[C | W = w] = h(m) = sum_{i<m} a / (b0 + i + a), 0 when a = 0
        params = Params(n, lam, alpha, mode)
        r0, b0 = params.initial_red_blue
        a = params.conversion_rate
        h = np.concatenate(([0.0], np.cumsum(a / (b0 + np.arange(r0 + n) + a))))
        dist = exact_distribution_W(n, lam, alpha, mode)
        mixture = float(dist.probabilities @ h[r0 + n - np.arange(n + 1)])
        assert mixture == pytest.approx(dist.expected_c, rel=1e-12)

    def test_kortchemski_mode_never_converts(self):
        assert exact_distribution_W(50, 1.0, 0.0, InitMode.KORTCHEMSKI).expected_c == 0.0

    @pytest.mark.parametrize("case,digest,scalars", DP_PINS)
    def test_output_is_pinned_to_the_bit(self, case, digest, scalars):
        dist = exact_distribution_W(*case)
        assert hashlib.sha256(dist.probabilities.tobytes()).hexdigest() == digest
        assert tuple(float(x).hex() for x in (
            dist.expected_w, dist.expected_c, dist.extinction_probability, dist.expected_tau,
            dist.expected_tau_coupling,
        )) == scalars

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


class TestChiSquare:
    def test_pvalue_matches_scipy(self):
        observed = [30, 50, 20, 10, 5]
        probs = [0.3, 0.4, 0.15, 0.1, 0.05]
        res = chi_square_gof(observed, probs)
        expected = np.array(probs) * 115
        ref_stat = float(np.sum((np.array(observed) - expected) ** 2 / expected))
        assert res.statistic == pytest.approx(ref_stat, abs=1e-12)
        assert res.pvalue == pytest.approx(
            float(scipy.stats.chi2.sf(ref_stat, res.dof)), abs=1e-10
        )

    def test_pools_sparse_bins(self):
        observed = [500, 480, 15, 3, 1, 1]
        probs = [0.5, 0.48, 0.012, 0.004, 0.002, 0.002]
        res = chi_square_gof(observed, probs)
        assert res.dof + 1 < len(observed)
        assert res.pvalue > 0.001

    def test_detects_wrong_distribution(self):
        observed = [900, 100]
        probs = [0.5, 0.5]
        assert chi_square_gof(observed, probs).pvalue < 1e-10

    @pytest.mark.parametrize(
        "observed, probs",
        [
            # alone past the last group, pooled into a group, and first
            ([10, 10, 5], [0.5, 0.5, 0.0]),
            ([10, 1, 10], [0.5, 0.0, 0.5]),
            ([1, 30, 30], [0.0, 0.5, 0.5]),
        ],
    )
    def test_observation_the_law_forbids_fails(self, observed, probs):
        res = chi_square_gof(observed, probs)
        assert (res.statistic, res.pvalue) == (math.inf, 0.0)

    def test_empty_zero_probability_bin_changes_nothing(self):
        observed, probs = [30, 50, 20, 10, 5], [0.3, 0.4, 0.15, 0.1, 0.05]
        with_empty_bin = chi_square_gof([*observed, 0], [*probs, 0.0])
        assert with_empty_bin == chi_square_gof(observed, probs)

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            chi_square_gof([3], [1.0])
        with pytest.raises(ParameterError):
            chi_square_gof([0, 0], [0.5, 0.5])
        for observed, probs in (([1, 2, 3], [0.5, 0.5]), ([[1, 2]], [[0.5, 0.5]])):
            with pytest.raises(ParameterError, match="1-d and the same length"):
                chi_square_gof(observed, probs)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import ks_1samp, ks_2samp

from chasescape import (
    InitMode,
    ParameterError,
    Params,
    ResourceLimitError,
    exact_distribution_W,
    make_rng,
    run_coupling,
    stream_seed,
)
from chasescape.analytics import chi_square_gof
from chasescape.birth_death import (
    MAX_COUPLING_UNIFORMS,
    coupling_block,
    sample_limit_sum,
    sample_terminal_gamma_process,
    simulate_birth_times,
    simulate_death_times,
)
from chasescape.params import MAX_N
from chasescape.rng import stream_seeds


def _mean_within_3se(values, target):
    values = np.asarray(values, dtype=np.float64)
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - target) <= 3 * se


class TestDeathTimes:
    def test_single_individual_is_exponential(self):
        lam = 2.0
        rng = make_rng(stream_seed(31, 0))
        draws = [simulate_death_times(1, lam, rng)[0] for _ in range(30000)]
        assert _mean_within_3se(draws, 1.0 / lam)

    def test_last_death_mean_is_harmonic(self):
        n, lam = 10, 1.5
        harmonic = sum(1.0 / k for k in range(1, n + 1))
        rng = make_rng(stream_seed(31, 1))
        draws = [simulate_death_times(n, lam, rng)[-1] for _ in range(20000)]
        assert _mean_within_3se(draws, harmonic / lam)

    def test_spacing_means(self):
        # delta(i+1) - delta(i) has mean 1 / (lambda (n - i))
        n, lam = 8, 1.3
        rng = make_rng(stream_seed(31, 5))
        times = np.array([simulate_death_times(n, lam, rng) for _ in range(20000)])
        for i in (0, 3, 6):
            assert _mean_within_3se(times[:, i + 1] - times[:, i], 1.0 / (lam * (n - i - 1)))

    def test_reversed_process_spacings(self):
        # delta(n) - delta(n-i) has mean sum_{k<=i} 1/(lambda k)
        n, lam = 8, 1.0
        rng = make_rng(stream_seed(31, 2))
        gaps = np.array([simulate_death_times(n, lam, rng) for _ in range(20000)])
        for i in (1, 3, 5):
            expected = sum(1.0 / k for k in range(1, i + 1)) / lam
            assert _mean_within_3se(gaps[:, -1] - gaps[:, -1 - i], expected)

    def test_determinism_and_monotone(self):
        a = simulate_death_times(50, 0.7, make_rng(5))
        b = simulate_death_times(50, 0.7, make_rng(5))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            simulate_death_times(0, 1.0, make_rng(0))
        with pytest.raises(ParameterError):
            simulate_death_times(3, -1.0, make_rng(0))


@given(n=st.integers(1, 60), lam=st.floats(0.1, 10.0), seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_death_times_strictly_increasing(n, lam, seed):
    times = simulate_death_times(n, lam, make_rng(seed))
    assert np.all(np.diff(times) > 0) if n > 1 else times[0] > 0


@given(alpha=st.floats(0.05, 20.0), k=st.integers(1, 60), seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_birth_times_strictly_increasing(alpha, k, seed):
    times, flags = simulate_birth_times(alpha, k, make_rng(seed))
    assert np.all(np.diff(times) > 0) if k > 1 else times[0] > 0
    assert flags.shape == times.shape


class TestBirthTimes:
    def test_first_jump_always_defective(self):
        for seed in range(50):
            _, flags = simulate_birth_times(0.8, 5, make_rng(seed))
            assert bool(flags[0])

    def test_first_spacing_is_exp_alpha(self):
        alpha = 0.5
        rng = make_rng(stream_seed(32, 0))
        draws = [simulate_birth_times(alpha, 1, rng)[0][0] for _ in range(30000)]
        assert _mean_within_3se(draws, 1.0 / alpha)

    def test_alpha_one_matches_pure_birth_from_two(self):
        # spacings Exp(i+1): jump k has mean sum_{i<k} 1/(i+1)
        rng = make_rng(stream_seed(32, 1))
        k = 6
        times = np.array([simulate_birth_times(1.0, k, rng)[0] for _ in range(20000)])
        expected = sum(1.0 / (i + 1) for i in range(k))
        assert _mean_within_3se(times[:, -1], expected)

    def test_expected_defective_count(self):
        alpha, k = 1.5, 12
        expected = sum(alpha / (i + alpha) for i in range(k))
        rng = make_rng(stream_seed(32, 2))
        counts = [
            simulate_birth_times(alpha, k, rng)[1].sum() for _ in range(20000)
        ]
        assert _mean_within_3se(counts, expected)

    def test_validation(self):
        with pytest.raises(ParameterError):
            simulate_birth_times(0.0, 3, make_rng(0))
        with pytest.raises(ParameterError):
            simulate_birth_times(1.0, 0, make_rng(0))


class TestCoupling:
    def test_instant_conversion_probability(self):
        # P(W = n) = alpha / (lambda n + alpha): beta(1) vs delta(1) race
        n, lam, alpha = 40, 2.0, 1.0
        target = alpha / (lam * n + alpha)
        trials = 40000
        w, _, _ = coupling_block(Params(n, lam, alpha), stream_seeds(33, 0, trials))
        hits = int(np.count_nonzero(w == n))
        se = math.sqrt(target * (1 - target) / trials)
        assert abs(hits / trials - target) <= 3 * se

    def test_joint_law_matches_exact_oracle(self):
        # chi-square on the W marginal plus a 3-se check on E[C]
        n, lam, alpha = 30, 1.0, 1.5
        trials = 10**5
        exact = exact_distribution_W(n, lam, alpha)
        # the block draws trial i from make_rng(stream_seed(34, i)), as
        # run_coupling would
        w, conversions, _ = coupling_block(Params(n, lam, alpha), stream_seeds(34, 0, trials))
        counts = np.bincount(w, minlength=n + 1)
        chi = chi_square_gof(counts, exact.probabilities)
        assert chi.pvalue > 0.001
        assert _mean_within_3se(conversions, exact.expected_c)

    def test_result_sanity(self):
        for i in range(200):
            res = run_coupling(Params(25, 1.0, 2.0), make_rng(stream_seed(35, i)))
            assert 0 <= res.white_survivors <= 25
            assert res.white_survivors + res.blue_total == 26
            assert res.conversions <= res.jump_count
            assert res.fixation_time > 0

    def test_determinism(self):
        p = Params(30, 1.0, 1.0)
        assert run_coupling(p, make_rng(8)) == run_coupling(p, make_rng(8))

    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize(
        "n, lam, alpha", [(1, 1.0, 2.0), (2, 0.5, 1.0), (7, 2.0, 0.3), (60, 1.0, 4.0)]
    )
    def test_matches_event_by_event_replay(self, n, lam, alpha, mode):
        # reference: walk the merged death/birth streams one event at a time
        params = Params(n, lam, alpha, mode)
        kortchemski = mode is InitMode.KORTCHEMSKI
        for seed in range(150):
            rng = make_rng(stream_seed(39, seed))
            delta = simulate_death_times(n, lam, rng)
            births, flags = simulate_birth_times(1.0 if kortchemski else alpha, n + 1, rng)
            red, deaths, m = 1, 0, 0
            while red > 0:
                if deaths < n and delta[deaths] < births[m]:
                    red, deaths = red + 1, deaths + 1
                else:  # a tie goes to the birth
                    red, m = red - 1, m + 1
            conversions = 0 if kortchemski else int(flags[:m].sum())
            res = run_coupling(params, make_rng(stream_seed(39, seed)))
            assert res.white_survivors == n - deaths
            assert res.conversions == conversions
            assert res.fixation_time == births[m - 1]
            assert res.jump_count == deaths + m

    def test_standard_start_draws_3n_plus_2_uniforms(self):
        # n deaths, then n + 1 birth spacings, then n + 1 defective flags
        n = 30
        for seed in range(5):
            stream = make_rng(seed).random(3 * n + 3)
            rng = make_rng(seed)
            run_coupling(Params(n, 1.0, 1.5), rng)
            assert rng.random() == stream[3 * n + 2]

    def test_n_at_max_n_is_refused_before_allocating(self):
        # 3 * MAX_N + 2 doubles would be 2.4 GB
        params = Params(MAX_N, 1.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                run_coupling(params, make_rng(0))
            with pytest.raises(ResourceLimitError):
                coupling_block(params, stream_seeds(0, 0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_trial_at_the_cap_peaks_under_2_5_rows(self):
        # the largest accepted n: the row of 3n + 2 doubles is 32 MiB, and the
        # kernel adds one rate vector and one scratch buffer of 2n + 1 doubles
        n = (MAX_COUPLING_UNIFORMS - 2) // 3
        params = Params(n, 1.0, 2.0)
        tracemalloc.start()
        try:
            coupling_block(params, stream_seeds(0, 0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * MAX_COUPLING_UNIFORMS

    def test_kortchemski_coupling_matches_oracle(self):
        n = 20
        trials = 40000
        exact = exact_distribution_W(n, 1.0, 0.0, InitMode.KORTCHEMSKI)
        params = Params(n, 1.0, 0.0, InitMode.KORTCHEMSKI)
        w, c, _ = coupling_block(params, stream_seeds(36, 0, trials))
        assert not c.any()
        counts = np.bincount(w, minlength=n + 1)
        chi = chi_square_gof(counts, exact.probabilities)
        assert chi.pvalue > 0.001


class TestTerminalSamplers:
    def test_gamma_direct_mean_and_laplace(self):
        alpha = 2.5
        rng = make_rng(stream_seed(37, 1))
        draws = rng.standard_gamma(alpha, size=50000)
        assert _mean_within_3se(draws, alpha)
        assert _mean_within_3se(np.exp(-draws), 2.0**-alpha)

    def test_gamma_direct_alpha_one_is_exponential(self):
        rng = make_rng(stream_seed(37, 2))
        draws = rng.standard_gamma(1.0, size=30000)
        assert ks_1samp(draws, lambda xs: -np.expm1(-xs), method="asymp").statistic < 0.012

    def test_gamma_direct_small_alpha(self):
        rng = make_rng(stream_seed(37, 3))
        draws = rng.standard_gamma(0.4, size=30000)
        assert _mean_within_3se(draws, 0.4)
        assert ks_1samp(draws, lambda xs: gammainc(0.4, xs), method="asymp").statistic < 0.012

    def test_process_horizon_zero_is_exactly_one(self):
        assert sample_terminal_gamma_process(3.0, 0.0, make_rng(0)) == 1.0

    def test_process_mean_formula(self):
        # E[e^{-t} B_t] = alpha + (1 - alpha) e^{-t}
        alpha, t = 1.5, 4.0
        rng = make_rng(stream_seed(37, 4))
        draws = np.array(
            [sample_terminal_gamma_process(alpha, t, rng) for _ in range(50000)]
        )
        assert _mean_within_3se(draws, alpha + (1.0 - alpha) * math.exp(-t))

    def test_process_matches_jump_by_jump_simulation(self):
        # oracle: count the explicit jump times below the horizon
        alpha, t, trials = 1.5, 3.0, 30000
        rng = make_rng(stream_seed(37, 5))
        clan = np.array(
            [sample_terminal_gamma_process(alpha, t, rng) for _ in range(trials)]
        )
        rng = make_rng(stream_seed(37, 6))
        explicit = np.empty(trials)
        # 400 jumps is ~20x the mean count at t=3; the truncated tail mass
        # is ~4e-9, far below KS resolution at this sample size
        for i in range(trials):
            times, _ = simulate_birth_times(alpha, 400, rng)
            explicit[i] = math.exp(-t) * (1 + int(np.searchsorted(times, t)))
        assert ks_2samp(clan, explicit, method="asymp").statistic < 0.015

    def test_process_respects_population_cap(self):
        with pytest.raises(ResourceLimitError):
            sample_terminal_gamma_process(2.0, 50.0, make_rng(0))

    def test_limit_sum_no_points_is_zero(self):
        # Poisson(alpha * T) with a tiny intensity: the empty-sum branch
        assert sample_limit_sum(1e-12, 1.0, make_rng(0)) == 0.0

    def test_limit_sum_laplace_transform(self):
        # E[e^{-X}] = (1 + 1)^{-alpha}
        alpha = 2.0
        rng = make_rng(stream_seed(37, 7))
        draws = np.array([sample_limit_sum(alpha, 40.0, rng) for _ in range(50000)])
        assert _mean_within_3se(np.exp(-draws), 0.25)

    def test_limit_sum_matches_direct_gamma(self):
        alpha, trials = 1.5, 50000
        rng = make_rng(stream_seed(37, 8))
        sums = np.array([sample_limit_sum(alpha, 40.0, rng) for _ in range(trials)])
        direct = rng.standard_gamma(alpha, size=trials)
        assert ks_2samp(sums, direct, method="asymp").statistic < 0.012

    def test_all_three_gamma_routes_agree_pairwise(self):
        # direct, finite-horizon process, and truncated Poisson sum must be
        # the same distribution; 10^5 samples each at the default horizons
        alpha, trials = 1.5, 10**5
        rng = make_rng(stream_seed(38, 0))
        direct = rng.standard_gamma(alpha, size=trials)
        rng = make_rng(stream_seed(38, 1))
        process = np.array(
            [sample_terminal_gamma_process(alpha, 12.0, rng) for _ in range(trials)]
        )
        rng = make_rng(stream_seed(38, 2))
        sums = np.array([sample_limit_sum(alpha, 40.0, rng) for _ in range(trials)])
        assert ks_2samp(direct, process, method="asymp").statistic < 0.01
        assert ks_2samp(direct, sums, method="asymp").statistic < 0.01
        assert ks_2samp(process, sums, method="asymp").statistic < 0.01

    def test_sampler_validation(self):
        with pytest.raises(ParameterError):
            sample_terminal_gamma_process(1.0, -2.0, make_rng(0))
        with pytest.raises(ParameterError):
            sample_limit_sum(1.0, 0.0, make_rng(0))

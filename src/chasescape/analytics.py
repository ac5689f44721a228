"""Closed-form limits, integral identities with quadrature oracles, the exact
finite-n distribution of the white-survivor count, and statistical test
utilities.

The dynamic program propagates probability mass forward through the embedded
jump chain, which is a DAG layered by r + 2b (every jump advances that index
by exactly one).  It is exact up to floating rounding and serves as the
oracle against which all three Monte Carlo engines are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import InitMode, ParameterError, Params, QuadratureError, is_integer, require_positive

# the DP's arrays are O(n) and its work O(n^2), so the cap bounds time
DP_MAX_N = 5000

QUADRATURE_ABS_TOL = 1e-10

# fewest expected counts a chi-square group holds after pooling
CHI_SQUARE_MIN_EXPECTED = 5.0

# two-sided 95% normal quantile, scipy.special.ndtri(0.975) to the last bit
_Z975 = 1.959963984540054


def extinction_limit(lam: float, alpha: float) -> float:
    """Limiting probability that no white site survives.

    The trichotomy in lambda is exact, with no tolerance band around 1.
    """
    if lam < 1.0:
        return 0.0
    if lam == 1.0:
        return 2.0 ** -alpha
    return 1.0


def expected_white_limit(alpha: float) -> float:
    """Limit of the expected white-survivor count at equal fitness."""
    return 2.0 * alpha


def conversion_growth_limit(alpha: float) -> float:
    """In-probability limit of (conversion count) / log n at equal fitness."""
    return float(alpha)


def prob_gamma_less_exp_closed(alpha: float) -> float:
    """P(Gamma(alpha,1) < Exp(1)) for independent variables: 2^{-alpha}."""
    require_positive("alpha", alpha)
    return 2.0 ** -alpha


def expected_excess_closed(alpha: float) -> float:
    """E[(G - E) 1{G > E}] for independent Gamma(alpha,1), Exp(1)."""
    require_positive("alpha", alpha)
    return alpha - 1.0 + 2.0 ** -alpha


def _integrate_halfline(f: Callable[[float], float]) -> float:
    """Adaptive quadrature of f over [0, inf) via the map u = x / (1 + x).

    The substitution gives a finite interval; the Gauss-Kronrod rule never
    evaluates the endpoints, so integrable singularities at x = 0 are fine.
    """
    # scipy is most of the package's import time, so each function that
    # needs it imports it
    from scipy.integrate import quad

    def transformed(u: float) -> float:
        x = u / (1.0 - u)
        return f(x) / (1.0 - u) ** 2

    value, abserr, *_ = quad(
        transformed, 0.0, 1.0, epsabs=QUADRATURE_ABS_TOL * 1e-2, epsrel=1e-12, limit=200,
        full_output=1,
    )
    if not math.isfinite(value) or abserr > QUADRATURE_ABS_TOL:
        raise QuadratureError(f"quadrature failed: value={value!r}, error estimate={abserr:.3g}")
    return float(value)


def prob_gamma_less_exp_quadrature(alpha: float) -> float:
    """Numerical evaluation of (1/Gamma(a)) * int_0^inf x^{a-1} e^{-2x} dx,
    independent of the closed form."""
    require_positive("alpha", alpha)
    lg = math.lgamma(alpha)

    def integrand(x: float) -> float:
        return math.exp((alpha - 1.0) * math.log(x) - 2.0 * x - lg)

    return _integrate_halfline(integrand)


def expected_excess_quadrature(alpha: float) -> float:
    """Numerical evaluation of int (x - 1 + e^{-x}) f_G(x) dx against the
    Gamma(alpha, 1) density."""
    require_positive("alpha", alpha)
    lg = math.lgamma(alpha)

    def integrand(x: float) -> float:
        # x - 1 + e^{-x} written as x + expm1(-x) to avoid cancellation
        excess = x + math.expm1(-x)
        return excess * math.exp((alpha - 1.0) * math.log(x) - x - lg)

    return _integrate_halfline(integrand)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the white-survivor count for a finite model instance,
    with E[C] and E[tau] on both clocks the engines run."""

    probabilities: np.ndarray  # index k holds P(W = k), k = 0..n
    expected_w: float
    expected_c: float
    extinction_probability: float
    expected_tau: float  # the process's clock, run by the chain and graph engines
    expected_tau_coupling: float  # the coupling's time change


def exact_distribution_W(
    n: int, lam: float, alpha: float, init_mode: InitMode = InitMode.STANDARD
) -> ExactDistribution:
    """Exact W distribution by forward propagation over the embedded chain.

    States are (r, b) pairs with w implied by conservation, grouped into
    layers r + 2b which every jump advances by one.  A layer is one slice of
    b, so a grow keeps a state's b and a red decrease adds one; only the top b
    of an odd layer has one red, and its decrease flow is P(W = w).  The
    expected conversion count accumulates a / (b + a) times the flow on every
    red-decrease transition, where a is the conversion rate.  Every state is
    left once at most, so E[tau] is the sum over states of the mass times the
    mean holding time: 1 / (r * denom) on the process's clock and 1 / denom on
    the coupling's time change, where denom = lam * w + b + a.
    """
    params = Params(n, lam, alpha, init_mode)
    if n > DP_MAX_N:
        raise ParameterError(f"n = {n} exceeds the exact-oracle cap {DP_MAX_N}")
    a = params.conversion_rate
    total = params.total_vertices
    r0, b_floor = params.initial_red_blue  # the blue count never decreases

    current = np.zeros(total + 2)
    current[b_floor] = 1.0
    w_dist = np.zeros(n + 1)
    expected_c = 0.0
    # the mean time spent in the states of each b, on both clocks
    clock, time_change = np.zeros(total + 2), np.zeros(total + 2)
    for layer in range(r0 + 2 * b_floor, 2 * total):
        b_lo, b_hi = max(b_floor, layer - total), (layer - 1) // 2
        odd = layer % 2  # only the top b of an odd layer has one red
        bs = np.arange(b_lo, b_hi + 1)
        mass = current[b_lo : b_hi + 1]
        ws = total - layer + bs
        denom = params.lam * ws + bs + a
        held = mass / denom  # the mean time in each state, on the coupling's clock
        time_change[b_lo : b_hi + 1] += held
        clock[b_lo : b_hi + 1] += held / (layer - 2 * bs)
        dec_flow = mass * ((bs + a) / denom)
        expected_c += float(np.sum(dec_flow * (a / (bs + a))))
        if odd:
            w_dist[ws[-1]] = dec_flow[-1]
        current[b_lo : b_hi + 1] = mass * (params.lam * ws / denom)
        # no earlier layer reached b_hi + 1, so it still holds 0
        current[b_lo + 1 : b_hi + 2 - odd] += dec_flow[: dec_flow.size - odd]
    expected_w = float(np.arange(n + 1) @ w_dist)
    return ExactDistribution(
        probabilities=w_dist,
        expected_w=expected_w,
        expected_c=expected_c,
        extinction_probability=float(w_dist[0]),
        expected_tau=float(np.sum(clock)),
        expected_tau_coupling=float(np.sum(time_change)),
    )


def stats_wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if not is_integer(trials) or trials < 1:
        raise ParameterError(f"trials must be an integer >= 1, got {trials!r}")
    if not is_integer(successes) or not 0 <= successes <= trials:
        raise ParameterError(f"successes must lie in [0, {trials}], got {successes!r}")
    z = _Z975
    phat = successes / trials
    shrink = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / shrink
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / shrink
    # the exact-arithmetic interval always brackets phat; restore that
    # property where rounding of center -+ half loses it
    lo = min(max(0.0, center - half), phat)
    hi = max(min(1.0, center + half), phat)
    return lo, hi


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int  # one less than the groups compared after pooling
    pvalue: float


def chi_square_gof(observed: Sequence[int], expected_probs: Sequence[float]) -> ChiSquareResult:
    """Chi-square goodness of fit with pooling of sparse bins.

    Consecutive bins are merged until each group's expected count reaches
    CHI_SQUARE_MIN_EXPECTED; a trailing underweight group is folded into its
    predecessor.  Any observation in a bin of probability zero gives statistic
    inf and p-value 0.
    """
    from scipy.special import gammaincc

    obs = np.asarray(observed, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if obs.shape != probs.shape or obs.ndim != 1:
        raise ParameterError("observed and expected_probs must be 1-d and the same length")
    trials = float(obs.sum())
    if trials <= 0:
        raise ParameterError("observed counts sum to zero")
    expected = probs / probs.sum() * trials
    grouped_obs: list[float] = []
    grouped_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, expected):
        acc_o += o
        acc_e += e
        if acc_e >= CHI_SQUARE_MIN_EXPECTED:
            grouped_obs.append(acc_o)
            grouped_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and grouped_exp:
        grouped_obs[-1] += acc_o
        grouped_exp[-1] += acc_e
    if len(grouped_exp) < 2:
        raise ParameterError("fewer than two groups after pooling; test is degenerate")
    go = np.array(grouped_obs)
    ge = np.array(grouped_exp)
    # pooling would hide an observation in a bin the law gives no mass
    impossible = obs[probs == 0.0].any()
    statistic = math.inf if impossible else float(np.sum((go - ge) ** 2 / ge))
    dof = len(ge) - 1
    pvalue = float(gammaincc(dof / 2.0, statistic / 2.0))
    return ChiSquareResult(statistic=statistic, dof=dof, pvalue=pvalue)

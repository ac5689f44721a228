"""Death process, defective birth process, their coupling, and terminal values.

The death process tracks the white population: n individuals, each dying at
rate lambda.  The defective birth process tracks the blue population plus a
virtual initial blue: one progenitor reproducing at rate alpha, every later
individual at rate 1.  Merging the two jump streams in time order (death =
white turns red, birth = red turns blue) replays the embedded chain of the
complete-graph process, which makes the pair a third, much faster engine
for the fixation statistics.

Both rescaled processes have almost-sure terminal values: Exp(1) for the
reversed death process and Gamma(alpha, 1) for the defective birth process.
Three independent samplers for the Gamma terminal value live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .chain import FixationResult
from .params import InitMode, ParameterError, Params, ResourceLimitError

# expected population cap for the finite-horizon birth process sampler;
# beyond 2^53 the integer count is no longer exact in a double
DEFAULT_POPULATION_CAP = float(1 << 53)


@dataclass(frozen=True)
class DeathTimes:
    """Ordered death times; spacing i has law Exp(lambda * (n - i))."""

    lam: float
    times: np.ndarray

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class BirthTimes:
    """Ordered jump times of the defective birth process.

    Spacing i has law Exp(i + alpha); ``defective_flags[i]`` marks whether
    jump i+1 was produced by the defective progenitor, which happens with
    probability alpha / (i + alpha) independently per jump.
    """

    alpha: float
    times: np.ndarray
    defective_flags: np.ndarray

    @property
    def k(self) -> int:
        return self.times.size


class TerminalKind(Enum):
    EXP_UNIT = "exp_unit"
    GAMMA_ALPHA = "gamma_alpha"
    LIMIT_SUM = "limit_sum"


class TerminalSample(NamedTuple):
    value: float
    kind: TerminalKind


def _check_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)) or alpha <= 0:
        raise ParameterError(f"alpha must be a positive finite real, got {alpha!r}")


# cap on the uniforms one coupling trial draws (3n + 2 of them, 32 MiB of
# doubles), so a huge n is refused before any allocation
MAX_COUPLING_UNIFORMS = 1 << 22


def _death_clock(u: np.ndarray, lam: float) -> np.ndarray:
    """Death times along the last axis of ``u``; spacing i is Exp(lam * (n - i))."""
    rates = lam * np.arange(u.shape[-1], 0, -1, dtype=np.float64)
    return np.cumsum(-np.log1p(-u) / rates, axis=-1)


def _birth_clock(u: np.ndarray, alpha: float) -> np.ndarray:
    """Birth times along the last axis of ``u``; spacing i is Exp(i + alpha)."""
    idx = np.arange(u.shape[-1], dtype=np.float64)
    return np.cumsum(-np.log1p(-u) / (idx + alpha), axis=-1)


def _defective_flags(u: np.ndarray, alpha: float) -> np.ndarray:
    """Whether birth i came from the progenitor: probability alpha / (i + alpha)."""
    idx = np.arange(u.shape[-1], dtype=np.float64)
    return u < alpha / (idx + alpha)


def simulate_death_times(n: int, lam: float, rng: np.random.Generator) -> DeathTimes:
    """Death times of n individuals dying independently at rate lam."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)) or lam <= 0:
        raise ParameterError(f"lambda must be a positive finite real, got {lam!r}")
    return DeathTimes(lam=float(lam), times=_death_clock(rng.random(n), lam))


def simulate_birth_times(alpha: float, k: int, rng: np.random.Generator) -> BirthTimes:
    """First k jump times of the defective birth process.

    Draws one block of k uniforms for the spacings, then one block of k for
    the defective flags.
    """
    _check_alpha(alpha)
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    times = _birth_clock(rng.random(k), alpha)
    flags = _defective_flags(rng.random(k), alpha)
    return BirthTimes(alpha=float(alpha), times=times, defective_flags=flags)


def coupling_uniforms(params: Params) -> int:
    """Uniforms one coupling trial draws: n deaths, n + 1 births, n + 1 flags.

    Raises ResourceLimitError when they exceed MAX_COUPLING_UNIFORMS.
    """
    count = 3 * params.n + 2
    if count > MAX_COUPLING_UNIFORMS:
        raise ResourceLimitError(
            f"a coupling trial at n = {params.n} needs {count} uniforms, "
            f"over the cap of {MAX_COUPLING_UNIFORMS}"
        )
    return count


def coupling_block(
    params: Params, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (W, C, tau, jump count) of coupling trials.

    Row r of ``uniforms`` holds one trial's 3n + 2 uniforms in draw order:
    n for the death spacings, n + 1 for the birth spacings, n + 1 for the
    defective flags.  The red count hits zero at the first birth index m
    with beta[m-1] <= delta[m-1]; if the deaths stay ahead through all n
    of them the (n+1)-th birth finishes the process.  A floating-point tie
    between a birth and a death is broken in favor of the birth, declaring
    extinction; ties have probability zero in exact arithmetic so any fixed
    rule leaves the law unchanged.
    """
    n = params.n
    kortchemski = params.init_mode is InitMode.KORTCHEMSKI
    alpha = 1.0 if kortchemski else params.alpha
    delta = _death_clock(uniforms[:, :n], params.lam)
    beta = _birth_clock(uniforms[:, n : 2 * n + 1], alpha)
    ahead = beta[:, :n] <= delta
    m = np.where(ahead.any(axis=1), ahead.argmax(axis=1) + 1, n + 1)
    tau = beta[np.arange(beta.shape[0]), m - 1]
    deaths_before = np.count_nonzero(delta < tau[:, None], axis=1)
    if kortchemski:
        conversions = np.zeros_like(m)
    else:
        flags = _defective_flags(uniforms[:, 2 * n + 1 :], alpha)
        conversions = np.count_nonzero(flags & (np.arange(n + 1) < m[:, None]), axis=1)
    return n - deaths_before, conversions, tau, deaths_before + m


def run_coupling(params: Params, rng: np.random.Generator) -> FixationResult:
    """Fixation statistics via the death/birth coupling.

    Generates the death and birth streams independently, merges them in
    time order, and stops when the replayed red count first hits zero.
    The joint law of (white_survivors, conversions) equals that of the
    count-chain engine with the same initial condition.  In kortchemski
    mode the initial blue chases at rate 1 like every later blue and
    nothing converts, so the births are the defective process at alpha = 1
    with its flags ignored.  fixation_time is measured on the birth/death
    clock, whose scale differs from the count chain's continuous time; its
    mean over log n tends to 1 at lambda = 1.  This is the one-row case of
    :func:`coupling_block`.
    """
    uniforms = np.empty((1, coupling_uniforms(params)))
    rng.random(out=uniforms[0])
    w, c, tau, jumps = coupling_block(params, uniforms)
    white = int(w[0])
    return FixationResult(
        white, params.total_vertices - white, int(c[0]), float(tau[0]), int(jumps[0])
    )


def sample_terminal_exp(rng: np.random.Generator) -> TerminalSample:
    """Terminal value of the reversed death process: one Exp(1) draw."""
    return TerminalSample(-math.log1p(-rng.random()), TerminalKind.EXP_UNIT)


def sample_terminal_gamma_direct(alpha: float, rng: np.random.Generator) -> TerminalSample:
    """One Gamma(alpha, 1) draw via the standard rejection sampler."""
    _check_alpha(alpha)
    return TerminalSample(float(rng.standard_gamma(alpha)), TerminalKind.GAMMA_ALPHA)


def sample_terminal_gamma_process(
    alpha: float,
    t_horizon: float,
    rng: np.random.Generator,
    population_cap: float = DEFAULT_POPULATION_CAP,
) -> TerminalSample:
    """e^{-t} times the defective birth process population at time t.

    The population is generated exactly through the process's branching
    structure: the progenitor spawns clans at the points of a rate-alpha
    Poisson process, and a rate-1 pure birth clan of age s has a
    Geometric(e^{-s}) number of members.  This reproduces the event-by-event
    law at any horizon while doing O(alpha * t) work instead of
    O(population), which is what makes large horizons affordable.
    """
    _check_alpha(alpha)
    if not (isinstance(t_horizon, (int, float)) and math.isfinite(t_horizon)) or t_horizon < 0:
        raise ParameterError(f"t_horizon must be a finite real >= 0, got {t_horizon!r}")
    expected_population = 1.0 + alpha * math.expm1(t_horizon)
    if expected_population > population_cap:
        raise ResourceLimitError(
            f"expected population {expected_population:.3g} exceeds cap {population_cap:.3g}"
        )
    t = float(t_horizon)
    n_clans = int(rng.poisson(alpha * t)) if t > 0 else 0
    if n_clans == 0:
        return TerminalSample(math.exp(-t), TerminalKind.GAMMA_ALPHA)
    ages = t - t * rng.random(n_clans)
    success = np.exp(-ages)
    # geometric on {1, 2, ...} by inverse CDF; u = 0 maps to the minimum
    u = rng.random(n_clans)
    sizes = np.floor(np.log1p(-u) / np.log1p(-success)) + 1.0
    return TerminalSample(math.exp(-t) * (1.0 + float(sizes.sum())), TerminalKind.GAMMA_ALPHA)


def sample_limit_sum(
    alpha: float, truncation_T: float, rng: np.random.Generator
) -> TerminalSample:
    """Sum of e^{-T_i} * E_i over a rate-alpha Poisson process on [0, T].

    The E_i are independent Exp(1) marks.  Truncating the point process at T
    biases the mean down by at most alpha * e^{-T}.
    """
    _check_alpha(alpha)
    if not (isinstance(truncation_T, (int, float)) and math.isfinite(truncation_T)) or truncation_T <= 0:
        raise ParameterError(f"truncation_T must be a positive finite real, got {truncation_T!r}")
    count = int(rng.poisson(alpha * truncation_T))
    if count == 0:
        return TerminalSample(0.0, TerminalKind.LIMIT_SUM)
    points = truncation_T * rng.random(count)
    marks = -np.log1p(-rng.random(count))
    return TerminalSample(float(np.exp(-points) @ marks), TerminalKind.LIMIT_SUM)

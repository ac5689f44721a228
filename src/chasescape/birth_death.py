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


def simulate_death_times(n: int, lam: float, rng: np.random.Generator) -> DeathTimes:
    """Death times of n individuals dying independently at rate lam."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)) or lam <= 0:
        raise ParameterError(f"lambda must be a positive finite real, got {lam!r}")
    rates = lam * np.arange(n, 0, -1, dtype=np.float64)
    spacings = -np.log1p(-rng.random(n)) / rates
    return DeathTimes(lam=float(lam), times=np.cumsum(spacings))


def simulate_birth_times(alpha: float, k: int, rng: np.random.Generator) -> BirthTimes:
    """First k jump times of the defective birth process.

    Draws one block of k uniforms for the spacings, then one block of k for
    the defective flags.
    """
    _check_alpha(alpha)
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    idx = np.arange(k, dtype=np.float64)
    spacings = -np.log1p(-rng.random(k)) / (idx + alpha)
    flags = rng.random(k) < alpha / (idx + alpha)
    return BirthTimes(alpha=float(alpha), times=np.cumsum(spacings), defective_flags=flags)


def _merge_and_stop(delta: np.ndarray, beta: np.ndarray, n: int) -> tuple[int, float, int]:
    """Stop index, stop time, and deaths before the stop time.

    The red count hits zero at the first birth index m with
    beta[m-1] <= delta[m-1]; if the deaths stay ahead through all n of them
    the (n+1)-th birth finishes the process.  A floating-point tie between
    a birth and a death is broken in favor of the birth, declaring
    extinction; ties have probability zero in exact arithmetic so any fixed
    rule leaves the law unchanged.
    """
    ahead = beta[:n] <= delta
    m = int(np.argmax(ahead)) + 1 if ahead.any() else n + 1
    tau = float(beta[m - 1])
    deaths_before = int(np.searchsorted(delta, tau, side="left"))
    return m, tau, deaths_before


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
    mean over log n tends to 1 at lambda = 1.
    """
    n = params.n
    kortchemski = params.init_mode is InitMode.KORTCHEMSKI
    deaths = simulate_death_times(n, params.lam, rng)
    births = simulate_birth_times(1.0 if kortchemski else params.alpha, n + 1, rng)
    m, tau, deaths_before = _merge_and_stop(deaths.times, births.times, n)
    w = n - deaths_before
    conversions = 0 if kortchemski else int(births.defective_flags[:m].sum())
    return FixationResult(w, params.total_vertices - w, conversions, tau, deaths_before + m)


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

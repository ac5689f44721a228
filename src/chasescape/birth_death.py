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

import numpy as np

from .chain import FixationResult
from .params import (
    ParameterError,
    Params,
    ResourceLimitError,
    is_integer,
    is_real,
    require_positive,
)

# expected population cap for the finite-horizon birth process sampler;
# beyond 2^53 the integer count is no longer exact in a double
POPULATION_CAP = float(1 << 53)

# cap on the uniforms one coupling trial draws (3n + 2 of them, 32 MiB of
# doubles), so a huge n is refused before any allocation
MAX_COUPLING_UNIFORMS = 1 << 22


def _death_clock(u: np.ndarray, lam: float) -> np.ndarray:
    """Death times along the last axis of ``u``; spacing i is Exp(lam * (n - i))."""
    rates = lam * np.arange(u.shape[-1], 0, -1, dtype=np.float64)
    return np.cumsum(-np.log1p(-u) / rates, axis=-1)


def _birth_clock(u: np.ndarray, offset: float) -> np.ndarray:
    """Birth times along the last axis of ``u``; spacing i is Exp(i + offset)."""
    idx = np.arange(u.shape[-1], dtype=np.float64)
    return np.cumsum(-np.log1p(-u) / (idx + offset), axis=-1)


def _defective_flags(u: np.ndarray, a: float, offset: float) -> np.ndarray:
    """Whether birth i came from the progenitor: probability a / (i + offset)."""
    idx = np.arange(u.shape[-1], dtype=np.float64)
    return u < a / (idx + offset)


def simulate_death_times(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Ordered death times of n individuals dying independently at rate lam;
    spacing i has law Exp(lam * (n - i))."""
    if not is_integer(n) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    require_positive("lambda", lam)
    return _death_clock(rng.random(n), lam)


def simulate_birth_times(
    alpha: float, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """First k jump times of the defective birth process, and its flags.

    Spacing i has law Exp(i + alpha); flag i marks whether jump i+1 was
    produced by the defective progenitor, which happens with probability
    alpha / (i + alpha) independently per jump.  Draws one block of k
    uniforms for the spacings, then one block of k for the flags.
    """
    require_positive("alpha", alpha)
    if not is_integer(k) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    times = _birth_clock(rng.random(k), alpha)
    return times, _defective_flags(rng.random(k), alpha, alpha)


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
    a = params.conversion_rate
    # before birth i there are b0 + i blue, and each red turns blue at
    # rate b0 + i + a
    offset = params.initial_red_blue[1] + a
    delta = _death_clock(uniforms[:, :n], params.lam)
    beta = _birth_clock(uniforms[:, n : 2 * n + 1], offset)
    ahead = beta[:, :n] <= delta
    m = np.where(ahead.any(axis=1), ahead.argmax(axis=1) + 1, n + 1)
    tau = beta[np.arange(beta.shape[0]), m - 1]
    deaths_before = np.count_nonzero(delta < tau[:, None], axis=1)
    flags = _defective_flags(uniforms[:, 2 * n + 1 :], a, offset)
    conversions = np.count_nonzero(flags & (np.arange(n + 1) < m[:, None]), axis=1)
    return n - deaths_before, conversions, tau, deaths_before + m


def run_coupling(params: Params, rng: np.random.Generator) -> FixationResult:
    """Fixation statistics via the death/birth coupling.

    Generates the death and birth streams independently, merges them in
    time order, and stops when the replayed red count first hits zero.
    The joint law of (white_survivors, conversions) equals that of the
    count-chain engine with the same initial condition.  Birth spacing i
    has rate i + b0 + a, where b0 is the initial blue count and a the
    conversion rate, and birth i is a conversion with probability
    a / (i + b0 + a); in kortchemski mode b0 = 1 and a = 0, so no birth is
    a conversion.  fixation_time is measured on the birth/death clock,
    whose scale differs from the count chain's continuous time; its mean
    over log n tends to 1 at lambda = 1.  This is the one-row case of
    :func:`coupling_block`.
    """
    uniforms = np.empty((1, coupling_uniforms(params)))
    rng.random(out=uniforms[0])
    w, c, tau, jumps = coupling_block(params, uniforms)
    white = int(w[0])
    return FixationResult(
        white, params.total_vertices - white, int(c[0]), float(tau[0]), int(jumps[0])
    )


def sample_terminal_gamma_process(
    alpha: float, t_horizon: float, rng: np.random.Generator
) -> float:
    """e^{-t} times the defective birth process population at time t.

    The population is generated exactly through the process's branching
    structure: the progenitor spawns clans at the points of a rate-alpha
    Poisson process, and a rate-1 pure birth clan of age s has a
    Geometric(e^{-s}) number of members.  This reproduces the event-by-event
    law at any horizon while doing O(alpha * t) work instead of
    O(population), which is what makes large horizons affordable.
    """
    require_positive("alpha", alpha)
    if not (is_real(t_horizon) and math.isfinite(t_horizon)) or t_horizon < 0:
        raise ParameterError(f"t_horizon must be a finite real >= 0, got {t_horizon!r}")
    expected_population = 1.0 + alpha * math.expm1(t_horizon)
    if expected_population > POPULATION_CAP:
        raise ResourceLimitError(
            f"expected population {expected_population:.3g} exceeds cap {POPULATION_CAP:.3g}"
        )
    t = float(t_horizon)
    n_clans = int(rng.poisson(alpha * t)) if t > 0 else 0
    if n_clans == 0:
        return math.exp(-t)
    ages = t - t * rng.random(n_clans)
    success = np.exp(-ages)
    # geometric on {1, 2, ...} by inverse CDF; u = 0 maps to the minimum
    u = rng.random(n_clans)
    sizes = np.floor(np.log1p(-u) / np.log1p(-success)) + 1.0
    return math.exp(-t) * (1.0 + float(sizes.sum()))


def sample_limit_sum(alpha: float, truncation_T: float, rng: np.random.Generator) -> float:
    """Sum of e^{-T_i} * E_i over a rate-alpha Poisson process on [0, T].

    The E_i are independent Exp(1) marks.  Truncating the point process at T
    biases the mean down by at most alpha * e^{-T}.
    """
    require_positive("alpha", alpha)
    require_positive("truncation_T", truncation_T)
    count = int(rng.poisson(alpha * truncation_T))
    if count == 0:
        return 0.0
    points = truncation_T * rng.random(count)
    marks = -np.log1p(-rng.random(count))
    return float(np.exp(-points) @ marks)

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
from typing import Iterable

import numpy as np

from .chain import _CHUNK_DOUBLES, FixationResult, empty_block
from .params import (
    ParameterError,
    Params,
    ResourceLimitError,
    is_real,
    require_positive,
)
from .rng import streams

# expected population cap for the finite-horizon birth process sampler;
# beyond 2^53 the integer count is no longer exact in a double
POPULATION_CAP = float(1 << 53)

# cap on the uniforms one coupling trial draws (3n + 2), checked before any
# allocation: at the cap a one-trial block peaks at 67.5 MiB (tracemalloc), the
# 32 MiB row plus the 21 MiB rate vector and 11 MiB flag thresholds it holds
MAX_COUPLING_UNIFORMS = 1 << 22


def _spacings(u: np.ndarray, neg_rates: np.ndarray) -> np.ndarray:
    """Overwrite the uniforms ``u`` with spacings along their last axis, and
    return ``u``: spacing i is Exp(-neg_rates[i]), drawn as
    log1p(-u) / neg_rates[i], which is -log1p(-u) / rate to the bit."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.divide(u, neg_rates, out=u)


def _chunk_rows(n: int) -> int:
    """The trials one chunk of the coupling's row buffer holds at ``n``: as
    many 3n + 2 uniform rows as ``_CHUNK_DOUBLES`` holds, and at least one."""
    return max(1, _CHUNK_DOUBLES // (3 * n + 2))


def coupling_block(
    params: Params, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) of coupling trials: trial j gives the bytes of
    ``run_coupling(params, make_rng(seeds[j]))``, drawn from one ``streams``
    iterator (one re-keyed Philox for the whole block)."""
    return _coupling_trials(params, streams(seeds), len(seeds))


def _coupling_trials(
    params: Params, rngs: Iterable[np.random.Generator], count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) of the trials of the first ``count`` generators of
    ``rngs``, in chunks of at most ``_CHUNK_DOUBLES`` uniforms, the chain's
    budget (431 trials at n = 50; one trial, however many it needs, from
    n = 10923 up).  Refuses a trial over MAX_COUPLING_UNIFORMS before it
    allocates, and an empty block stops there; else holds 2n + 1 negated
    rates, n + 1 flag thresholds and a (rows, 3n + 2) row buffer, in which
    each chunk computes both clocks in place.

    Row r holds its trial's 3n + 2 uniforms, drawn by one ``random(out=row)``:
    n for the death spacings, n + 1 for the birth spacings, n + 1 for the
    defective flags.  The first 2n + 1 become the spacings, and then the death
    clock delta and the birth clock beta.  The red count hits zero at the
    first birth index m with beta[m-1] <= delta[m-1]; if the deaths stay ahead
    through all n of them the (n+1)-th birth finishes the process.  Exactly
    m - 1 deaths come before that birth, so W = n + 1 - m.  A floating-point
    tie between a birth and a death is broken in favor of the birth,
    declaring extinction; ties have probability zero in exact arithmetic so
    any fixed rule leaves the law unchanged.
    """
    n = params.n
    width = 3 * n + 2
    if width > MAX_COUPLING_UNIFORMS:
        raise ResourceLimitError(
            f"a coupling trial at n = {n} needs {width} uniforms, "
            f"over the cap of {MAX_COUPLING_UNIFORMS}"
        )
    if not count:
        return empty_block(0)
    rows = min(count, _chunk_rows(n))
    a = params.conversion_rate
    # before birth i there are b0 + i blue, and each red turns blue at
    # rate b0 + i + a
    offset = params.initial_red_blue[1] + a
    neg_rates = np.concatenate((params.lam * np.arange(-n, 0.0), -(np.arange(n + 1.0) + offset)))
    # birth i converts with probability a / (i + offset)
    thresholds = np.divide(-a, neg_rates[n:])
    buffer = np.empty((rows, width))  # after the rates, whose temporaries are freed
    row_views, index = list(buffer), np.arange(rows)  # once, not per chunk
    white, conversions, times = empty_block(count)
    rngs = iter(rngs)
    for lo in range(0, count, rows):
        size = min(rows, count - lo)
        uniforms = buffer[:size]
        for row, rng in zip(row_views[:size], rngs):  # rows first: no generator past the chunk
            rng.random(out=row)
        clocks = _spacings(uniforms[:, : 2 * n + 1], neg_rates)
        delta, beta, flags = clocks[:, :n], clocks[:, n:], uniforms[:, 2 * n + 1 :]
        np.cumsum(delta, axis=1, out=delta)
        np.cumsum(beta, axis=1, out=beta)
        r = index[:size]
        before = beta[:, :n] <= delta
        first = before.argmax(axis=1)  # 0 if no birth comes first
        m = np.where(before[r, first], first + 1, n + 1)
        chunk = slice(lo, lo + size)
        times[chunk] = beta[r, m - 1]
        white[chunk] = n + 1 - m
        if size == 1:  # only the births before m count, read on the 1-D row
            k = int(m[0])
            conversions[lo] = np.count_nonzero(flags[0, :k] < thresholds[:k])
        else:
            hits = (flags < thresholds) & (np.arange(n + 1) < m[:, None])
            conversions[chunk] = np.count_nonzero(hits, axis=1)
    return white, conversions, times


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
    over log n tends to 1 at lambda = 1.  This is the one-trial case of
    :func:`coupling_block`, on ``rng``.
    """
    w, c, tau = _coupling_trials(params, (rng,), 1)
    return FixationResult.at_fixation(params, int(w[0]), int(c[0]), float(tau[0]))


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
    n_clans = int(rng.poisson(alpha * t_horizon))
    ages = t_horizon - t_horizon * rng.random(n_clans)
    success = np.exp(-ages)
    # geometric on {1, 2, ...} by inverse CDF; u = 0 maps to the minimum
    u = rng.random(n_clans)
    sizes = np.floor(np.log1p(-u) / np.log1p(-success)) + 1.0
    return math.exp(-t_horizon) * (1.0 + float(sizes.sum()))


def sample_limit_sum(alpha: float, truncation_T: float, rng: np.random.Generator) -> float:
    """Sum of e^{-T_i} * E_i over a rate-alpha Poisson process on [0, T].

    The E_i are independent Exp(1) marks.  Truncating the point process at T
    biases the mean down by at most alpha * e^{-T}.
    """
    require_positive("alpha", alpha)
    require_positive("truncation_T", truncation_T)
    count = int(rng.poisson(alpha * truncation_T))
    points = truncation_T * rng.random(count)
    marks = -np.log1p(-rng.random(count))
    return float(np.exp(-points) @ marks)

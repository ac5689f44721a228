"""Population-level jump chain of chase-escape with conversion on K_{n+1}.

The state is the triple of red/blue/white counts.  On a complete graph the
per-edge dynamics collapse to aggregate rates lambda*r*w (red spread),
r*b (chase), and alpha*r (conversion), so the whole process can be simulated
on the counts alone.  The common factor r cancels from the embedded jump
probabilities but not from the holding-time clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .params import ParameterError, Params
from .rng import streams

# uniforms per window of a chain stream: the event uniforms of _WINDOW // 2
# jumps, then those jumps' Exp(1) holding times
_WINDOW = 256
# fewest trials a chunk runs in lockstep; a smaller chunk runs the scalar loop
# once per trial.  At lambda = 1, alpha = 2 and n = 50, 200 and 1000 the
# lockstep takes 1.20 to 1.39 of the scalar time at 8 trials, 0.93 to 1.02 at
# 12 (slower in 10 of 11 pairs at n = 200), 0.75 to 0.87 at 16, faster in
# every pair, and 0.50 to 0.54 at 32 (medians of 11 interleaved pairs on 2
# x86-64 CPUs)
_LOCKSTEP_MIN_LIVE = 16
# doubles one chunk of a vectorised block may hold (512 KiB): the chain's
# rows, its p_grow grid, and the coupling's row buffer
_CHUNK_DOUBLES = 1 << 16
# trials per chunk of a block: one window of _WINDOW draws per trial
_CHUNK_TRIALS = _CHUNK_DOUBLES // _WINDOW


class EventKind(Enum):
    GROW = "grow"        # a white vertex turns red
    CHASE = "chase"      # a red vertex turns blue via a blue neighbor
    CONVERT = "convert"  # a red vertex turns blue spontaneously


class PopulationState(NamedTuple):
    r: int
    b: int
    w: int


@dataclass(frozen=True)
class FixationResult:
    """Terminal statistics, read at the first moment no red remains."""

    white_survivors: int
    blue_total: int
    conversions: int
    fixation_time: float
    jump_count: int

    @classmethod
    def at_fixation(
        cls, params: Params, white: int, conversions: int, fixation_time: float
    ) -> FixationResult:
        """The result of a run that fixated with ``white`` survivors.

        Every jump either reddens a white or blues a red, and the red count
        goes from 1 to 0, so the run made 2(n - W) + 1 jumps and left
        total - W vertices blue.
        """
        blue = params.total_vertices - white
        return cls(white, blue, conversions, fixation_time, 2 * (params.n - white) + 1)


def empty_block(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised (W, C, tau) arrays for a block of ``count`` trials."""
    return np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64), np.empty(count)


class JumpRecord(NamedTuple):
    time: float
    state: PopulationState
    event: EventKind


def initial_state(params: Params) -> PopulationState:
    r0, b0 = params.initial_red_blue
    return PopulationState(r0, b0, params.n)


def run_to_fixation(
    params: Params, rng: np.random.Generator, on_jump: Callable[[JumpRecord], None] | None = None
) -> FixationResult:
    """Simulate until no red vertices remain.

    The stream is read in whole windows of ``_WINDOW`` draws: window k holds
    the event uniforms of jumps 128k ... 128k + 127 (``random``), then those
    jumps' Exp(1) draws (``standard_exponential(method="inv")``, which is
    ``-log1p(-u)`` in libm), so the result is a pure function of the
    generator state.  The holding time is E / (r * (lambda*w + b + alpha)) of
    the state being left.  When ``on_jump`` is given, it is called once per
    jump, in order, with that jump's :class:`JumpRecord`: those records are
    the trajectory, and :func:`initial_state` is where it starts.  The run
    keeps none of them, so ``records.append`` collects the trajectory and a
    writer can write each jump as it is made.
    """
    lam = params.lam
    a = params.conversion_rate
    r, b, w = initial_state(params)
    fixation_time, conversions = 0.0, 0
    grow, chase, convert = EventKind.GROW, EventKind.CHASE, EventKind.CONVERT
    half = _WINDOW // 2
    while r > 0:
        events = rng.random(half).tolist()
        for u_event, hold in zip(events, rng.standard_exponential(half, method="inv").tolist()):
            denom = lam * w + b + a
            fixation_time += hold / (r * denom)
            p_grow = lam * w / denom
            if u_event < p_grow:
                r += 1
                w -= 1
                event = grow
            else:
                if u_event < p_grow + b / denom:
                    event = chase
                else:
                    event = convert
                    conversions += 1
                r -= 1
                b += 1
            if on_jump is not None:
                on_jump(JumpRecord(fixation_time, PopulationState(r, b, w), event))
            if r == 0:
                break
    return FixationResult.at_fixation(params, w, conversions, fixation_time)


def chain_block(
    params: Params, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) of count-chain trials, in chunks of ``_CHUNK_TRIALS``.

    Trial j draws from the stream keyed by ``seeds[j]`` and gives the same
    bytes as ``run_to_fixation(params, make_rng(seeds[j]))``.  A chunk of
    fewer than ``_LOCKSTEP_MIN_LIVE`` trials runs :func:`run_to_fixation` per
    trial; any other runs in lockstep (:func:`_lockstep`) until every trial
    has fixated, and holds one window of ``_WINDOW`` draws per live trial and
    one p_grow grid of at most ``_CHUNK_DOUBLES`` cells however long it runs.
    """
    white, conversions, times = empty_block(len(seeds))
    for lo in range(0, len(seeds), _CHUNK_TRIALS):
        chunk = slice(lo, lo + _CHUNK_TRIALS)
        if seeds[chunk].size >= _LOCKSTEP_MIN_LIVE:
            _lockstep(params, seeds[chunk], white[chunk], conversions[chunk], times[chunk])
        else:
            for i, rng in enumerate(streams(seeds[chunk]), lo):
                res = run_to_fixation(params, rng)
                white[i], conversions[i], times[i] = (
                    res.white_survivors, res.conversions, res.fixation_time
                )
    return white, conversions, times


def _lockstep(
    params: Params, seeds: np.ndarray, white: np.ndarray, conversions: np.ndarray, times: np.ndarray
) -> None:
    """One chunk of :func:`chain_block` to its end, into its output views.

    Each pass takes every live trial through one window.  One re-key of the
    trial's stream at the window's offset fills its row: the event uniforms
    of the window's jumps in the first half, their Exp(1) draws in the
    second.  Every live trial then makes k = min(_WINDOW // 2, 2 * total -
    layer) jumps, as none fixates above layer 2 * total: :func:`_steps`
    decides each jump from the window's p_grow grid, which has a row per jump
    and a cell per b the trials can reach.  The live trials are in b order,
    so a pass steps them in contiguous groups, each with a spread of b one
    grid of ``_CHUNK_DOUBLES`` cells holds (384 for a 128-jump window; the
    widest of a chunk at lambda = 1, alpha = 2 was 96 at n = 1000, 235 at
    n = 10^4 and 723 at n = 10^5).  :func:`_fold` then advances each trial's
    b, conversions and clock and finds its fixation.  The pass ends
    with one permutation: the trials that fixated leave by trial index, and
    the rest are sorted by b (stably, so the first pass keeps seed order)
    for the next pass, which refills every live row, so no row moves.
    """
    total = params.total_vertices
    r0, b0 = params.initial_red_blue
    count = len(seeds)
    half = _WINDOW // 2
    # each live trial's window and the flags of its jumps in it; a finished
    # trial leaves these views and the four arrays below
    rows = np.empty((count, _WINDOW))
    flags = np.empty((count, half), dtype=bool)
    # live trials: their index, blue count, conversions and clock at the last
    # fold; every jump raises the layer r + 2b by one, so r and w follow from b
    trial = np.arange(count)
    b = np.full(count, b0)
    c = np.zeros(count, dtype=np.int64)
    t = np.zeros(count)
    first = layer = r0 + 2 * b0
    while trial.size:
        k = min(half, 2 * total - layer)
        span = _CHUNK_DOUBLES // k - k  # the widest spread of b one grid holds
        for row, rng in zip(rows, streams(seeds[trial], 2 * (layer - first))):
            rng.random(out=row[:half])
            rng.standard_exponential(out=row[half:], method="inv")
        groups = [0]
        while groups[-1] < trial.size:
            groups.append(int(np.searchsorted(b, b[groups[-1]] + span, "right")))
        for lo, hi in zip(groups, groups[1:]):
            _steps(params, rows[lo:hi, :k], flags[lo:hi, :k], b[lo:hi], layer)
        jumps = _fold(params, rows[:, :k], rows[:, half : half + k], flags[:, :k], b, layer, c, t)
        done = jumps <= k
        out = trial[done]
        # at fixation r = 0, so the layer is 2b
        white[out] = total - (layer + jumps[done]) // 2
        conversions[out], times[out] = c[done], t[done]
        live = np.flatnonzero(~done)
        order = live[np.argsort(b[live], kind="stable")]
        trial, b, c, t = trial[order], b[order], c[order], t[order]
        rows, flags = rows[: trial.size], flags[: trial.size]
        layer += k


def _steps(
    params: Params, events: np.ndarray, flags: np.ndarray, b: np.ndarray, layer: int
) -> None:
    """Decide some live trials' k jumps in a window into ``flags``.

    ``events`` holds each trial's k event uniforms, ``b`` its blue count at
    the window's first jump, at layer ``layer``; ``flags`` gets whether each
    jump blued a red, ``u >= p_grow``, and nothing else is written.
    Within the window p_grow depends only on the jump j and b, so one grid
    P[j, b] over every b the trials can reach, min b to max b + k - 1, holds
    the scalar loop's IEEE expression lambda*w / (lambda*w + b + alpha) with
    w = b + total - layer - j.  A jump is then one gather, one compare and
    one add on each trial's offset into its grid row.  w is clamped at 0
    where it would be negative: no live trial reaches such a cell, and at
    w = 0 p_grow = 0, so a trial that fixated steps on to the window's end
    blueing, and denom >= b + alpha > 0 in both starts.
    """
    k = flags.shape[1]
    lo = b.min()
    width = b.max() - lo + k
    # lambda * max(w, 0) depends on b - j only: one vector, seen as k rows
    # whose row j starts at b = lo, where w is w0 - j
    w0 = lo + params.total_vertices - layer
    lw = np.arange(w0 - k + 1, w0 + width, dtype=np.float64)
    np.maximum(lw, 0.0, out=lw)
    lw *= params.lam
    lw = np.lib.stride_tricks.sliding_window_view(lw, width)[::-1]
    grid = np.add(lw, np.arange(lo, lo + width, dtype=np.float64))
    grid += params.conversion_rate
    np.divide(lw, grid, out=grid)  # p_grow
    rel = b - lo
    for u, p_grow, flag in zip(events.T, grid, flags.T):
        np.add(rel, np.greater_equal(u, p_grow[rel], out=flag), out=rel)


def _fold(
    params: Params, events: np.ndarray, holds: np.ndarray, flags: np.ndarray, b: np.ndarray,
    layer: int, c: np.ndarray, t: np.ndarray,
) -> np.ndarray:
    """Each trial's jumps to fixation in a window; its conversions and clock in place.

    ``events`` and ``holds`` hold each trial's k event uniforms and Exp(1)
    draws, and ``flags`` whether each jump blued a red; ``b`` is the blue
    count before the first jump, ``layer`` the layer at it and ``t`` the
    clock before it.  The fold advances ``b`` past the window's last jump,
    adds each trial's conversions into ``c`` and writes its clock into
    ``t``.  One cumsum of the flags gives b after each jump, and from it b
    before, r = layer - 2b and the scalar loop's IEEE expressions.  A trial
    fixates at its first jump after which no red is left, where 2b is that
    jump's layer + 1; it counts its jumps up to that one (k + 1 if none),
    and only those add conversions (``u >= p_grow + b / denom``, which implies
    a blue) and holding times (``E / (r * denom)``, written over the draws in
    ``holds``), so the jumps it stepped on with form no E / 0.  One
    left-to-right cumsum, whose first step is t plus the first holding time,
    adds them to the clock in jump order, and the clock is read at the last
    counted jump.  The fold holds three float and two bool arrays of the
    window's shape.
    """
    k = flags.shape[1]
    blue = np.cumsum(flags, axis=1, dtype=np.float64)
    blue += b[:, None]  # after each jump
    b[:] = blue[:, -1]
    layers = np.arange(layer, layer + k)
    # each trial's last counted jump: its fixation (2b = layer + 1 after it) or past the window
    ends = np.ones((len(t), k + 1), dtype=bool)
    np.equal(blue, (layers + 1) / 2, out=ends[:, :k])
    jumps = ends.argmax(axis=1) + 1
    blue -= flags  # before each jump
    denom = np.add(blue, params.total_vertices - layers)
    denom *= params.lam
    denom += blue
    denom += params.conversion_rate
    r = np.multiply(blue, -2.0)  # layer - 2b, exact in doubles
    r += layers
    counted = np.arange(k) < jumps[:, None]
    clock = np.divide(holds, np.multiply(r, denom, out=r), out=holds, where=counted)
    clock[:, 0] += t  # the sum's first step: every trial counts its first jump
    t[:] = np.cumsum(clock, axis=1, out=clock)[np.arange(len(t)), np.minimum(jumps, k) - 1]
    # the thresholds, with lambda*w in r's buffer
    p_grow = np.add(blue, params.total_vertices - layers, out=r)
    p_grow *= params.lam
    p_grow /= denom
    p_grow += np.divide(blue, denom, out=blue)
    converted = np.greater_equal(events, p_grow, out=ends[:, :k])
    converted &= counted
    c += np.count_nonzero(converted, axis=1)
    return jumps


def check_trajectory(
    rows: Iterable[tuple[float, PopulationState, EventKind]], params: Params
) -> None:
    """Raise AssertionError unless a trajectory is a path the law can take.

    ``rows`` are its jumps as (time, state, event) rows, such as the
    :class:`JumpRecord` values :func:`run_to_fixation` passes its ``on_jump`` or
    :func:`read_trajectory_csv` yields; the path starts at the initial
    state ``params`` implies.  A jump is legal only when its event's rate in
    the state it leaves is positive, lambda*r*w for GROW, r*b for CHASE and
    alpha*r for CONVERT, and it lands on that event's target.  So every state
    has red before it is left, counts stay non-negative and sum to the vertex
    count, and the layer r + 2b rises by one per jump.  A jump's time may
    equal the last one's only where the clock loses even the longest holding
    time the state it leaves can draw, 53 log 2 / (r * (lambda*w + b + alpha)).
    Every time is finite, as :class:`Params` bounds every clock.
    """
    prev = initial_state(params)
    lam, a, longest = params.lam, params.conversion_rate, 53 * math.log(2)
    prev_time = 0.0
    jumps = 0
    for t, state, event in rows:
        jumps += 1
        r, b, w = prev
        blued = (r - 1, b + 1, w)  # a chase and a conversion both blue one red
        rate, target = {
            EventKind.GROW: (lam * r * w, (r + 1, b, w - 1)),
            EventKind.CHASE: (r * b, blued),
            EventKind.CONVERT: (a * r, blued),
        }.get(event, (0, None))
        if not (rate > 0 and state == target):
            raise AssertionError(f"jump {jumps}: illegal transition {prev} -> {state} ({event})")
        # prev has red, so its total rate is positive
        if not (t > prev_time or t == prev_time == prev_time + longest / (r * (lam * w + b + a))):
            raise AssertionError(f"jump {jumps}: times are not strictly increasing")
        if not math.isfinite(t):  # the tie rule holds at infinity
            raise AssertionError(f"jump {jumps}: time is not finite")
        prev, prev_time = state, t
    if jumps == 0:
        raise AssertionError("trajectory has no jumps")
    if prev.r != 0:
        raise AssertionError("trajectory does not end at fixation")


# one trajectory row per jump; the initial state is implied by the parameters
TRAJECTORY_FIELDS = ("jump_index", "time", "r", "b", "w", "event")


def trajectory_row(index: int, record: JumpRecord) -> str:
    """The CSV line of jump ``index``, in :data:`TRAJECTORY_FIELDS` order;
    the time in its float's shortest round-trip form."""
    t, (r, b, w), event = record
    return f"{index},{t!r},{r},{b},{w},{event.value}\n"


def trajectory_csv(records: Iterable[JumpRecord]) -> str:
    """The header line, then one :func:`trajectory_row` per jump."""
    rows = (trajectory_row(i, record) for i, record in enumerate(records, start=1))
    return ",".join(TRAJECTORY_FIELDS) + "\n" + "".join(rows)


def read_trajectory_csv(lines: Iterable[str]) -> Iterator[JumpRecord]:
    """Yield the jump records of a trajectory CSV's lines, each with its newline.

    The header comes first, then each line must be the :func:`trajectory_row`
    of the values it holds, so each number is the writer's own text for its
    value and a blank, padded or unended line is malformed.  One line is held
    at a time: pass an open file (``newline=""`` keeps its line ends) or
    ``text.splitlines(keepends=True)``.  :func:`check_trajectory` checks the
    records themselves.
    """
    lines = iter(lines)
    header = next(lines, "")
    if header != trajectory_csv([]):
        raise ParameterError(f"unexpected trajectory header: {header!r}")
    expected = 0
    for expected, line in enumerate(lines, start=1):
        try:
            idx, t, r, b, w, event = line.removesuffix("\n").split(",")
            index = int(idx)
            record = JumpRecord(float(t), PopulationState(int(r), int(b), int(w)), EventKind(event))
        except ValueError as exc:
            raise ParameterError(f"malformed trajectory row: {line!r} ({exc})") from None
        if line != trajectory_row(index, record):
            raise ParameterError(f"malformed trajectory row: {line!r}")
        if index != expected:
            raise ParameterError(f"jump_index {idx} out of order (expected {expected})")
        yield record
    if expected == 0:
        raise ParameterError("trajectory CSV has no data rows")

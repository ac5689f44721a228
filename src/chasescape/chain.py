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
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .params import ParameterError, Params, ResourceLimitError
from .rng import fill_windows, streams

# cap on the jumps a recorded run may make (2n + 1 at most), refused before
# the first jump: at about 272 bytes per JumpRecord, 2^19 jumps is 136 MiB
MAX_RECORDED_JUMPS = 1 << 19

_BUFFER_CHUNK = 1 << 16  # even, so paired draws never straddle a refill
# uniforms per row of a lockstep window (128 jumps)
_WINDOW = 256
# fewest live trials a lockstep step serves; with fewer, the scalar loop is cheaper
_LOCKSTEP_MIN_LIVE = 32
# trials per lockstep chunk; with windows of at most _WINDOW uniforms a
# chunk holds at most 2^16 of them (512 KiB) at any n
_CHUNK_TRIALS = 256


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
    params: Params, rng: np.random.Generator, records: list[JumpRecord] | None = None
) -> FixationResult:
    """Simulate until no red vertices remain.

    Each jump consumes exactly two uniforms in fixed order (event pick, then
    holding time), drawn from the generator in blocks for speed, so the
    result is a pure function of the generator state.  The holding time is
    Exp(r * (lambda*w + b + alpha)) of the state being left.  When
    ``records`` is a list, every jump is appended to it as a
    :class:`JumpRecord`: that list is the trajectory, and
    :func:`initial_state` is where it starts.  A recorded run that could
    make more than MAX_RECORDED_JUMPS jumps raises ResourceLimitError first.
    """
    if records is not None and 2 * params.n + 1 > MAX_RECORDED_JUMPS:
        raise ResourceLimitError(
            f"a trajectory at n = {params.n} can make {2 * params.n + 1} jumps, "
            f"over the cap of {MAX_RECORDED_JUMPS} recorded jumps"
        )
    return _run_from(params, rng, initial_state(params), 0.0, 0, records)


def _run_from(
    params: Params,
    rng: np.random.Generator,
    state: PopulationState,
    fixation_time: float,
    conversions: int,
    records: list[JumpRecord] | None = None,
) -> FixationResult:
    """:func:`run_to_fixation` from ``state``, with the clock at
    ``fixation_time`` and ``conversions`` already made, reading the next
    jump's uniforms from ``rng``."""
    lam = params.lam
    a = params.conversion_rate
    r, b, w = state
    total = params.total_vertices
    log1p = math.log1p
    grow, chase, convert = EventKind.GROW, EventKind.CHASE, EventKind.CONVERT
    buf = rng.random(min(4 * total, _BUFFER_CHUNK))
    j = 0
    size = buf.size
    while r > 0:
        if j >= size:
            buf = rng.random(_BUFFER_CHUNK)
            size = buf.size
            j = 0
        u_event = buf[j]
        u_hold = buf[j + 1]
        j += 2
        denom = lam * w + b + a
        fixation_time += -log1p(-u_hold) / (r * denom)
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
        if records is not None:
            records.append(JumpRecord(fixation_time, PopulationState(r, b, w), event))
    return FixationResult.at_fixation(params, w, conversions, float(fixation_time))


def chain_block(
    params: Params, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) of count-chain trials run in lockstep.

    Trial j draws from the stream keyed by ``seeds[j]`` and gives the same
    bytes as ``run_to_fixation(params, make_rng(seeds[j]))``.  The trials
    run in chunks of ``_CHUNK_TRIALS``; within a chunk every live trial
    makes its t-th jump in the same numpy step, reading uniforms 2t (event)
    and 2t + 1 (holding time) of its own stream through the scalar loop's
    IEEE expressions; the holding times go through ``math.log1p``, which
    ``np.log1p`` differs from in the last bit.  The uniforms are read in
    windows of at most ``_WINDOW`` columns, so a trial holds O(_WINDOW)
    doubles however long it runs.  A trial leaves the step arrays at
    fixation, so no arithmetic runs on a row with no red.  A numpy step
    costs about as much as ``_LOCKSTEP_MIN_LIVE`` scalar jumps, so once
    fewer trials are live the scalar loop finishes each of them from where
    its stream stands.
    """
    white, conversions, times = empty_block(len(seeds))
    for lo in range(0, len(seeds), _CHUNK_TRIALS):
        chunk = slice(lo, lo + _CHUNK_TRIALS)
        _lockstep(params, seeds[chunk], white[chunk], conversions[chunk], times[chunk])
    return white, conversions, times


def _lockstep(
    params: Params, seeds: np.ndarray, white: np.ndarray, conversions: np.ndarray, times: np.ndarray
) -> None:
    """One chunk of :func:`chain_block`, written into its output views."""
    lam = params.lam
    a = params.conversion_rate
    total = params.total_vertices
    r0, b0 = params.initial_red_blue
    count = len(seeds)
    width = min(_WINDOW, 4 * total)
    window = np.empty((count, width))
    # live trials: their index, blue count, conversions and clock; every
    # jump raises the layer r + 2b by one, so r and w follow from b
    trial = np.arange(count)
    b = np.full(count, float(b0))
    c = np.zeros(count, dtype=np.int64)
    t = np.zeros(count)
    layer = r0 + 2 * b0
    position = 0  # in every live trial's stream, of the next jump's uniforms
    log1p = math.log1p
    while trial.size >= _LOCKSTEP_MIN_LIVE:
        live = trial.size
        col = position % width
        if col == 0:
            fill_windows(seeds[trial], position, window[:live])
        u = window[:live, col]
        log_hold = np.fromiter(map(log1p, (-window[:live, col + 1]).tolist()), np.float64, live)
        position += 2
        r = layer - 2 * b
        lw = lam * ((total - layer) + b)
        denom = lw + b
        denom += a
        # t + -x/y is t - x/y to the bit: negation is exact and division
        # is symmetric in sign
        t -= log_hold / (r * denom)
        p_grow = lw / denom
        not_grow = u >= p_grow
        c += u >= p_grow + b / denom
        b += not_grow
        layer += 1
        # only a jump that blues the last red fixates a trial
        if np.minimum.reduce(r) == 1:
            done = not_grow & (r == 1)
            if done.any():
                out = trial[done]
                white[out] = (total - layer) + b[done]
                conversions[out] = c[done]
                times[out] = t[done]
                keep = ~done
                trial, b, c, t = trial[keep], b[keep], c[keep], t[keep]
                window[: trial.size, col + 2 :] = window[:live][keep, col + 2 :]
    rngs = streams(seeds[trial], position)
    for i, blue, made, clock, rng in zip(trial.tolist(), b.tolist(), c.tolist(), t.tolist(), rngs):
        blue = int(blue)
        state = PopulationState(layer - 2 * blue, blue, (total - layer) + blue)
        res = _run_from(params, rng, state, clock, made)
        white[i], conversions[i], times[i] = res.white_survivors, res.conversions, res.fixation_time


def check_trajectory(
    rows: Iterable[tuple[float, PopulationState, EventKind]], params: Params
) -> None:
    """Raise AssertionError unless a trajectory satisfies every invariant.

    ``rows`` are its jumps as (time, state, event) rows, such as the
    :class:`JumpRecord` list :func:`run_to_fixation` fills or
    :func:`read_trajectory_csv` returns; the path starts at the initial
    state ``params`` implies.  Every legal transition conserves the vertex
    count and advances the layer index r + 2b by exactly one, so it also
    bounds the jump count by 2 * (vertex count).
    """
    prev = initial_state(params)
    total = params.total_vertices
    prev_time = 0.0
    jumps = 0
    for t, state, event in rows:
        jumps += 1
        if not t > prev_time:
            raise AssertionError(f"jump {jumps}: times are not strictly increasing")
        if min(state) < 0 or sum(state) != total:
            raise AssertionError(f"jump {jumps} breaks conservation: {state}")
        if event is EventKind.GROW:
            ok = state == (prev.r + 1, prev.b, prev.w - 1)
        else:
            ok = state == (prev.r - 1, prev.b + 1, prev.w)
        if not ok:
            raise AssertionError(f"jump {jumps}: illegal transition {prev} -> {state} ({event})")
        if event is EventKind.CONVERT and params.conversion_rate == 0.0:
            raise AssertionError(f"jump {jumps}: conversion while conversion is off")
        prev, prev_time = state, t
    if jumps == 0:
        raise AssertionError("trajectory has no jumps")
    if prev.r != 0:
        raise AssertionError("trajectory does not end at fixation")


# one trajectory row per jump; the initial state is implied by the parameters
TRAJECTORY_FIELDS = ("jump_index", "time", "r", "b", "w", "event")


def trajectory_rows(records: Iterable[JumpRecord]) -> Iterator[tuple]:
    """Each jump's values in :data:`TRAJECTORY_FIELDS` order."""
    for i, (t, (r, b, w), event) in enumerate(records, start=1):
        yield i, t, r, b, w, event.value


def write_trajectory_csv(records: Iterable[JumpRecord], stream: TextIO) -> None:
    """One row per jump; floats in their shortest round-trip form."""
    stream.write(",".join(TRAJECTORY_FIELDS) + "\n")
    for row in trajectory_rows(records):
        stream.write(",".join(map(str, row)) + "\n")


def read_trajectory_csv(stream: TextIO) -> list[JumpRecord]:
    """Parse rows back into jump records, checking the jump_index column.

    :func:`check_trajectory` checks the records themselves.
    """
    header = stream.readline().rstrip("\n")
    if header != ",".join(TRAJECTORY_FIELDS):
        raise ParameterError(f"unexpected trajectory header: {header!r}")
    rows = []
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(TRAJECTORY_FIELDS):
            raise ParameterError(f"malformed trajectory row: {raw!r}")
        idx, t, r, b, w, event = fields
        try:
            index = int(idx)
            record = JumpRecord(float(t), PopulationState(int(r), int(b), int(w)), EventKind(event))
        except ValueError as exc:
            raise ParameterError(f"malformed trajectory row: {raw!r} ({exc})") from None
        if index != len(rows) + 1:
            raise ParameterError(f"jump_index {idx} out of order (expected {len(rows) + 1})")
        rows.append(record)
    if not rows:
        raise ParameterError("trajectory CSV has no data rows")
    return rows

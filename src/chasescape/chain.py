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
from .rng import streams, uniform_tuples

# cap on the jumps a recorded run may make (2n + 1 at most), refused before
# the first jump: at about 272 bytes per JumpRecord, 2^19 jumps is 136 MiB
MAX_RECORDED_JUMPS = 1 << 19

# uniforms per row of a lockstep window (128 jumps)
_WINDOW = 256
# jumps the lockstep decides before it folds their conversions and clock
_FOLD = 32
# fewest trials a chunk runs in lockstep; a smaller chunk runs the scalar loop
# once per trial.  At lambda = 1, alpha = 2 the two break even at 34 to 38
# trials at n = 50, 24 to 27 at n = 200 and 18 to 20 at n = 1000 (33 to 37
# before the fold)
_LOCKSTEP_MIN_LIVE = 32
# trials per chunk of a block; with windows of at most _WINDOW uniforms a
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
    holding time), read through :func:`rng.uniform_tuples` in windows capped
    by the jumps that can remain, so the result is a pure function of the
    generator state.  The holding time is Exp(r * (lambda*w + b + alpha)) of
    the state being left.  When ``records`` is a list, every jump is appended
    to it as a :class:`JumpRecord`: that list is the trajectory, and
    :func:`initial_state` is where it starts.  A recorded run that could
    make more than MAX_RECORDED_JUMPS jumps raises ResourceLimitError first.
    """
    if records is not None and 2 * params.n + 1 > MAX_RECORDED_JUMPS:
        raise ResourceLimitError(
            f"a trajectory at n = {params.n} can make {2 * params.n + 1} jumps, "
            f"over the cap of {MAX_RECORDED_JUMPS} recorded jumps"
        )
    lam = params.lam
    a = params.conversion_rate
    r, b, w = initial_state(params)
    fixation_time, conversions = 0.0, 0
    log1p = math.log1p
    grow, chase, convert = EventKind.GROW, EventKind.CHASE, EventKind.CONVERT
    # every jump lowers 2 * w + r by one, so no more jumps remain
    pairs = uniform_tuples(rng, 2, 2 * w + r)
    while r > 0:
        u_event, u_hold = next(pairs)
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
    return FixationResult.at_fixation(params, w, conversions, fixation_time)


def chain_block(
    params: Params, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) of count-chain trials, in chunks of ``_CHUNK_TRIALS``.

    Trial j draws from the stream keyed by ``seeds[j]`` and gives the same
    bytes as ``run_to_fixation(params, make_rng(seeds[j]))``.  A chunk of
    fewer than ``_LOCKSTEP_MIN_LIVE`` trials runs :func:`run_to_fixation` per
    trial; any other runs in lockstep until every trial has fixated.
    There every live trial makes its t-th jump in the same numpy step, which
    reads uniform 2t (event) of its own stream and decides only whether the
    jump grows red or blues a red, with the scalar loop's IEEE expressions.
    Conversions and the clock need not be known jump by jump: every
    ``_FOLD`` jumps, and for a trial at the jump where it fixates, a fold
    recomputes them for the block from the stored flags and uniforms 2t + 1
    (holding time), with one ``math.log1p`` map over the whole block (which
    ``np.log1p`` differs from in the last bit).  The uniforms are read in
    windows of at most ``_WINDOW`` columns, so a trial holds O(_WINDOW)
    doubles however long it runs.  A trial leaves the step arrays at
    fixation, so no arithmetic runs on a row with no red.
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

    A jump runs seven ufuncs into per-chunk buffers: it stores whether the
    red count fell, ``u >= p_grow``, in ``flags`` and adds that to b.  Only
    the least r over the live trials tells whether one can fixate, so r is
    computed again only from the jump at which the least r could reach 1.
    :func:`_fold` computes the conversions and clock of a block of ``_FOLD``
    jumps at its last jump, and for each trial at the jump where it fixates;
    a window holds whole blocks, so a jump's place in its block is its column's.
    """
    lam = params.lam
    a = params.conversion_rate
    total = params.total_vertices
    r0, b0 = params.initial_red_blue
    count = len(seeds)
    width = -(-min(_WINDOW, 4 * total) // (2 * _FOLD)) * (2 * _FOLD)  # whole fold blocks
    # each live trial's row of uniforms and of the flags of its block's jumps;
    # a finished trial leaves these views, the step arrays and the four below
    rows = np.empty((count, width))
    flags = np.empty((count, _FOLD), dtype=bool)
    lw, denom, p_grow = np.empty(count), np.empty(count), np.empty(count)
    # live trials: their index, blue count, conversions and clock at the last
    # fold; every jump raises the layer r + 2b by one, so r and w follow from b
    trial = np.arange(count)
    b = np.full(count, float(b0))
    c = np.zeros(count, dtype=np.int64)
    t = np.zeros(count)
    first = layer = check = r0 + 2 * b0  # no trial fixates before layer ``check``
    while trial.size:
        position = 2 * (layer - first)  # of this jump's uniforms in every live stream
        col = position % width
        if col == 0:
            for row, rng in zip(rows, streams(seeds[trial], position)):
                rng.random(out=row)
        j = col // 2 % _FOLD  # the jump's place in its fold block
        start = col - 2 * j  # the block's first column
        np.add(b, total - layer, out=lw)
        np.multiply(lw, lam, out=lw)
        np.add(lw, b, out=denom)
        np.add(denom, a, out=denom)
        np.divide(lw, denom, out=p_grow)
        not_grow = np.greater_equal(rows[:, col], p_grow, out=flags[:, j])
        # only a jump that blues the last red fixates a trial, and the least
        # r falls by at most one per jump
        done = None
        if layer >= check:
            r = layer - 2 * b
            least = int(np.minimum.reduce(r))
            check = layer + least - 1
            if least == 1:
                done = not_grow & (r == 1)
        np.add(b, not_grow, out=b)
        layer += 1
        if done is not None and done.any():
            out = trial[done]
            c_out, times[out] = _fold(params, rows[done, start : col + 2], flags[done, : j + 1],
                                      b[done], layer - j - 1, t[done])
            white[out] = (total - layer) + b[done]
            conversions[out] = c[done] + c_out
            keep = ~done
            trial, b, c, t = trial[keep], b[keep], c[keep], t[keep]
            live = trial.size
            rows[:live, start:] = rows[keep, start:]
            flags[:live, : j + 1] = flags[keep, : j + 1]
            rows, flags, lw, denom, p_grow = (x[:live] for x in (rows, flags, lw, denom, p_grow))
        if j == _FOLD - 1:
            c_add, t = _fold(params, rows[:, start : col + 2], flags, b, layer - _FOLD, t)
            c += c_add


def _fold(
    params: Params, uniforms: np.ndarray, flags: np.ndarray, b: np.ndarray, layer: int,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Conversions of some trials over k stored jumps, and their clocks after them.

    ``uniforms`` holds each trial's 2k (event, holding time) uniforms and
    ``flags`` whether each jump blued a red; ``b`` is the blue count after
    the last jump, ``layer`` the layer at the first and ``t`` the clock
    before it.  Each jump's b comes back from the flags, and with it the
    scalar loop's IEEE expressions over the whole block: a conversion is
    ``u >= p_grow + b / denom``, which implies a decrease, and a holding
    time is ``-log1p(-u) / (r * denom)`` with ``math.log1p``.  One
    left-to-right cumsum adds the holding times to the clock in jump order.
    """
    k = flags.shape[1]
    hold = uniforms[:, 1::2]
    # a memoryview yields the doubles as floats one at a time, with no list
    logs = np.fromiter(map(math.log1p, memoryview((-hold).ravel())), np.float64, hold.size)
    blue = np.cumsum(flags, axis=1, dtype=np.float64)
    first = b - blue[:, -1]
    blue -= flags
    blue += first[:, None]  # before each jump
    layers = np.arange(layer, layer + k)
    p_grow = np.add(blue, params.total_vertices - layers)
    p_grow *= params.lam
    denom = p_grow + blue
    denom += params.conversion_rate
    p_grow /= denom
    scratch = np.divide(blue, denom)
    p_grow += scratch
    converted = np.count_nonzero(uniforms[:, 0::2] >= p_grow, axis=1)
    # 2b - layer is -r, and x / -y is -x / y to the bit
    np.multiply(blue, 2.0, out=scratch)
    scratch -= layers
    scratch *= denom
    clock = np.empty((len(t), k + 1))
    clock[:, 0] = t
    np.divide(logs.reshape(hold.shape), scratch, out=clock[:, 1:])
    return converted, np.cumsum(clock, axis=1)[:, -1]


def check_trajectory(
    rows: Iterable[tuple[float, PopulationState, EventKind]], params: Params
) -> None:
    """Raise AssertionError unless a trajectory is a path the law can take.

    ``rows`` are its jumps as (time, state, event) rows, such as the
    :class:`JumpRecord` list :func:`run_to_fixation` fills or
    :func:`read_trajectory_csv` returns; the path starts at the initial
    state ``params`` implies.  A jump is legal only when its event's rate in
    the state it leaves is positive, lambda*r*w for GROW, r*b for CHASE and
    alpha*r for CONVERT, and it lands on that event's target.  So every state
    has red before it is left, counts stay non-negative and sum to the vertex
    count, and the layer r + 2b rises by one per jump.  A jump's time may
    equal the last one's only where the clock loses even the longest holding
    time the state it leaves can draw, 53 log 2 / (r * (lambda*w + b + alpha)).
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

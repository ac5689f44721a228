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
from .rng import streams

# cap on the jumps a recorded run may make (2n + 1 at most), refused before
# the first jump: at about 272 bytes per JumpRecord, 2^19 jumps is 136 MiB
MAX_RECORDED_JUMPS = 1 << 19

# uniforms per window of a chain stream: the event uniforms of _WINDOW // 2
# jumps, then those jumps' Exp(1) holding times
_WINDOW = 256
# jumps per lockstep block: a trial that fixates in it steps on to its end, and
# one fold then finds each trial's fixation, conversions and clock
_FOLD = 64
# fewest trials a chunk runs in lockstep; a smaller chunk runs the scalar loop
# once per trial.  At lambda = 1, alpha = 2 they break even at 24 to 32 trials
# at n = 50, 200 and 1000, and at 32 the lockstep takes 0.83 to 0.94 of the
# scalar time (medians of 11 interleaved pairs on 2 x86-64 CPUs)
_LOCKSTEP_MIN_LIVE = 32
# trials per chunk of a block; with one window of _WINDOW draws per trial a
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

    The stream is read in whole windows of ``_WINDOW`` draws: window k holds
    the event uniforms of jumps 128k ... 128k + 127 (``random``), then those
    jumps' Exp(1) draws (``standard_exponential(method="inv")``, which is
    ``-log1p(-u)`` in libm), so the result is a pure function of the
    generator state.  The holding time is E / (r * (lambda*w + b + alpha)) of
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
            if records is not None:
                records.append(JumpRecord(fixation_time, PopulationState(r, b, w), event))
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
    trial; any other runs in lockstep until every trial has fixated.
    There every live trial makes its t-th jump in the same numpy step, which
    reads its event uniform from the trial's window row and decides only
    whether the jump grows red or blues a red, with the scalar loop's IEEE
    expressions.  After each block of ``_FOLD`` jumps a fold finds the jump at
    which each trial fixated and recomputes conversions and the clock up to it
    from the stored flags, event uniforms and Exp(1) draws; a trial that
    fixated inside a block steps on to the block's end and leaves after it.
    A row holds one window of ``_WINDOW`` draws, so a trial holds O(_WINDOW)
    doubles however long it runs.
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
    red count fell, ``u >= p_grow``, in ``flags`` and adds that to b.  Each
    trial's stream is re-keyed once per window of ``_WINDOW // 2`` jumps,
    which fills its row: the event uniforms in the first half, the Exp(1)
    draws in the second.  A block is k = min(_FOLD, 2 * total - layer) jumps
    of every live trial, as none fixates above layer 2 * total, and a window
    holds whole blocks.  :func:`_fold` then finds each trial's fixation, and
    those that fixated leave.  Stepping on to the block's end is safe: a grow
    lowers w by one, at w = 0 p_grow = 0 so every later jump blues, and
    denom >= b + alpha > 0 in both starts.
    """
    lam = params.lam
    a = params.conversion_rate
    total = params.total_vertices
    r0, b0 = params.initial_red_blue
    count = len(seeds)
    half = _WINDOW // 2
    # each live trial's window and the flags of its block's jumps; a finished
    # trial leaves these views, the step arrays and the four below
    rows = np.empty((count, _WINDOW))
    flags = np.empty((count, _FOLD), dtype=bool)
    lw, denom, p_grow = np.empty(count), np.empty(count), np.empty(count)
    # live trials: their index, blue count, conversions and clock at the last
    # fold; every jump raises the layer r + 2b by one, so r and w follow from b
    trial = np.arange(count)
    b = np.full(count, float(b0))
    c = np.zeros(count, dtype=np.int64)
    t = np.zeros(count)
    first = layer = r0 + 2 * b0
    while trial.size:
        col = (layer - first) % half  # the block's first column in its window
        if col == 0:
            for row, rng in zip(rows, streams(seeds[trial], 2 * (layer - first))):
                rng.random(out=row[:half])
                rng.standard_exponential(out=row[half:], method="inv")
        k = min(_FOLD, 2 * total - layer)
        for j in range(k):
            np.add(b, total - layer - j, out=lw)
            np.multiply(lw, lam, out=lw)
            np.add(lw, b, out=denom)
            np.add(denom, a, out=denom)
            np.divide(lw, denom, out=p_grow)
            not_grow = np.greater_equal(rows[:, col + j], p_grow, out=flags[:, j])
            np.add(b, not_grow, out=b)
        jumps, c_add, t = _fold(params, rows[:, col : col + k],
                                rows[:, half + col : half + col + k], flags[:, :k], b, layer, t)
        c += c_add
        done = jumps <= k
        out = trial[done]
        # at fixation r = 0, so the layer is 2b
        white[out] = total - (layer + jumps[done]) // 2
        conversions[out], times[out] = c[done], t[done]
        layer += k
        keep = ~done
        trial, b, c, t = trial[keep], b[keep], c[keep], t[keep]
        live = trial.size
        rows[:live, col + k :] = rows[keep, col + k :]
        rows, flags, lw, denom, p_grow = (x[:live] for x in (rows, flags, lw, denom, p_grow))


def _fold(
    params: Params, events: np.ndarray, holds: np.ndarray, flags: np.ndarray, b: np.ndarray,
    layer: int, t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jumps to fixation, conversions and clocks of some trials over k stored jumps.

    ``events`` and ``holds`` hold each trial's k event uniforms and Exp(1)
    draws, and ``flags`` whether each jump blued a red; ``b`` is the blue
    count after the last jump, ``layer`` the layer at the first and ``t`` the
    clock before it.  Each jump's b, r = layer - 2b and the scalar loop's IEEE
    expressions come back from the flags.  A trial fixates at its first jump
    that blues its last red, ``flags & (r == 1)``; it counts its jumps up to
    that one (k + 1 if none), and only those add conversions (``u >= p_grow +
    b / denom``, which implies a blue) and holding times (``E / (r * denom)``),
    so the jumps it stepped on with form no E / 0.  One left-to-right cumsum,
    whose first step is t plus the first holding time, adds them to the clock
    in jump order, and +0.0 for each uncounted jump.
    """
    k = flags.shape[1]
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
    p_grow += np.divide(blue, denom)
    # r is layer - 2b, exact in doubles, in blue's buffer
    r = np.multiply(blue, -2.0, out=blue)
    r += layers
    # each trial's last counted jump: its fixation, or past the block
    ends = np.ones((len(t), k + 1), dtype=bool)
    np.logical_and(flags, r == 1, out=ends[:, :k])
    jumps = ends.argmax(axis=1) + 1
    counted = np.arange(k) < jumps[:, None]
    converted = np.count_nonzero((events >= p_grow) & counted, axis=1)
    clock = np.zeros_like(r)
    np.divide(holds, np.multiply(r, denom, out=r), out=clock, where=counted)
    clock[:, 0] += t  # the sum's first step: every trial counts its first jump
    return jumps, converted, np.cumsum(clock, axis=1, out=clock)[:, -1]


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

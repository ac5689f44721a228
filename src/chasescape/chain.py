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

from .params import ParameterError, Params

_BUFFER_CHUNK = 1 << 16  # even, so paired draws never straddle a refill


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
    :func:`initial_state` is where it starts.
    """
    lam = params.lam
    a = params.conversion_rate
    r, b, w = initial_state(params)
    total = params.total_vertices
    fixation_time = 0.0
    conversions = 0
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

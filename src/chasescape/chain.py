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
from typing import Iterable, NamedTuple

import numpy as np

from .params import Params

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


class JumpRecord(NamedTuple):
    time: float
    state: PopulationState
    event: EventKind


@dataclass(frozen=True)
class Trajectory:
    """One realization with every jump retained."""

    initial: PopulationState
    records: tuple[JumpRecord, ...]

    def states(self) -> list[PopulationState]:
        return [self.initial] + [rec.state for rec in self.records]

    def fixation_result(self) -> FixationResult:
        last = self.records[-1]
        conversions = sum(1 for rec in self.records if rec.event is EventKind.CONVERT)
        return FixationResult(
            white_survivors=last.state.w,
            blue_total=last.state.b,
            conversions=conversions,
            fixation_time=last.time,
            jump_count=len(self.records),
        )


def initial_state(params: Params) -> PopulationState:
    r0, b0 = params.initial_red_blue
    return PopulationState(r0, b0, params.n)


def run_to_fixation(
    params: Params, rng: np.random.Generator, _records: list | None = None
) -> FixationResult:
    """Simulate until no red vertices remain.

    Each jump consumes exactly two uniforms in fixed order (event pick, then
    holding time), drawn from the generator in blocks for speed, so the
    result is a pure function of the generator state.  The holding time is
    Exp(r * (lambda*w + b + alpha)) of the state being left.  When
    ``_records`` is a list, every jump is appended to it as a
    :class:`JumpRecord`.
    """
    lam = params.lam
    a = params.conversion_rate
    r, b, w = initial_state(params)
    total = params.total_vertices
    fixation_time = 0.0
    conversions = 0
    jumps = 0
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
        jumps += 1
        if _records is not None:
            _records.append(JumpRecord(fixation_time, PopulationState(r, b, w), event))
    assert jumps <= 2 * total  # each vertex reds at most once and blues at most once
    return FixationResult(w, total - w, conversions, float(fixation_time), jumps)


def record_trajectory(params: Params, rng: np.random.Generator) -> Trajectory:
    """Like :func:`run_to_fixation` but retaining every jump record."""
    records: list[JumpRecord] = []
    run_to_fixation(params, rng, records)
    return Trajectory(initial=initial_state(params), records=tuple(records))


def check_trajectory(
    rows: Trajectory | Iterable[tuple[float, PopulationState, EventKind]], params: Params
) -> None:
    """Raise AssertionError unless a trajectory satisfies every invariant.

    ``rows`` is a :class:`Trajectory` or its jumps as (time, state, event)
    rows, as :func:`chasescape.harness.read_trajectory_csv` returns them;
    either way the path starts at the initial state ``params`` implies.
    Every legal transition conserves the vertex count and advances the
    layer index r + 2b by exactly one, so it also bounds the jump count
    by 2 * (vertex count).
    """
    prev = initial_state(params)
    if isinstance(rows, Trajectory):
        if rows.initial != prev:
            raise AssertionError("trajectory does not start at the initial condition")
        rows = rows.records
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

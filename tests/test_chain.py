import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasescape import (
    InitMode,
    ParameterError,
    Params,
    exact_distribution_W,
    make_rng,
    run_to_fixation,
    stream_seed,
)
from chasescape import chain
from chasescape.analytics import prob_gamma_less_exp_closed, stats_wilson_ci
from chasescape.birth_death import (
    sample_limit_sum,
    sample_terminal_gamma_process,
    simulate_birth_times,
    simulate_death_times,
)
from chasescape.chain import (
    EventKind,
    JumpRecord,
    PopulationState,
    chain_block,
    check_trajectory,
    initial_state,
)
from chasescape.params import MAX_N, MAX_RATE, MIN_RATE, ResourceLimitError
from chasescape.rng import stream_seeds

KORTCHEMSKI = InitMode.KORTCHEMSKI


def _recorded(params, rng):
    records = []
    run_to_fixation(params, rng, records)
    return records


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            Params(n=0, lam=1.0, alpha=1.0)
        with pytest.raises(ParameterError):
            Params(n=10, lam=0.0, alpha=1.0)
        with pytest.raises(ParameterError):
            Params(n=10, lam=-1.0, alpha=1.0)
        with pytest.raises(ParameterError):
            Params(n=10, lam=1.0, alpha=-0.5)
        with pytest.raises(ParameterError):
            Params(n=10, lam=math.inf, alpha=1.0)

    @pytest.mark.parametrize("field", ["n", "lam", "alpha"])
    def test_rejects_booleans(self, field):
        # bool subclasses int, so True would otherwise pass as 1
        kwargs = {"n": 10, "lam": 1.0, "alpha": 1.0, field: True}
        with pytest.raises(ParameterError):
            Params(**kwargs)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda rng: Params(10, 1.0, True, KORTCHEMSKI), id="Params-alpha"),
            pytest.param(lambda rng: exact_distribution_W(10, True, 1.0), id="exact-lam"),
            pytest.param(
                lambda rng: exact_distribution_W(10, 1.0, True, KORTCHEMSKI), id="exact-alpha"
            ),
            pytest.param(
                lambda rng: exact_distribution_W(10, 1.0, math.nan, KORTCHEMSKI), id="exact-nan"
            ),
            pytest.param(
                lambda rng: exact_distribution_W(10, 1.0, -3.0, KORTCHEMSKI), id="exact-negative"
            ),
            pytest.param(lambda rng: simulate_death_times(True, 1.0, rng), id="death-n"),
            pytest.param(lambda rng: simulate_death_times(3, True, rng), id="death-lam"),
            pytest.param(lambda rng: simulate_birth_times(True, 3, rng), id="birth-alpha"),
            pytest.param(lambda rng: simulate_birth_times(1.0, True, rng), id="birth-k"),
            pytest.param(
                lambda rng: sample_terminal_gamma_process(True, 1.0, rng), id="process-alpha"
            ),
            pytest.param(
                lambda rng: sample_terminal_gamma_process(1.0, True, rng), id="process-t"
            ),
            pytest.param(lambda rng: sample_limit_sum(True, 1.0, rng), id="limit-sum-alpha"),
            pytest.param(lambda rng: sample_limit_sum(1.0, True, rng), id="limit-sum-T"),
            pytest.param(lambda rng: prob_gamma_less_exp_closed(True), id="closed-form"),
            pytest.param(lambda rng: stats_wilson_ci(True, 10), id="wilson-successes"),
            pytest.param(lambda rng: stats_wilson_ci(1, True), id="wilson-trials"),
        ],
    )
    def test_every_entry_point_refuses_bad_rates_and_counts(self, call):
        # bool subclasses int, so each check must refuse it explicitly
        with pytest.raises(ParameterError):
            call(make_rng(0))

    def test_rejects_standard_alpha_zero(self):
        # no blue seed and no conversion: the process would never fixate
        with pytest.raises(ParameterError):
            Params(n=10, lam=1.0, alpha=0.0)

    def test_kortchemski_alpha_zero_allowed(self):
        p = Params(n=10, lam=1.0, alpha=0.0, init_mode=InitMode.KORTCHEMSKI)
        assert p.total_vertices == 12
        assert p.conversion_rate == 0.0

    def test_kortchemski_ignores_alpha_in_dynamics(self):
        p = Params(n=10, lam=1.0, alpha=5.0, init_mode=InitMode.KORTCHEMSKI)
        assert p.conversion_rate == 0.0

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_rates_at_the_bounds_are_accepted(self, mode):
        for rate in (MIN_RATE, MAX_RATE):
            assert Params(10, rate, rate, mode).lam == rate

    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize(
        "lam, alpha",
        [(MAX_RATE * 1.000001, 1.0), (MIN_RATE / 1.000001, 1.0), (1e308, 1.0), (5e-324, 1.0),
         (1.0, MAX_RATE * 1.000001), (1.0, MIN_RATE / 1.000001), (1.0, 1e-320)],
    )
    def test_rates_outside_the_bounds_are_refused(self, mode, lam, alpha):
        with pytest.raises(ParameterError, match="must lie in"):
            Params(10, lam, alpha, mode)

    def test_rejects_n_above_cap(self):
        with pytest.raises(ParameterError):
            Params(n=10**8 + 1, lam=1.0, alpha=1.0)


class TestInitialState:
    def test_standard(self):
        assert initial_state(Params(100, 1.0, 1.0)) == (1, 0, 100)

    def test_kortchemski(self):
        p = Params(100, 1.0, 1.0, InitMode.KORTCHEMSKI)
        assert initial_state(p) == (1, 1, 100)

    def test_smallest_instance(self):
        assert initial_state(Params(1, 1.0, 1.0)) == (1, 0, 1)


@given(
    n=st.integers(1, 60),
    lam=st.floats(0.1, 5.0),
    alpha=st.floats(0.1, 5.0),
    mode=st.sampled_from(list(InitMode)),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_recorded_trajectories_pass_the_checker(n, lam, alpha, mode, seed):
    p = Params(n, lam, alpha, mode)
    records = _recorded(p, make_rng(seed))
    check_trajectory(records, p)
    # what the checker's legal-transition test implies: the layer index
    # r + 2b advances by one per jump, and at most 2 * (vertex count) jumps
    states = [initial_state(p)] + [rec.state for rec in records]
    layers = [s.r + 2 * s.b for s in states]
    assert layers == list(range(layers[0], layers[0] + len(layers)))
    assert len(records) <= 2 * p.total_vertices


@given(
    n=st.integers(1, 30),
    lam=st.floats(0.1, 5.0),
    alpha=st.floats(0.1, 5.0),
    mode=st.sampled_from(list(InitMode)),
    seed=st.integers(0, 2**32),
    event=st.sampled_from(list(EventKind)),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_the_checker_refuses_a_jump_of_rate_zero(n, lam, alpha, mode, seed, event, data):
    p = Params(n, lam, alpha, mode)
    records = _recorded(p, make_rng(seed))
    check_trajectory(records, p)
    # a jump after fixation leaves a state with no red, where every rate is 0
    _, b, w = records[-1].state
    target = (1, b, w - 1) if event is EventKind.GROW else (-1, b + 1, w)
    after = JumpRecord(records[-1].time + 1.0, PopulationState(*target), event)
    with pytest.raises(AssertionError, match="illegal transition"):
        check_trajectory(records + [after], p)
    # a red decrease relabelled as the other kind: a chase with no blue, or a
    # conversion with conversion off; the standard start has no blue, and the
    # kortchemski mode has no conversion, so every run has such a jump
    before = [initial_state(p)] + [rec.state for rec in records]
    swaps = [
        (i, EventKind.CONVERT) if rec.event is EventKind.CHASE else (i, EventKind.CHASE)
        for i, rec in enumerate(records)
        if rec.event is EventKind.CHASE and p.conversion_rate == 0.0
        or rec.event is EventKind.CONVERT and before[i].b == 0
    ]
    i, swapped = data.draw(st.sampled_from(swaps))
    with pytest.raises(AssertionError, match="illegal transition"):
        check_trajectory(_tamper(records, i, event=swapped), p)


# a chain's holding times are Exp(1) draws; the block digest is of 64 trials
# at n = 50, and the draws are 10^5 per key, read as from a fresh stream
_HOLDING_DRAWS = """
import hashlib, math, sys
from chasescape import Params, make_rng
from chasescape.chain import chain_block
from chasescape.rng import stream_seeds
key = int(sys.argv[1])
u = make_rng(key).random(10**5).tolist()
e = make_rng(key).standard_exponential(10**5, method="inv").tolist()
mismatches = sum(x != -math.log1p(-v) for x, v in zip(e, u))
block = chain_block(Params(50, 1.0, 2.0), stream_seeds(9, 0, 64))
print(mismatches, hashlib.sha256(b"".join(x.tobytes() for x in block)).hexdigest())
"""


class TestHoldingTimeDraws:
    @pytest.mark.parametrize("key", [0, 7, 2**64 - 1])
    def test_inverse_cdf_exponentials_are_libm_log1p_of_the_same_uniforms(self, key):
        # the chain reads its holding times as standard_exponential(method =
        # "inv"), which must be -math.log1p(-u) of the uniform at the same
        # stream position to the bit
        u = make_rng(key).random(10**5)
        e = make_rng(key).standard_exponential(10**5, method="inv")
        assert e.tolist() == [-math.log1p(-v) for v in u.tolist()]

    def test_chain_bytes_do_not_follow_simd_dispatch(self):
        # numpy's own log1p moves last bits with its AVX-512 kernels and not
        # without them; the Exp(1) draws and the chain's bytes do neither
        block = chain_block(Params(50, 1.0, 2.0), stream_seeds(9, 0, 64))
        digest = hashlib.sha256(b"".join(x.tobytes() for x in block)).hexdigest()
        env = {
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": "X86_V4",
            "PYTHONPATH": str(Path(chain.__file__).parents[1]),
        }
        out = subprocess.run(
            [sys.executable, "-c", _HOLDING_DRAWS, "11"], capture_output=True, text=True,
            check=True, env=env,
        ).stdout
        assert out.split() == ["0", digest]


class TestRunToFixation:
    def test_two_vertex_enumeration(self):
        # n=1, lambda=1, alpha=1: P(W=1) = P(W=0) = 1/2, E[C] = 1.25
        p = Params(1, 1.0, 1.0)
        trials = 40000
        # trial i draws from make_rng(stream_seed(11, i)), as run_to_fixation would
        w, c, _ = chain_block(p, stream_seeds(11, 0, trials))
        assert abs(w.sum() / trials - 0.5) < 3 * 0.5 / math.sqrt(trials)
        assert abs(c.sum() / trials - 1.25) < 0.02

    def test_conservation_and_bounds(self):
        p = Params(25, 0.8, 1.7)
        for i in range(200):
            res = run_to_fixation(p, make_rng(stream_seed(12, i)))
            assert res.white_survivors + res.blue_total == p.total_vertices
            assert 0 <= res.conversions <= res.blue_total
            assert res.fixation_time > 0.0
            assert res.jump_count <= 2 * p.total_vertices

    def test_bit_exact_determinism(self):
        p = Params(40, 1.0, 2.0)
        a = run_to_fixation(p, make_rng(99))
        b = run_to_fixation(p, make_rng(99))
        assert a == b

    def test_recorded_and_unrecorded_runs_agree(self):
        # n = 20000 reads hundreds of windows of uniforms
        for mode in InitMode:
            for n, seeds in ((30, (0, 5, 123)), (20000, (7,))):
                p = Params(n, 1.2, 0.9, mode)
                for seed in seeds:
                    plain = run_to_fixation(p, make_rng(seed))
                    recorded = run_to_fixation(p, make_rng(seed), [])
                    assert plain == recorded

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_a_trial_reads_no_more_pairs_than_jumps_can_remain(self, mode):
        # a trial reads whole windows of _WINDOW // 2 (event, Exp(1)) pairs up
        # to its last jump's, never one past it, so never more windows than
        # the 2n + 1 jumps that can remain at n = 20000 need
        p = Params(20000, 1.0, 2.0, mode)
        half = chain._WINDOW // 2
        limit = chain._WINDOW * -(-(2 * p.n + 1) // half)  # both starts have n white and one red
        for seed in range(3):
            rng = make_rng(stream_seed(26, seed))
            res = run_to_fixation(p, rng)
            stream = make_rng(stream_seed(26, seed)).random(limit + 1)
            (position,) = np.flatnonzero(stream == rng.random())
            assert position == chain._WINDOW * -(-res.jump_count // half) <= limit

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_first_jump_uses_the_embedded_law_and_total_rate(self, mode):
        # jump 1 reads uniform 0 (event) and the Exp(1) draw at position
        # _WINDOW // 2 (holding time), which is -log1p(-u) of that uniform
        p = Params(100, 1.0, 4.0, mode)
        r, b, w = initial_state(p)
        rate = p.lam * w + b + p.conversion_rate
        for seed in range(200):
            stream = make_rng(seed).random(chain._WINDOW)
            u_event, u_hold = stream[0], stream[chain._WINDOW // 2]
            first = _recorded(p, make_rng(seed))[0]
            assert first.time == -math.log1p(-u_hold) / (r * rate)
            assert (first.event is EventKind.GROW) == (u_event < p.lam * w / rate)

    def test_instant_conversion_probability(self):
        # P(W = n) = alpha / (lambda n + alpha); frequency vs exact
        p = Params(100, 1.0, 4.0)
        trials = 20000
        w, _, _ = chain_block(p, stream_seeds(13, 0, trials))
        hits = np.count_nonzero(w == p.n)
        target = 4.0 / 104.0
        assert abs(hits / trials - target) < 3 * math.sqrt(target * (1 - target) / trials)

    def test_kortchemski_never_converts(self):
        p = Params(15, 1.0, 3.0, InitMode.KORTCHEMSKI)
        for i in range(100):
            res = run_to_fixation(p, make_rng(stream_seed(14, i)))
            assert res.conversions == 0
            assert res.white_survivors + res.blue_total == p.n + 2

    def test_against_exact_distribution(self):
        n, trials = 12, 30000
        p = Params(n, 1.0, 2.0)
        exact = exact_distribution_W(n, 1.0, 2.0)
        w, _, _ = chain_block(p, stream_seeds(15, 0, trials))
        counts = np.bincount(w, minlength=n + 1)
        for k in range(n + 1):
            pk = exact.probabilities[k]
            se = math.sqrt(pk * (1 - pk) / trials)
            assert abs(counts[k] / trials - pk) <= 4 * se + 1e-12, f"W={k}"

    def test_embedded_chain_law_componentwise(self):
        # componentwise 3-se agreement with the exact oracle; near-empty bins
        # are Poisson-tailed, so this strict form is seed-sensitive and the
        # seed is fixed (worst component sits at 2.1 se here)
        n, trials = 50, 10**5
        p = Params(n, 1.0, 2.0)
        exact = exact_distribution_W(n, 1.0, 2.0)
        # the block draws trial i from make_rng(stream_seed(51, i)), as
        # run_to_fixation would
        w, _, _ = chain_block(p, stream_seeds(51, 0, trials))
        counts = np.bincount(w, minlength=n + 1)
        for k in range(n + 1):
            pk = exact.probabilities[k]
            se = math.sqrt(pk * (1 - pk) / trials)
            assert abs(counts[k] / trials - pk) <= max(3 * se, 2 / trials), f"W={k}"


class TestTrajectory:
    def test_invariants(self):
        p = Params(100, 1.0, 4.0)
        records = _recorded(p, make_rng(stream_seed(16, 0)))
        check_trajectory(records, p)
        assert records[-1].state.r == 0
        assert all(sum(rec.state) == 101 for rec in records)

    def test_fixation_result_consistent(self):
        # the kernel's result is what its own records end at
        p = Params(30, 1.0, 1.5)
        records = []
        res = run_to_fixation(p, make_rng(77), records)
        last = records[-1]
        assert res.white_survivors == last.state.w
        assert res.blue_total == last.state.b
        assert res.conversions == sum(rec.event is EventKind.CONVERT for rec in records)
        assert res.fixation_time == last.time
        assert res.jump_count == len(records)

    def test_kortchemski_trajectory(self):
        p = Params(20, 1.0, 0.0, InitMode.KORTCHEMSKI)
        records = _recorded(p, make_rng(5))
        check_trajectory(records, p)
        assert initial_state(p) == (1, 1, 20)
        assert all(rec.event is not EventKind.CONVERT for rec in records)

    def test_checker_accepts_plain_rows(self):
        p = Params(25, 1.0, 2.0)
        records = _recorded(p, make_rng(3))
        check_trajectory([tuple(rec) for rec in records], p)

    def test_record_run_at_max_n_is_refused_before_the_first_jump(self):
        # 2 * MAX_N + 1 jumps at about 272 bytes per record would be 54 GB
        rng, records = make_rng(0), []
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cap"):
                run_to_fixation(Params(MAX_N, 1.0, 1.0), rng, records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records == [] and peak < 1 << 20
        assert rng.random() == make_rng(0).random()  # no uniform was drawn

    def test_record_cap_counts_the_most_jumps_a_run_can_make(self, monkeypatch):
        monkeypatch.setattr(chain, "MAX_RECORDED_JUMPS", 41)
        check_trajectory(_recorded(Params(20, 1.0, 2.0), make_rng(1)), Params(20, 1.0, 2.0))
        with pytest.raises(ResourceLimitError):
            _recorded(Params(21, 1.0, 2.0), make_rng(1))


def _tamper(records, index, **changes):
    out = list(records)
    out[index] = out[index]._replace(**changes)
    return out


def test_ties_the_clock_cannot_resolve_pass_the_checker():
    # at lambda = 1e100 and alpha = 1e-100 the clock reaches about 6.6e95,
    # where every later holding time is lost in the sum, so jumps tie
    p = Params(50, MAX_RATE, MIN_RATE)
    for i in range(50):
        records = _recorded(p, make_rng(stream_seed(1, i)))
        assert any(a.time == b.time for a, b in zip(records, records[1:]))
        check_trajectory(records, p)
    # early in the run the clock still moves, so a tie there is refused
    with pytest.raises(AssertionError, match="increasing"):
        check_trajectory(_tamper(records, 1, time=records[0].time), p)


class TestCheckerRejects:
    P = Params(10, 1.0, 1.0)

    def _records(self):
        # seed 2 gives a run with several jumps
        records = _recorded(self.P, make_rng(2))
        assert len(records) >= 3
        return records

    def test_wrong_initial_state(self):
        # same vertex count, but this path starts at (1, 1, 9), not (1, 0, 10)
        other = Params(9, 1.0, 1.0, InitMode.KORTCHEMSKI)
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory(_recorded(other, make_rng(2)), self.P)

    def test_no_jumps(self):
        with pytest.raises(AssertionError, match="no jumps"):
            check_trajectory([], self.P)

    @pytest.mark.parametrize("time", [0.0, -1.0, math.nan])
    def test_times_not_increasing(self, time):
        with pytest.raises(AssertionError, match="increasing"):
            check_trajectory(_tamper(self._records(), 1, time=time), self.P)

    def test_counts_not_conserved(self):
        records = self._records()
        r, b, w = records[0].state
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory(_tamper(records, 0, state=PopulationState(r + 1, b, w)), self.P)

    def test_negative_count(self):
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory([JumpRecord(1.0, PopulationState(12, -1, 0), EventKind.GROW)], self.P)

    def test_event_contradicts_transition(self):
        records = self._records()
        flipped = EventKind.CHASE if records[0].event is EventKind.GROW else EventKind.GROW
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory(_tamper(records, 0, event=flipped), self.P)

    def test_conversion_in_kortchemski_mode(self):
        p = Params(10, 1.0, 0.0, InitMode.KORTCHEMSKI)
        records = _recorded(p, make_rng(1))
        k = next(i for i, rec in enumerate(records) if rec.event is EventKind.CHASE)
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory(_tamper(records, k, event=EventKind.CONVERT), p)

    def test_jumps_after_fixation(self):
        # this run fixates with a white site left; a GROW and then a CHASE
        # after it keep the counts legal, but no event has a positive rate
        # with no red
        records = _recorded(self.P, make_rng(stream_seed(3, 1)))
        end = records[-1]
        r, b, w = end.state
        assert r == 0 and w > 0
        appended = records + [
            JumpRecord(end.time + 1.0, PopulationState(1, b, w - 1), EventKind.GROW),
            JumpRecord(end.time + 2.0, PopulationState(0, b + 1, w - 1), EventKind.CHASE),
        ]
        with pytest.raises(AssertionError, match=f"jump {len(records) + 1}: illegal transition"):
            check_trajectory(appended, self.P)

    def test_chase_out_of_the_start(self):
        # (1, 0, 10) has no blue, so its chase rate r * b is 0
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory([JumpRecord(1.0, PopulationState(0, 1, 10), EventKind.CHASE)], self.P)

    @pytest.mark.parametrize("event", ["grow", None])
    def test_event_that_is_no_event_kind(self, event):
        records = self._records()
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory(_tamper(records, 0, event=event), self.P)

    def test_skipped_jump(self):
        records = self._records()
        with pytest.raises(AssertionError, match="illegal transition"):
            check_trajectory(records[:1] + records[2:], self.P)

    def test_not_ending_at_fixation(self):
        with pytest.raises(AssertionError, match="fixation"):
            check_trajectory(self._records()[:-1], self.P)

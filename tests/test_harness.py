import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chasescape import (
    Engine,
    Estimator,
    ExperimentConfig,
    InitMode,
    ParameterError,
    Params,
    ResourceLimitError,
    exact_distribution_W,
    make_rng,
    run_coupling,
    run_experiment,
    stream_seed,
)
from chasescape import birth_death, chain, harness
from chasescape.birth_death import coupling_block
from chasescape.chain import (
    TRAJECTORY_FIELDS,
    check_trajectory,
    read_trajectory_csv,
    run_to_fixation,
    trajectory_csv,
)
from chasescape.graph import complete_graph, graph_block, parse_edge_list, run_graph_to_fixation
from chasescape.harness import canonical_json, run_block, run_trials
from chasescape.rng import splitmix64, stream_seeds, streams


class TestStreamSeeding:
    def test_splitmix_reference_values(self):
        # frozen so the documented mixing function cannot drift silently
        assert splitmix64(0) == 0
        assert splitmix64(1) == 6238072747940578789
        assert stream_seed(0, 0) == 16294208416658607535

    def test_streams_differ(self):
        seeds = {stream_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stream_seed(0, -1)
        with pytest.raises(ValueError):
            stream_seeds(0, -1, 3)

    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 17, 2**40, 2**64 - 3])
    def test_stream_seeds_match_stream_seed(self, master, start):
        seeds = stream_seeds(master, start, start + 5)
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [stream_seed(master, i) for i in range(start, start + 5)]

    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    @pytest.mark.parametrize("step", range(8))
    def test_streams_match_make_rng(self, master, step):
        # offsets are whole Philox counter steps of four doubles; draw sizes
        # 1, 3 and 6 end off that buffer boundary, so a re-keyed generator
        # must also drop the previous trial's leftovers
        start, stop, offset = 5, 30, 4 * step
        seeds = stream_seeds(master, start, stop)
        for i, rng in zip(range(start, stop), streams(seeds, offset), strict=True):
            ref = make_rng(stream_seed(master, i))
            ref.random(offset)
            for size in (1, 3, 6):
                assert rng.random(size).tolist() == ref.random(size).tolist()
            assert rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == ref.integers(
                0, 2**32, 3, dtype=np.uint32
            ).tolist()
            assert rng.standard_gamma(0.5) == ref.standard_gamma(0.5)

    def test_streams_turn_seeds_into_python_ints_a_chunk_at_a_time(self):
        # 10^5 seeds as one list of Python ints would take about 4 MiB
        seeds = stream_seeds(9, 0, 10**5)
        tracemalloc.start()
        try:
            for j, rng in enumerate(streams(seeds)):
                if j in (0, 1023, 1024, 10**5 - 1):
                    assert rng.random() == make_rng(stream_seed(9, j)).random()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("offset", [1, 258])
    def test_offset_off_a_counter_step_raises(self, offset):
        with pytest.raises(ValueError, match="multiple of 4"):
            next(streams(stream_seeds(0, 0, 3), offset))


class TestWindowFill:
    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    # offsets in Philox counter steps of four doubles: the first eight, and
    # windows that start past 2^10 and 2^18 uniforms
    @pytest.mark.parametrize("step", [*range(8), 256, 258, 2**16 + 4, 2**16 + 5])
    def test_window_is_a_slice_of_the_stream(self, master, step):
        width, offset = 36, 4 * step
        seeds = stream_seeds(master, 7, 12)
        out = np.empty((seeds.size, width))
        for row, rng in zip(out, streams(seeds, offset)):
            rng.random(out=row)
        for row, i in zip(out, range(7, 12)):
            ref = make_rng(stream_seed(master, i)).random(offset + width)[offset:]
            assert row.tobytes() == ref.tobytes()


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        p = Params(10, 1.0, 1.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(p, trials=0, seed=0, estimator=Estimator.EXPECTED_W)
        with pytest.raises(ParameterError):
            ExperimentConfig(p, trials=10, seed=-1, estimator=Estimator.EXPECTED_W)
        with pytest.raises(ParameterError):
            ExperimentConfig(p, trials=10, seed=0, estimator=Estimator.EXPECTED_W, parallelism=0)

    def test_log_n_estimators_need_n_at_least_two(self):
        p = Params(1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(p, trials=10, seed=0, estimator=Estimator.CONVERSION_OVER_LOG_N)
        with pytest.raises(ParameterError):
            ExperimentConfig(p, trials=10, seed=0, estimator=Estimator.TAU_OVER_LOG_N)

    def test_graph_file_requires_graph_engine(self):
        p = Params(10, 1.0, 1.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(
                p, trials=10, seed=0, estimator=Estimator.EXPECTED_W,
                engine=Engine.CHAIN, graph=parse_edge_list(["0 1"], 2),
            )

    def test_params_must_be_params(self):
        with pytest.raises(ParameterError, match="params must be a Params, got a tuple"):
            _config(params=(10, 1.0, 1.0))

    def test_graph_must_be_a_graph(self):
        with pytest.raises(ParameterError, match="graph must be a Graph, got a list"):
            _config(params=Params(1, 1.0, 1.0), engine=Engine.GRAPH, graph=[[1], [0]])

    # a str falls through run_block's engine dispatch to the graph engine
    # and fails in summarize, so it is refused before any trial runs
    @pytest.mark.parametrize(
        "field, value", [("engine", "chain"), ("engine", None), ("estimator", "expected_w")]
    )
    def test_engine_and_estimator_must_be_members(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an"):
            _config(**{field: value})

    def test_trials_over_the_cap_are_refused(self):
        p = Params(10, 1.0, 1.0)
        ExperimentConfig(p, trials=harness.MAX_TRIALS, seed=0, estimator=Estimator.EXPECTED_W)
        with pytest.raises(ResourceLimitError, match="over the cap"):
            ExperimentConfig(
                p, trials=harness.MAX_TRIALS + 1, seed=0, estimator=Estimator.EXPECTED_W
            )

    def test_histogram_bins_over_the_cap_are_refused(self):
        n = harness.MAX_HISTOGRAM_BINS - 1  # n + 1 bins, at the cap
        ExperimentConfig(Params(n, 1.0, 1.0), trials=1, seed=0, estimator=Estimator.W_HISTOGRAM)
        with pytest.raises(ResourceLimitError, match=f"has {n + 2} bins, over the cap of"):
            ExperimentConfig(
                Params(n + 1, 1.0, 1.0), trials=1, seed=0, estimator=Estimator.W_HISTOGRAM
            )
        # the cap is on the histogram, not on n
        ExperimentConfig(Params(n + 1, 1.0, 1.0), trials=1, seed=0, estimator=Estimator.EXPECTED_W)


SPARSE_EDGE_LIST = Path(__file__).parent / "golden" / "sparse21.edges"


def _config(**kw):
    defaults = dict(
        params=Params(10, 1.0, 1.0),
        trials=2000,
        seed=7,
        estimator=Estimator.EXPECTED_W,
        engine=Engine.CHAIN,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestEstimators:
    def test_extinction_prob_brackets_exact_value(self):
        exact = exact_distribution_W(10, 1.0, 1.0).extinction_probability
        summary = run_experiment(_config(estimator=Estimator.EXTINCTION_PROB, trials=5000))
        assert summary.ci95[0] <= summary.estimate <= summary.ci95[1]
        assert abs(summary.estimate - exact) < 5 * math.sqrt(exact * (1 - exact) / 5000)

    def test_expected_w_matches_exact_value(self):
        exact = exact_distribution_W(10, 1.0, 1.0).expected_w
        summary = run_experiment(_config(trials=5000))
        assert abs(summary.estimate - exact) <= 4 * summary.std_error

    def test_histogram_counts_sum_to_trials(self):
        summary = run_experiment(_config(estimator=Estimator.W_HISTOGRAM, trials=500))
        assert summary.histogram is not None
        assert sum(summary.histogram) == 500
        assert len(summary.histogram) == 11

    def test_conversion_over_log_n(self):
        exact = exact_distribution_W(30, 1.0, 2.0)
        summary = run_experiment(
            _config(
                params=Params(30, 1.0, 2.0),
                estimator=Estimator.CONVERSION_OVER_LOG_N,
                engine=Engine.COUPLING,
                trials=20000,
            )
        )
        target = exact.expected_c / math.log(30)
        assert abs(summary.estimate - target) <= 4 * summary.std_error

    def test_tau_estimator_positive(self):
        summary = run_experiment(
            _config(estimator=Estimator.TAU_OVER_LOG_N, engine=Engine.COUPLING, trials=200)
        )
        assert summary.estimate > 0


class TestParallelism:
    # a real pool of up to 4 worker processes, whatever the host's CPU count
    def test_merged_estimate_is_parallelism_invariant(self, pin_cpu_count):
        pin_cpu_count(4)
        base = dict(trials=1200, seed=99, estimator=Estimator.W_HISTOGRAM)
        serial = run_experiment(_config(parallelism=1, **base))
        quad = run_experiment(_config(parallelism=4, **base))
        assert serial.to_json() == quad.to_json()

    def test_trials_assemble_in_trial_order(self, pin_cpu_count):
        pin_cpu_count(4)
        config = _config(trials=64, parallelism=3)
        w1, c1, t1 = run_trials(config)
        w2, c2, t2 = run_trials(_config(trials=64, parallelism=1))
        assert np.array_equal(w1, w2)
        assert np.array_equal(c1, c2)
        assert np.array_equal(t1, t2)


class TestWorkerPool:
    def test_workers_clamped_to_cpu_count(self, inline_pools, pin_cpu_count):
        pin_cpu_count(2)
        base = dict(params=Params(2, 1.0, 1.0), trials=8192)
        pooled = run_trials(_config(parallelism=4096, **base))
        # one block per worker, so the blocks are clamped with the workers
        assert [(pool.max_workers, pool.blocks) for pool in inline_pools] == [(1, 1)]
        serial = run_trials(_config(parallelism=1, **base))
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_one_block_per_worker_merges_in_trial_order(self, inline_pools, pin_cpu_count):
        pin_cpu_count(4096)
        base = dict(params=Params(2, 1.0, 1.0), trials=8192)
        pooled = run_trials(_config(parallelism=4096, **base))
        assert [(pool.max_workers, pool.blocks) for pool in inline_pools] == [(4095, 4095)]
        serial = run_trials(_config(parallelism=1, **base))
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_unknown_cpu_count_means_one_worker(self, inline_pools, pin_cpu_count):
        pin_cpu_count(None)
        pooled = run_trials(_config(trials=40, parallelism=4))
        assert inline_pools == []
        serial = run_trials(_config(trials=40, parallelism=1))
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_parallelism_far_over_the_cpus_submits_one_block_per_worker(
        self, inline_pools, pin_cpu_count
    ):
        pin_cpu_count(3)
        run_trials(_config(params=Params(2, 1.0, 1.0), trials=100, parallelism=10**6))
        assert [(pool.max_workers, pool.blocks) for pool in inline_pools] == [(2, 2)]

    def test_one_usable_cpu_opens_no_pool(self, inline_pools, monkeypatch):
        # two CPUs on the host, but an affinity of one
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pooled = run_trials(_config(trials=40, parallelism=2))
        assert inline_pools == []
        serial = run_trials(_config(trials=40, parallelism=1))
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_parent_runs_block_0_and_the_pool_the_rest(
        self, inline_pools, pin_cpu_count, monkeypatch
    ):
        pin_cpu_count(4)
        calls, block = [], harness.run_block

        def recording_block(config, start, stop):
            in_pool = bool(inline_pools) and inline_pools[-1].mapping
            calls.append((start, stop, "pool" if in_pool else "parent"))
            return block(config, start, stop)

        monkeypatch.setattr(harness, "run_block", recording_block)
        pooled = run_trials(_config(trials=100, parallelism=4))
        assert [(pool.max_workers, pool.blocks) for pool in inline_pools] == [(3, 3)]
        # the empty block before the pool, then blocks 1..3 submitted, then block 0
        assert calls == [
            (0, 0, "parent"),
            (25, 50, "pool"), (50, 75, "pool"), (75, 100, "pool"),
            (0, 25, "parent"),
        ]
        serial = run_trials(_config(trials=100, parallelism=1))
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_error_in_the_parents_block_propagates_after_the_pool_shuts_down(
        self, inline_pools, pin_cpu_count, monkeypatch
    ):
        pin_cpu_count(2)
        block = harness.run_block

        def failing_block_0(config, start, stop):
            if start == 0 and stop > 0:
                raise RuntimeError("block 0 failed")
            return block(config, start, stop)

        monkeypatch.setattr(harness, "run_block", failing_block_0)
        with pytest.raises(RuntimeError, match="block 0 failed"):
            run_trials(_config(trials=100, parallelism=2))
        assert [(pool.blocks, pool.shut_down_with) for pool in inline_pools] == [(1, RuntimeError)]


def _assert_cap_probe(engine, n, refusal):
    """``run_block(config, 0, 0)`` at n peaks under 1 MiB, and at n + 1 is
    refused with ``refusal``."""
    config = _config(params=Params(n, 1.0, 1.0), engine=engine)
    run_block(config, 0, 0)  # a first call may import numpy.random's modules
    tracemalloc.start()
    try:
        w, c, tau = run_block(config, 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.size == c.size == tau.size == 0
    assert peak < 1 << 20
    with pytest.raises(ResourceLimitError, match=refusal):
        run_block(_config(params=Params(n + 1, 1.0, 1.0), engine=engine), 0, 0)


class TestCouplingBlock:
    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize("n", [1, 2, 50, 5000, 10**4, 10923])
    def test_block_matches_per_trial_kernel(self, n, mode):
        # a non-zero start and one trial more than a chunk holds: at n = 10^4
        # a two-row buffer ends on a one-trial chunk, and n = 10923 is the
        # first n with one trial per chunk
        params = Params(n, 1.0, 2.0, mode)
        rows = birth_death._chunk_rows(n)
        start, stop = 11, 11 + rows + 1
        w, c, tau = coupling_block(params, stream_seeds(2**64 - 1, start, stop))
        for k, i in enumerate(range(start, stop)):
            res = run_coupling(params, make_rng(stream_seed(2**64 - 1, i)))
            assert (w[k], c[k], tau[k]) == (res.white_survivors, res.conversions, res.fixation_time)

    def test_empty_block(self):
        w, c, tau = coupling_block(Params(5, 1.0, 1.0), stream_seeds(0, 3, 3))
        assert w.size == c.size == tau.size == 0

    def test_empty_block_at_the_cap_only_checks_it(self):
        # the largest n under the cap: a block's rates, thresholds and row
        # would take about 43 MiB
        n = (birth_death.MAX_COUPLING_UNIFORMS - 2) // 3
        _assert_cap_probe(Engine.COUPLING, n, f"at n = {n + 1} needs")


class TestMeanTau:
    # each engine's mean tau lies within 3 SE of the DP's E[tau] on the clock
    # that engine runs; holding times of Exp(denom) in place of
    # Exp(r * denom) in the chain keep every law of W and C and fail here
    @pytest.mark.parametrize(
        "engine, n, trials",
        [(Engine.CHAIN, 50, 20_000), (Engine.GRAPH, 20, 4000), (Engine.COUPLING, 50, 100_000)],
        ids=["chain", "graph", "coupling"],
    )
    def test_mean_tau_matches_the_exact_clock(self, engine, n, trials):
        params = Params(n, 1.0, 2.0)
        exact = exact_distribution_W(n, 1.0, 2.0)
        expected = exact.expected_tau_coupling if engine is Engine.COUPLING else exact.expected_tau
        _, _, tau = run_trials(_config(params=params, engine=engine, trials=trials, seed=71))
        se = float(np.std(tau, ddof=1)) / math.sqrt(trials)
        assert abs(float(np.mean(tau)) - expected) <= 3 * se


    @pytest.mark.parametrize("engine", ["chain-lockstep", "chain-scalar", "graph", "coupling"])
    def test_laplace_transform_of_tau_at_n_1(self, engine):
        # on K_2 from (r, b, w) = (1, 0, 1) the first jump converts with
        # probability alpha / q0 and fixates, or grows to (2, 0, 0), which
        # blues twice; the states' rates on the process clock are q0 = lambda +
        # alpha, 2 alpha and 1 + alpha, and the coupling's clock drops the
        # factor r, so its middle rate is alpha.  A holding time drawn as its
        # mean keeps E[tau] and fails here
        lam, alpha, trials = 1.0, 2.0, 20_000
        params = Params(1, lam, alpha)
        if engine == "chain-scalar":
            tau = np.array([
                run_to_fixation(params, make_rng(stream_seed(71, i))).fixation_time
                for i in range(trials)
            ])
        else:
            kind = Engine.CHAIN if engine == "chain-lockstep" else Engine(engine)
            _, _, tau = run_trials(_config(params=params, engine=kind, trials=trials, seed=71))
        q0 = lam + alpha
        rates = (q0, alpha if engine == "coupling" else 2 * alpha, 1 + alpha)
        for theta in (1.0, 3.0, 9.0):
            exact = alpha / q0 * q0 / (q0 + theta) + lam / q0 * math.prod(q / (q + theta) for q in rates)
            z = np.exp(-theta * tau)
            se = float(np.std(z, ddof=1)) / math.sqrt(trials)
            assert abs(float(np.mean(z)) - exact) <= 3 * se, (theta, float(np.mean(z)), exact)

class TestChainBlock:
    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize(
        "n, start, stop, min_live, lam, alpha",
        [
            # n = 100 runs past the first 128-jump window, and 296 trials
            # fill one chunk and start a second, whose 40 trials run the
            # lockstep to the end
            pytest.param(100, 5, 301, None, 1.0, 2.0, id="100-5-301-None"),
            # rows far wider than one window, in lockstep to the end and in
            # the scalar loop
            pytest.param(20000, 3, 6, 1, 1.0, 2.0, id="20000-3-6-1"),
            pytest.param(20000, 3, 6, None, 1.0, 2.0, id="20000-3-6-None"),
            # at lambda = 0.5 trials fixate at staggered times, so trials
            # leave the lockstep pass after pass down to no live trial
            pytest.param(300, 2, 66, None, 0.5, 2.0, id="300-2-66-None-0.5"),
            # 256 + 14 trials: the last chunk is too small for the lockstep
            # and runs the scalar loop
            pytest.param(100, 0, 270, None, 1.0, 2.0, id="100-0-270-None"),
            # at alpha = 50 most standard trials fixate at their first jump
            # (W = n) and step on to the window's end beside the rest
            pytest.param(30, 0, 64, None, 1.0, 50.0, id="30-0-64-None-1-a50"),
            # 256 trials at lambda = 0.3 fixate at every offset of a window
            # that a run of 2(n - W) + 1 jumps can end at (checked below)
            pytest.param(1000, 0, 256, None, 0.3, 2.0, id="1000-0-256-None-0.3"),
            # 256 trials at lambda = 0.5 fixate at staggered offsets of the
            # first few windows
            pytest.param(200, 0, 256, None, 0.5, 2.0, id="200-0-256-None-0.5"),
            # 2n + 1 = 81 jumps: the only window is cut to 81 jumps by
            # 2 * total - layer, and most trials fixate at its last jump, at
            # layer 2 * total with W = 0; the rest fixate earlier and step on
            pytest.param(40, 0, 40, None, 2.0, 2.0, id="40-0-40-None-2-cut"),
            # a chunk of exactly _LOCKSTEP_MIN_LIVE trials runs the lockstep
            pytest.param(100, 9, 9 + chain._LOCKSTEP_MIN_LIVE, None, 1.0, 2.0, id="100-9-min_live"),
            # lambda != 1 moves p_grow off the symmetric case in both modes
            pytest.param(200, 1, 101, None, 1.7, 2.0, id="200-1-101-None-1.7"),
            # at n = 1 and n = 2 every trial fixates in the first window, which
            # 2 * total - layer cuts to 2n + 1 jumps, with most of its window unread
            pytest.param(1, 0, 64, None, 1.0, 2.0, id="1-0-64-None"),
            pytest.param(2, 3, 43, None, 1.0, 2.0, id="2-3-43-None"),
            # the corners of the rate bounds: trials fixate at their first jump
            # and step on to their window's end, or make all 2n + 1 jumps, or
            # (lambda = alpha = 1e-100, standard start) both; a numpy warning
            # there fails the test (filterwarnings = error)
            *(
                pytest.param(50, 0, 40, None, lam, alpha, id=f"50-0-40-None-{lam:g}-{alpha:g}")
                for lam in (1e-100, 1e100)
                for alpha in (1e-100, 1e100)
            ),
        ],
    )
    def test_block_matches_per_trial_kernel(
        self, mode, n, start, stop, min_live, lam, alpha, monkeypatch
    ):
        if min_live is not None:
            monkeypatch.setattr(chain, "_LOCKSTEP_MIN_LIVE", min_live)
        params = Params(n, lam, alpha, mode)
        seed = 1003
        w, c, tau = run_block(_config(params=params, seed=seed), start, stop)
        ref = [run_to_fixation(params, make_rng(stream_seed(seed, i))) for i in range(start, stop)]
        assert w.tolist() == [res.white_survivors for res in ref]
        assert c.tolist() == [res.conversions for res in ref]
        assert tau.tobytes() == np.array([res.fixation_time for res in ref]).tobytes()

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_fixations_end_at_every_offset_of_a_fold(self, mode):
        # the trials of case 1000-0-256-None-0.3: a run makes an odd number of
        # jumps, 2(n - W) + 1, so it ends at every even offset of a window
        params = Params(1000, 0.3, 2.0, mode)
        ref = [run_to_fixation(params, make_rng(stream_seed(1003, i))) for i in range(256)]
        half = chain._WINDOW // 2
        offsets = {(res.jump_count - 1) % half for res in ref}
        assert offsets == set(range(0, half, 2))

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_each_window_rekeys_every_live_trial_once(self, mode, monkeypatch):
        # window w of a trial starts at uniform _WINDOW * w of its stream, and
        # a trial is live in it when it makes more than w windows of jumps;
        # each pass refills its live trials in b order, so the keys of a
        # window are compared as a sorted list
        params = Params(200, 0.5, 2.0, mode)
        seeds = stream_seeds(1003, 0, 64)
        ref = [run_to_fixation(params, rng).jump_count for rng in streams(seeds)]
        calls = []

        def recording_streams(keys, offset=0):
            calls.append((offset, sorted(keys.tolist())))
            return streams(keys, offset)

        monkeypatch.setattr(chain, "streams", recording_streams)
        chain.chain_block(params, seeds)
        half = chain._WINDOW // 2
        expected = [
            (chain._WINDOW * w, sorted(s for s, n in zip(seeds.tolist(), ref) if n > half * w))
            for w in range(-(-max(ref) // half))
        ]
        assert calls == expected

    def test_a_spread_over_the_grid_cap_steps_in_groups_under_it(self, monkeypatch):
        # a grid of 128 x 160 cells holds a spread of b of 32 at k = 128; at
        # n = 1000 64 live trials spread wider than that after a few windows,
        # so those passes step several b-sorted groups, each grid under the cap
        params = Params(1000, 1.0, 2.0)
        seeds = stream_seeds(1003, 0, 64)
        cap = chain._WINDOW // 2 * 160
        monkeypatch.setattr(chain, "_CHUNK_DOUBLES", cap)
        steps, calls = chain._steps, []

        def traced_steps(params, events, flags, b, layer):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            steps(params, events, flags, b, layer)
            calls.append((layer, tracemalloc.get_traced_memory()[1] - start))

        monkeypatch.setattr(chain, "_steps", traced_steps)
        tracemalloc.start()
        try:
            w, c, tau = chain.chain_block(params, seeds)
        finally:
            tracemalloc.stop()
        layers = [layer for layer, _ in calls]
        assert len(layers) > len(set(layers))  # some pass ran in groups
        # the grid of 8 bytes a cell, the two operand buffers of
        # np.getbufsize() doubles that numpy's ufunc loop may take while it
        # reads the strided view of lambda * w, and vectors of a group's length
        assert max(peak for _, peak in calls) < 8 * (cap + 2 * np.getbufsize()) + (1 << 14)
        ref = [run_to_fixation(params, rng) for rng in streams(seeds)]
        assert w.tolist() == [res.white_survivors for res in ref]
        assert c.tolist() == [res.conversions for res in ref]
        assert tau.tobytes() == np.array([res.fixation_time for res in ref]).tobytes()

    def test_empty_block(self):
        w, c, tau = run_block(_config(params=Params(5, 1.0, 1.0), seed=0), 3, 3)
        assert w.size == c.size == tau.size == 0


class TestGraphBlock:
    @pytest.mark.parametrize("mode", list(InitMode))
    def test_block_matches_per_trial_kernel(self, mode):
        # on the complete graph the config implies, and on the 21-vertex edge
        # list (n = 20 standard, n = 19 kortchemski); each reference trial
        # runs on a fresh graph, so no trial reuses the block's rows
        sparse = SPARSE_EDGE_LIST.read_text(encoding="utf-8").split("\n")
        for n, lines in ((12, None), (20 if mode is InitMode.STANDARD else 19, sparse)):
            params = Params(n, 1.0, 2.0, mode)

            def load():
                if lines is None:
                    return complete_graph(params.total_vertices)
                return parse_edge_list(lines, params.total_vertices)

            config = _config(
                params=params, engine=Engine.GRAPH, seed=1005,
                graph=None if lines is None else load(),
            )
            w, c, tau = run_block(config, 4, 44)
            ref = [
                run_graph_to_fixation(load(), params, make_rng(stream_seed(1005, i)))
                for i in range(4, 44)
            ]
            assert w.tolist() == [res.white_survivors for res in ref]
            assert c.tolist() == [res.conversions for res in ref]
            assert tau.tobytes() == np.array([res.fixation_time for res in ref]).tobytes()

    def test_empty_block(self):
        w, c, tau = graph_block(complete_graph(6), Params(5, 1.0, 1.0), stream_seeds(0, 3, 3))
        assert w.size == c.size == tau.size == 0

    def test_empty_block_at_the_cap_only_checks_it(self):
        # K_1025, the largest complete graph under the cap, would take 32 MiB
        _assert_cap_probe(Engine.GRAPH, 1024, "K_1026 has")


class TestEngineSummaries:
    @pytest.mark.parametrize("engine", [Engine.CHAIN, Engine.GRAPH, Engine.COUPLING])
    def test_every_engine_runs_both_modes(self, engine):
        for mode, alpha in ((InitMode.STANDARD, 1.0), (InitMode.KORTCHEMSKI, 0.0)):
            summary = run_experiment(
                _config(params=Params(6, 1.0, alpha, mode), engine=engine, trials=50)
            )
            assert summary.trials == 50
            assert summary.engine == engine.value

    def test_graph_engine_accepts_edge_list_file(self):
        summary = run_experiment(
            _config(
                params=Params(3, 1.0, 1.0),
                engine=Engine.GRAPH,
                graph=parse_edge_list(["0 1", "1 2", "2 0", "2 3"], 4),
                trials=100,
            )
        )
        # 4 vertices, vertex 0 starts red, so W <= 3 always
        assert summary.estimate <= 3.0


    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_edge_list_vertex_count_must_match(self, inline_pools, pin_cpu_count, parallelism):
        # refused as the config is built: the parent's empty block runs no
        # trial, so it would let the pool start
        pin_cpu_count(2)
        square = parse_edge_list(["0 1", "1 2", "2 3", "3 0"], 4)
        with pytest.raises(
            ParameterError, match=r"graph has 4 vertices but n = 100 \(standard start\) needs 101"
        ):
            _config(
                params=Params(100, 1.0, 1.0), engine=Engine.GRAPH, graph=square,
                trials=10, parallelism=parallelism,
            )
        assert inline_pools == []


def test_import_does_not_load_scipy_integrate():
    # scipy is most of the import time; the functions that need it import it,
    # and only the CLI's verify command imports the verify module
    code = (
        "import sys, chasescape; print('scipy.integrate' in sys.modules, 'scipy' in sys.modules,"
        " 'chasescape.verify' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
    ).stdout
    assert out.strip() == "False False False"


def test_extinction_estimate_does_not_load_scipy():
    # the Wilson interval's z is a literal, so no estimator needs scipy
    code = (
        "import sys; from chasescape.cli import main; rc = main(['estimate', '--n', '20',"
        " '--engine', 'coupling', '--estimator', 'extinction_prob', '--trials', '50']);"
        " print(rc, 'scipy' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
    )
    assert json.loads(proc.stdout)["estimator"] == "extinction_prob"
    assert proc.stderr.strip() == "0 False"


def test_serial_runs_do_not_load_the_pool_stack():
    # concurrent.futures brings in multiprocessing, socket, subprocess and
    # logging; only a run that opens a pool imports it
    code = (
        "import sys\n"
        "def loaded(stage):\n"
        "    pool = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "    print(stage, pool, file=sys.stderr)\n"
        "import chasescape, chasescape.cli\n"
        "loaded('import')\n"
        "for engine in ('chain', 'graph', 'coupling'):\n"
        "    assert chasescape.cli.main(['estimate', '--n', '20', '--engine', engine,"
        " '--trials', '50', '--parallelism', '1']) == 0\n"
        "    loaded(engine)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
    )
    assert proc.stderr.splitlines() == ["import []", "chain []", "graph []", "coupling []"]


def test_a_pooled_run_opens_a_real_pool_through_the_seam():
    # two usable CPUs whatever the host, so parallelism 2 starts one worker
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from chasescape import Engine, Estimator, ExperimentConfig, Params, harness\n"
        "for engine in Engine:\n"
        "    base = dict(params=Params(20, 1.0, 2.0), trials=64, seed=7,"
        " estimator=Estimator.EXPECTED_W, engine=engine)\n"
        "    serial = harness.run_trials(ExperimentConfig(parallelism=1, **base))\n"
        "    before = 'concurrent.futures.process' in sys.modules\n"
        "    pooled = harness.run_trials(ExperimentConfig(parallelism=2, **base))\n"
        "    after = 'concurrent.futures.process' in sys.modules\n"
        "    same = all(a.dtype == b.dtype and a.tobytes() == b.tobytes()"
        " for a, b in zip(serial, pooled))\n"
        "    print(engine.value, before, after, same)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
    ).stdout
    # the first pooled run imports the pool; each gives the serial bytes
    assert out.splitlines() == [
        "chain False True True", "graph True True True", "coupling True True True"
    ]


def test_z975_literal_is_scipys_quantile():
    # the literal stands in for ndtri(0.975) in every ci95 and Wilson
    # interval; a last-bit difference would change the golden estimate JSON
    import scipy.special

    from chasescape import analytics

    assert analytics._Z975 == float(scipy.special.ndtri(0.975))


class TestJsonContract:
    def test_round_trip_is_byte_identical(self):
        summary = run_experiment(_config(trials=100))
        text = summary.to_json()
        assert canonical_json(json.loads(text)) == text

    def test_field_order_is_canonical(self):
        summary = run_experiment(_config(trials=10))
        keys = list(json.loads(summary.to_json()).keys())
        assert keys == ["estimator", "engine", "estimate", "std_error", "ci95", "trials", "seed", "params"]

    def test_histogram_appended_when_present(self):
        summary = run_experiment(_config(trials=10, estimator=Estimator.W_HISTOGRAM))
        keys = list(json.loads(summary.to_json()).keys())
        assert keys[-1] == "histogram"


def _csv(params, rng) -> str:
    records = []
    run_to_fixation(params, rng, records.append)
    return trajectory_csv(records)


class TestTrajectoryCsv:
    def test_write_read_check(self):
        params = Params(40, 1.0, 2.0)
        records = []
        run_to_fixation(params, make_rng(stream_seed(3, 0)), records.append)
        rows = list(read_trajectory_csv(trajectory_csv(records).splitlines(keepends=True)))
        check_trajectory(rows, params)
        assert rows == records

    def test_same_seed_byte_identical(self):
        params = Params(15, 1.0, 1.0)
        assert _csv(params, make_rng(11)) == _csv(params, make_rng(11))

    def test_reader_rejects_bad_header(self):
        lines = _csv(Params(10, 1.0, 1.0), make_rng(2)).splitlines(keepends=True)
        # no line at all, and the writer's own rows under a padded header
        padded = "".join([lines[0].replace("\n", " \n"), *lines[1:]])
        for text in ["a,b,c\n1,2,3\n", "", padded]:
            with pytest.raises(ParameterError, match="unexpected trajectory header"):
                list(read_trajectory_csv(text.splitlines(keepends=True)))

    def test_reader_refuses_blank_padded_and_unended_lines(self):
        # the writer never writes a blank line, padding or a row without its
        # newline, so each is a malformed row
        text = _csv(Params(10, 1.0, 1.0), make_rng(2))
        lines = text.splitlines(keepends=True)
        header = ",".join(TRAJECTORY_FIELDS)
        for bad in [
            "".join([*lines[:3], "\n", *lines[3:]]),
            "".join([*lines[:2], lines[2].replace("\n", " \n"), *lines[3:]]),
            text.removesuffix("\n"),
            header + "\n\n",
        ]:
            with pytest.raises(ParameterError, match="malformed trajectory row"):
                list(read_trajectory_csv(bad.splitlines(keepends=True)))

    def test_reader_rejects_a_row_with_the_wrong_field_count(self):
        lines = _csv(Params(10, 1.0, 1.0), make_rng(2)).splitlines()
        lines[2] += ",extra"
        with pytest.raises(ParameterError, match="malformed trajectory row"):
            list(read_trajectory_csv(("\n".join(lines) + "\n").splitlines(keepends=True)))

    def test_reader_ends_a_line_at_a_newline_only(self):
        # rows ended by "\r", which the writer never writes, are malformed rows
        lines = _csv(Params(10, 1.0, 1.0), make_rng(2)).splitlines()
        text = lines[0] + "\n" + "\r".join(lines[1:]) + "\n"
        with pytest.raises(ParameterError, match="malformed trajectory row"):
            list(read_trajectory_csv(text.splitlines(keepends=True)))

    def test_reader_rejects_a_header_alone(self):
        header = ",".join(TRAJECTORY_FIELDS)
        with pytest.raises(ParameterError, match="no data rows"):
            list(read_trajectory_csv((header + "\n").splitlines(keepends=True)))

    def test_checker_rejects_tampered_rows(self):
        params = Params(10, 1.0, 1.0)
        lines = _csv(params, make_rng(2)).splitlines()
        fields = lines[1].split(",")
        fields[2] = str(int(fields[2]) + 1)  # corrupt the red count
        lines[1] = ",".join(fields)
        rows = read_trajectory_csv(("\n".join(lines) + "\n").splitlines(keepends=True))
        with pytest.raises(AssertionError):
            check_trajectory(rows, params)

    @pytest.mark.parametrize("index", ["0", "3", "x"])
    def test_reader_rejects_bad_jump_index(self, index):
        params = Params(10, 1.0, 1.0)
        lines = _csv(params, make_rng(2)).splitlines()
        lines[2] = ",".join([index] + lines[2].split(",")[1:])
        with pytest.raises(ValueError):
            list(read_trajectory_csv(("\n".join(lines) + "\n").splitlines(keepends=True)))

    @pytest.mark.parametrize(
        "column, value",
        [
            ("jump_index", "2.0"),
            ("time", "abc"),
            ("r", "x"),
            ("b", "1.5"),
            ("w", "nan"),
            ("event", "teleport"),
            # each parses, but the writer never writes it
            ("jump_index", "+2"),
            ("jump_index", "\uff12"),  # fullwidth 2
            ("r", "1_0"),
            ("time", "0_0.5"),
            ("time", "1e400"),
        ],
    )
    def test_reader_rejects_unparseable_field(self, column, value):
        lines = _csv(Params(10, 1.0, 1.0), make_rng(2)).splitlines()
        fields = lines[2].split(",")
        fields[TRAJECTORY_FIELDS.index(column)] = value
        lines[2] = ",".join(fields)
        with pytest.raises(ParameterError, match="malformed trajectory row") as info:
            list(read_trajectory_csv(("\n".join(lines) + "\n").splitlines(keepends=True)))
        assert repr(lines[2] + "\n") in str(info.value)

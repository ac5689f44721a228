import io
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
    write_trajectory_csv,
)
from chasescape.graph import complete_graph, graph_block, parse_edge_list, run_graph_to_fixation
from chasescape.harness import canonical_json, run_block, run_trials
from chasescape.rng import fill_windows, splitmix64, stream_seeds, streams


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
    @pytest.mark.parametrize("offset", range(8))
    def test_streams_match_make_rng(self, master, offset):
        # draw sizes 1, 3 and 6 end off Philox's 4-value buffer boundary, so
        # a re-keyed generator must also drop the previous trial's leftovers
        start, stop = 5, 30
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


class TestWindowFill:
    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    # every offset within a Philox counter step, and windows across one
    @pytest.mark.parametrize("offset", [*range(8), 256, 258, 2**16 + 4, 2**16 + 5])
    def test_window_is_a_slice_of_the_stream(self, master, offset):
        width = 36
        seeds = stream_seeds(master, 7, 12)
        out = np.empty((seeds.size, width))
        fill_windows(seeds, offset, out)
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
                engine=Engine.CHAIN, graph=parse_edge_list(["0 1"]),
            )


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
    def test_merged_estimate_is_parallelism_invariant(self):
        base = dict(trials=1200, seed=99, estimator=Estimator.W_HISTOGRAM)
        serial = run_experiment(_config(parallelism=1, **base))
        quad = run_experiment(_config(parallelism=4, **base))
        assert serial.to_json() == quad.to_json()

    def test_trials_assemble_in_trial_order(self):
        config = _config(trials=64, parallelism=3)
        w1, c1, t1 = run_trials(config)
        w2, c2, t2 = run_trials(_config(trials=64, parallelism=1))
        assert np.array_equal(w1, w2)
        assert np.array_equal(c1, c2)
        assert np.array_equal(t1, t2)


class TestWorkerPool:
    def test_workers_clamped_to_cpu_count(self, inline_pools, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        base = dict(params=Params(2, 1.0, 1.0), trials=8192)
        pooled = run_trials(_config(parallelism=4096, **base))
        assert [pool.max_workers for pool in inline_pools] == [2]
        # blocks still follow parallelism, so the merged trials are unchanged
        assert inline_pools[0].blocks == 4096
        serial = run_trials(_config(parallelism=1, **base))
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_unknown_cpu_count_means_one_worker(self, inline_pools, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_trials(_config(trials=40, parallelism=4))
        assert [pool.max_workers for pool in inline_pools] == [1]


class TestCouplingBlock:
    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_block_matches_per_trial_kernel(self, n, mode):
        # a non-zero start and one trial more than a chunk holds
        params = Params(n, 1.0, 2.0, mode)
        rows = max(1, birth_death._CHUNK_UNIFORMS // (3 * n + 2))
        start, stop = 11, 11 + rows + 1
        w, c, tau = coupling_block(params, stream_seeds(2**64 - 1, start, stop))
        for k, i in enumerate(range(start, stop)):
            res = run_coupling(params, make_rng(stream_seed(2**64 - 1, i)))
            assert (w[k], c[k], tau[k]) == (res.white_survivors, res.conversions, res.fixation_time)

    def test_empty_block(self):
        w, c, tau = coupling_block(Params(5, 1.0, 1.0), stream_seeds(0, 3, 3))
        assert w.size == c.size == tau.size == 0


class TestChainBlock:
    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize(
        "n, start, stop, min_live",
        [
            # n = 100 runs past the first 128-jump window, and 296 trials
            # fill one chunk and start a second, which ends in the scalar loop
            (100, 5, 301, None),
            # rows far wider than one window and than run_to_fixation's
            # 2^16-uniform buffer, in lockstep to the end and in the scalar loop
            (20000, 3, 6, 1),
            (20000, 3, 6, None),
        ],
    )
    def test_block_matches_per_trial_kernel(self, mode, n, start, stop, min_live, monkeypatch):
        if min_live is not None:
            monkeypatch.setattr(chain, "_LOCKSTEP_MIN_LIVE", min_live)
        params = Params(n, 1.0, 2.0, mode)
        seed = 1003
        w, c, tau = run_block(_config(params=params, seed=seed), start, stop)
        ref = [run_to_fixation(params, make_rng(stream_seed(seed, i))) for i in range(start, stop)]
        assert w.tolist() == [res.white_survivors for res in ref]
        assert c.tolist() == [res.conversions for res in ref]
        assert tau.tobytes() == np.array([res.fixation_time for res in ref]).tobytes()

    def test_empty_block(self):
        w, c, tau = run_block(_config(params=Params(5, 1.0, 1.0), seed=0), 3, 3)
        assert w.size == c.size == tau.size == 0


class TestGraphBlock:
    @pytest.mark.parametrize("mode", list(InitMode))
    def test_block_matches_per_trial_kernel(self, mode):
        params = Params(12, 1.0, 2.0, mode)
        g = complete_graph(params.total_vertices)
        start, stop = 4, 44
        config = _config(params=params, engine=Engine.GRAPH, seed=1005)
        w, c, tau = run_block(config, start, stop)
        rngs = (make_rng(stream_seed(1005, i)) for i in range(start, stop))
        ref = [run_graph_to_fixation(g, params, rng) for rng in rngs]
        assert w.tolist() == [res.white_survivors for res in ref]
        assert c.tolist() == [res.conversions for res in ref]
        assert tau.tobytes() == np.array([res.fixation_time for res in ref]).tobytes()

    def test_empty_block(self):
        w, c, tau = graph_block(complete_graph(6), Params(5, 1.0, 1.0), stream_seeds(0, 3, 3))
        assert w.size == c.size == tau.size == 0


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
                graph=parse_edge_list(["0 1", "1 2", "2 0", "2 3"]),
                trials=100,
            )
        )
        # 4 vertices, vertex 0 starts red, so W <= 3 always
        assert summary.estimate <= 3.0


    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_edge_list_vertex_count_must_match(self, inline_pools, parallelism):
        square = parse_edge_list(["0 1", "1 2", "2 3", "3 0"])
        config = _config(
            params=Params(100, 1.0, 1.0), engine=Engine.GRAPH, graph=square,
            trials=10, parallelism=parallelism,
        )
        with pytest.raises(ParameterError, match="4 vertices"):
            run_trials(config)


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
    run_to_fixation(params, rng, records)
    buf = io.StringIO()
    write_trajectory_csv(records, buf)
    return buf.getvalue()


class TestTrajectoryCsv:
    def test_write_read_check(self):
        params = Params(40, 1.0, 2.0)
        records = []
        run_to_fixation(params, make_rng(stream_seed(3, 0)), records)
        buf = io.StringIO()
        write_trajectory_csv(records, buf)
        buf.seek(0)
        rows = read_trajectory_csv(buf)
        check_trajectory(rows, params)
        assert rows == records

    def test_same_seed_byte_identical(self):
        params = Params(15, 1.0, 1.0)
        assert _csv(params, make_rng(11)) == _csv(params, make_rng(11))

    def test_reader_rejects_bad_header(self):
        with pytest.raises(ParameterError):
            read_trajectory_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_checker_rejects_tampered_rows(self):
        params = Params(10, 1.0, 1.0)
        lines = _csv(params, make_rng(2)).splitlines()
        fields = lines[1].split(",")
        fields[2] = str(int(fields[2]) + 1)  # corrupt the red count
        lines[1] = ",".join(fields)
        rows = read_trajectory_csv(io.StringIO("\n".join(lines) + "\n"))
        with pytest.raises(AssertionError):
            check_trajectory(rows, params)

    @pytest.mark.parametrize("index", ["0", "3", "x"])
    def test_reader_rejects_bad_jump_index(self, index):
        params = Params(10, 1.0, 1.0)
        lines = _csv(params, make_rng(2)).splitlines()
        lines[2] = ",".join([index] + lines[2].split(",")[1:])
        with pytest.raises(ValueError):
            read_trajectory_csv(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "column, value",
        [
            ("jump_index", "2.0"),
            ("time", "abc"),
            ("r", "x"),
            ("b", "1.5"),
            ("w", "nan"),
            ("event", "teleport"),
        ],
    )
    def test_reader_rejects_unparseable_field(self, column, value):
        lines = _csv(Params(10, 1.0, 1.0), make_rng(2)).splitlines()
        fields = lines[2].split(",")
        fields[TRAJECTORY_FIELDS.index(column)] = value
        lines[2] = ",".join(fields)
        with pytest.raises(ParameterError, match="malformed trajectory row") as info:
            read_trajectory_csv(io.StringIO("\n".join(lines) + "\n"))
        assert repr(lines[2] + "\n") in str(info.value)

import io
import json
import math
from concurrent.futures import Future

import numpy as np
import pytest

from chasescape import (
    Engine,
    Estimator,
    EstimatorSummary,
    ExperimentConfig,
    InitMode,
    ParameterError,
    Params,
    exact_distribution_W,
    make_rng,
    record_trajectory,
    run_experiment,
    stream_seed,
)
from chasescape import harness
from chasescape.chain import check_trajectory
from chasescape.harness import (
    canonical_json,
    read_trajectory_csv,
    run_trials,
    write_trajectory_csv,
)
from chasescape.rng import splitmix64


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
                engine=Engine.CHAIN, graph_file="edges.txt",
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


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the process pool by one that runs each block inline and
    records how it was opened; no worker process is spawned."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.blocks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.blocks += 1
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return pools


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


class TestEngineSummaries:
    @pytest.mark.parametrize("engine", [Engine.CHAIN, Engine.GRAPH, Engine.COUPLING])
    def test_every_engine_runs_both_modes(self, engine):
        for mode, alpha in ((InitMode.STANDARD, 1.0), (InitMode.KORTCHEMSKI, 0.0)):
            summary = run_experiment(
                _config(params=Params(6, 1.0, alpha, mode), engine=engine, trials=50)
            )
            assert summary.trials == 50
            assert summary.engine == engine.value

    def test_graph_engine_accepts_edge_list_file(self, tmp_path):
        path = tmp_path / "triangle_plus.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n")
        summary = run_experiment(
            _config(
                params=Params(3, 1.0, 1.0),
                engine=Engine.GRAPH,
                graph_file=str(path),
                trials=100,
            )
        )
        # 4 vertices, vertex 0 starts red, so W <= 3 always
        assert summary.estimate <= 3.0


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


class TestTrajectoryCsv:
    def test_write_read_check(self):
        params = Params(40, 1.0, 2.0)
        trajectory = record_trajectory(params, make_rng(stream_seed(3, 0)))
        buf = io.StringIO()
        write_trajectory_csv(trajectory, buf)
        buf.seek(0)
        rows = read_trajectory_csv(buf)
        check_trajectory(rows, params)
        assert rows == list(trajectory.records)

    def test_same_seed_byte_identical(self):
        params = Params(15, 1.0, 1.0)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_trajectory_csv(record_trajectory(params, make_rng(11)), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_reader_rejects_bad_header(self):
        with pytest.raises(ParameterError):
            read_trajectory_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_checker_rejects_tampered_rows(self):
        params = Params(10, 1.0, 1.0)
        buf = io.StringIO()
        write_trajectory_csv(record_trajectory(params, make_rng(2)), buf)
        lines = buf.getvalue().splitlines()
        fields = lines[1].split(",")
        fields[2] = str(int(fields[2]) + 1)  # corrupt the red count
        lines[1] = ",".join(fields)
        rows = read_trajectory_csv(io.StringIO("\n".join(lines) + "\n"))
        with pytest.raises(AssertionError):
            check_trajectory(rows, params)

    @pytest.mark.parametrize("index", ["0", "3", "x"])
    def test_reader_rejects_bad_jump_index(self, index):
        params = Params(10, 1.0, 1.0)
        buf = io.StringIO()
        write_trajectory_csv(record_trajectory(params, make_rng(2)), buf)
        lines = buf.getvalue().splitlines()
        lines[2] = ",".join([index] + lines[2].split(",")[1:])
        with pytest.raises(ValueError):
            read_trajectory_csv(io.StringIO("\n".join(lines) + "\n"))

import io
import json
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chasescape import cli, graph, harness, verify
from chasescape.cli import main
from chasescape.chain import check_trajectory, read_trajectory_csv
from chasescape.harness import Engine, Estimator, ExperimentConfig
from chasescape.params import ParameterError, Params


SPARSE_EDGE_LIST = Path(__file__).parent / "golden" / "sparse21.edges"

# (engine, n, refusal) of a request over an engine's cap
_OVER_ENGINE_CAPS = [
    ("graph", "2000", "K_2001 has 4002000 adjacency entries, over the cap of 1049600"),
    ("coupling", "2000000",
     "a coupling trial at n = 2000000 needs 6000002 uniforms, over the cap of 4194304"),
]


def _refusal(parse, text):
    """The message of the error ``parse(text)`` raises, as this Python words it."""
    with pytest.raises((ValueError, RecursionError)) as info:
        parse(text)
    return str(info.value)


# a number of 5000 digits, past Python's 4300-digit limit on int(str)
_LONG_NUMBER = "1" * 5000


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestSimulate:
    def test_csv_to_stdout(self):
        code, out, _ = run_cli(
            "simulate", "--n", "20", "--lambda", "1", "--alpha", "2", "--seed", "5"
        )
        assert code == 0
        rows = read_trajectory_csv(out.splitlines(keepends=True))
        check_trajectory(rows, Params(20, 1.0, 2.0))

    def test_ties_at_extreme_rates_check_clean(self):
        # late in this run holding times vanish on a clock of about 6.6e95
        flags = ("--n", "50", "--lambda", "1e100", "--alpha", "1e-100", "--seed", "1")
        code, out, _ = run_cli("simulate", *flags)
        assert code == 0
        rows = list(read_trajectory_csv(out.splitlines(keepends=True)))
        assert any(a.time == b.time for a, b in zip(rows, rows[1:]))
        check_trajectory(rows, Params(50, 1e100, 1e-100))

    def test_byte_identical_repeats(self):
        args = ("simulate", "--n", "30", "--alpha", "4", "--seed", "17")
        assert run_cli(*args) == run_cli(*args)

    def test_output_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run_cli("simulate", "--n", "5", "--seed", "1", "--output", str(path))
        assert code == 0 and out == ""
        rows = list(read_trajectory_csv(path.read_text().splitlines(keepends=True)))
        assert rows[-1].state.r == 0

    def test_json_format(self):
        code, out, _ = run_cli("simulate", "--n", "5", "--seed", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["jumps"][-1]["r"] == 0
        assert {"jump_index", "time", "r", "b", "w", "event"} <= set(doc["jumps"][0])

    def test_json_peaks_near_csv(self, tmp_path):
        # each jump is written as it is made, so neither format holds the
        # trajectory: holding it, the runs peaked at 5.7 (CSV) and 5.3 MiB
        # (JSON); writing each jump, at about 40 KiB, plus about 1 MiB of
        # warm-up on a process's first run
        peaks = {}
        for fmt in ("csv", "json"):
            argv = ("simulate", "--n", "5000", "--alpha", "0.01", "--seed", "3", "--format", fmt,
                    "--output", str(tmp_path / f"traj.{fmt}"))
            tracemalloc.start()
            try:
                assert run_cli(*argv)[0] == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 2 << 20, peaks

    def test_reading_a_file_back_holds_one_line(self, tmp_path):
        # the reader yields one record per line, so reading and checking the
        # n = 5000 trajectory peaks near 22 KiB (about 120 KiB on a process's
        # first read); holding every line and record, it peaked at 3.65 MiB
        path = tmp_path / "traj.csv"
        argv = ("simulate", "--n", "5000", "--alpha", "0.01", "--seed", "3", "--output", str(path))
        assert run_cli(*argv)[0] == 0
        with open(path, newline="") as fh:
            tracemalloc.start()
            try:
                check_trajectory(read_trajectory_csv(fh), Params(5000, 1.0, 0.01))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 256 << 10, peak

    def test_small_instance_row_bound(self):
        code, out, _ = run_cli("simulate", "--n", "1", "--seed", "0")
        assert code == 0
        data_rows = [line for line in out.splitlines()[1:] if line]
        assert len(data_rows) <= 4

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, seed):
        code, out, err = run_cli("simulate", "--n", "5", "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must be a 64-bit unsigned integer" in err

    def test_multi_trial_rejected(self):
        # simulate emits one trajectory and has no --trials flag
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--n", "5", "--trials", "3")
        assert exc.value.code == 2

    def test_a_run_at_any_n_writes_its_trajectory(self):
        # 2 * 10^6 + 1 jumps can remain, over any cap on a trajectory held
        # whole; at this lambda the run fixates in a few jumps
        code, out, err = run_cli("simulate", "--n", "1000000", "--lambda", "1e-7", "--seed", "0")
        assert code == 0 and err == ""
        rows = read_trajectory_csv(out.splitlines(keepends=True))
        check_trajectory(rows, Params(10**6, 1e-7, 1.0))


class TestEstimate:
    def test_json_summary(self):
        code, out, _ = run_cli(
            "estimate", "--n", "10", "--alpha", "1", "--trials", "300",
            "--seed", "4", "--estimator", "extinction_prob",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 300
        assert doc["seed"] == 4
        assert doc["params"] == {"n": 10, "lambda": 1.0, "alpha": 1.0, "init": "standard"}
        assert doc["ci95"][0] <= doc["estimate"] <= doc["ci95"][1]

    def test_engines_selectable(self):
        for engine in ("chain", "graph", "coupling"):
            code, out, _ = run_cli(
                "estimate", "--n", "6", "--alpha", "1", "--trials", "50",
                "--seed", "1", "--engine", engine,
            )
            assert code == 0
            assert json.loads(out)["engine"] == engine

    def test_config_file_overrides_flags(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"n": 12, "trials": 120, "estimator": "expected_w"}))
        code, out, _ = run_cli(
            "estimate", "--n", "5", "--trials", "999", "--alpha", "1",
            "--seed", "2", "--config", str(config),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["n"] == 12
        assert doc["trials"] == 120
        assert doc["estimator"] == "expected_w"

    def test_config_that_is_not_utf8_exits_2(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_bytes(b'\xff{"n": 5}')
        code, out, err = run_cli("estimate", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: --config {config}: not UTF-8 (byte 0xff at position 0)\n"

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_graph_file_that_is_not_utf8_exits_2(self, tmp_path, parallelism):
        # the file is decoded once, before any worker starts; the bad byte
        # lies past the first 8 KiB that a line-by-line read decodes
        edges = tmp_path / "edges.txt"
        edges.write_bytes(b"0 1\n" * 3000 + b"\xfe")
        code, out, err = run_cli(
            "estimate", "--n", "1", "--engine", "graph", "--graph-file", str(edges),
            "--trials", "10", "--parallelism", parallelism,
        )
        assert code == 2 and out == ""
        assert err == f"error: --graph-file {edges}: not UTF-8 (byte 0xfe at position 12000)\n"

    def test_config_and_graph_file_errors_name_their_flag(self, tmp_path):
        config, edges = tmp_path / "exp.json", tmp_path / "edges.txt"
        config.write_text(json.dumps({"n": 1, "engine": "graph", "trials": 10}))
        edges.write_bytes(b"0 1\xff\n")
        code, out, err = run_cli("estimate", "--config", str(config), "--graph-file", str(edges))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --graph-file {edges}: not UTF-8 (byte 0xff at position 3)")

    def test_malformed_config_names_its_flag_and_file(self, tmp_path):
        # with both files given, "line 1" alone could belong to either
        config = tmp_path / "exp.json"
        config.write_text('{"n": 5,}')
        code, out, err = run_cli(
            "estimate", "--engine", "graph", "--graph-file", str(SPARSE_EDGE_LIST),
            "--config", str(config),
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: --config {config}: Expecting property name enclosed in double quotes: "
            "line 1 column 9 (char 8)\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100000 + "]" * 100000, None),  # Python's own words
            (f'{{"n": {_LONG_NUMBER}}}',
             "an integer of 5000 digits is longer than any setting takes"),
        ],
        ids=["nested-past-the-recursion-limit", "number-past-the-digit-limit"],
    )
    def test_config_past_pythons_limits_names_its_flag_and_file(self, tmp_path, text, message):
        config = tmp_path / "exp.json"
        config.write_text(text)
        code, out, err = run_cli("estimate", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: --config {config}: {message or _refusal(json.loads, text)}\n"

    @pytest.mark.parametrize(
        "n, text, message",
        [
            (1, "0 1 2\n", "line 1: expected 'u v', got '0 1 2'"),
            (1, "a b\n", "line 1: vertex indices must be integers"),
            # int() alone would read each of these as vertex 2
            (1, "0 1\n1 0_2\n", "line 2: vertex indices must be integers"),
            (1, "0 1\n1 \uff12\n", "line 2: vertex indices must be integers"),
            (1, "0 1\n1 +2\n", "line 2: vertex indices must be integers"),
            (1, "0 -1\n", "line 1: vertex indices must be >= 0"),
            (1, "0 1\n-0 1\n", "line 2: vertex indices must be >= 0"),
            (1, f"0 {_LONG_NUMBER}\n",
             "line 1: vertex index longer than any graph under the cap has (at most 524800)"),
            (1, "0 1\n1 1\n", "line 2: self-loop at vertex 1"),
            (1, "0 1\n1 0\n", "line 2: duplicate edge 1 0"),
            (4, "0 1\n2 3\n2 4\n3 4\n", "graph is not connected"),
            (1, "\n\n", "edge list is empty"),
            (100, "0 1\n1 2\n2 3\n3 0\n", "graph has 4 vertices, expected 101"),
        ],
        ids=["fields", "integers", "underscore", "fullwidth", "plus", "negative", "minus-zero",
             "past-the-digit-limit", "self-loop", "duplicate", "disconnected", "empty",
             "vertex-count"],
    )
    def test_graph_file_errors_name_the_flag_and_file(self, tmp_path, n, text, message):
        edges = tmp_path / "edges.txt"
        edges.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            "estimate", "--n", str(n), "--engine", "graph", "--graph-file", str(edges),
            "--trials", "10",
        )
        assert code == 2 and out == ""
        assert err == f"error: --graph-file {edges}: {message}\n"

    def test_graph_file_parsed_once_and_refused_before_the_pool(
        self, tmp_path, inline_pools, pin_cpu_count, monkeypatch
    ):
        pin_cpu_count(2)
        calls, parse = [], graph.parse_edge_list

        def counting_parse(lines, vertex_count):
            calls.append(vertex_count)
            return parse(lines, vertex_count)

        # every caller's name is wrapped, so a parse anywhere is counted
        monkeypatch.setattr(graph, "parse_edge_list", counting_parse)
        monkeypatch.setattr(cli, "parse_edge_list", counting_parse)
        argv = ("estimate", "--engine", "graph", "--trials", "10", "--parallelism", "2")
        code, out, _ = run_cli(*argv, "--n", "20", "--graph-file", str(SPARSE_EDGE_LIST))
        assert code == 0 and json.loads(out)["trials"] == 10
        assert calls == [21]
        assert [pool.blocks for pool in inline_pools] == [1]

        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 1\n")
        inline_pools.clear()
        code, out, err = run_cli(*argv, "--n", "1", "--graph-file", str(edges))
        assert code == 2 and out == "" and "self-loop" in err
        assert inline_pools == []

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_graph_file_over_the_cap_exits_2_before_the_pool(
        self, inline_pools, pin_cpu_count, monkeypatch, parallelism
    ):
        pin_cpu_count(2)
        # sparse21.edges has 50 edges, 100 adjacency entries
        monkeypatch.setattr(graph, "MAX_GRAPH_ENTRIES", 99)
        code, out, err = run_cli(
            "estimate", "--n", "20", "--engine", "graph", "--graph-file", str(SPARSE_EDGE_LIST),
            "--trials", "10", "--parallelism", str(parallelism),
        )
        assert code == 2 and out == "" and inline_pools == []
        assert err == (
            f"error: --graph-file {SPARSE_EDGE_LIST}: line 50: more than 49 edges, "
            "over the cap of 99 adjacency entries\n"
        )

    @pytest.mark.parametrize("engine, n, message", _OVER_ENGINE_CAPS, ids=["graph", "coupling"])
    def test_request_over_an_engines_cap_exits_2_before_the_pool(
        self, inline_pools, pin_cpu_count, engine, n, message
    ):
        pin_cpu_count(2)
        code, out, err = run_cli(
            "estimate", "--engine", engine, "--n", n, "--trials", "10", "--parallelism", "2"
        )
        assert code == 2 and out == "" and inline_pools == []
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("engine, n, message", _OVER_ENGINE_CAPS, ids=["graph", "coupling"])
    def test_config_over_an_engines_cap_names_the_file(
        self, tmp_path, inline_pools, engine, n, message
    ):
        # the flags alone ask for the default chain run, so the file is at fault
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"n": int(n), "engine": engine, "trials": 10}))
        code, out, err = run_cli("estimate", "--config", str(config))
        assert code == 2 and out == "" and inline_pools == []
        assert err == f"error: --config {config}: {message}\n"

    def test_sparse_graph_file_over_the_complete_graph_cap_runs(
        self, tmp_path, inline_pools, pin_cpu_count
    ):
        # K_1100 is over the cap, but the cap check runs on the graph the
        # run uses: a 1100-vertex cycle
        pin_cpu_count(2)
        edges = tmp_path / "cycle.edges"
        edges.write_text("".join(f"{v} {(v + 1) % 1100}\n" for v in range(1100)))
        code, out, _ = run_cli(
            "estimate", "--n", "1099", "--engine", "graph", "--graph-file", str(edges),
            "--trials", "4", "--parallelism", "2",
        )
        assert code == 0 and json.loads(out)["trials"] == 4
        assert [pool.blocks for pool in inline_pools] == [1]

    def test_bad_trials_refused_before_the_graph_file_is_read(self, tmp_path):
        missing = tmp_path / "missing.edges"
        code, out, err = run_cli(
            "estimate", "--engine", "graph", "--trials", "0", "--graph-file", str(missing)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: trials must be an integer >= 1")

    def test_graph_file_with_another_engine_is_refused_before_it_is_read(self, tmp_path):
        missing = tmp_path / "missing.edges"
        with pytest.raises(ParameterError) as refused:
            ExperimentConfig(
                Params(1, 1.0, 1.0), trials=1, seed=0, estimator=Estimator.EXPECTED_W,
                engine=Engine.CHAIN, graph=graph.complete_graph(2),
            )
        code, out, err = run_cli(
            "estimate", "--n", "1", "--engine", "chain", "--graph-file", str(missing)
        )
        assert code == 2 and out == ""
        assert err == f"error: {refused.value}\n"

    @pytest.mark.parametrize(
        "override, message",
        [
            ([1], "must hold a JSON object"),
            ({"bogus": 1}, "unknown keys: ['bogus']"),
            (
                {"engine": "nope"},
                f"engine: invalid choice 'nope' (choose from {cli._CHOICES['engine']})",
            ),
        ],
    )
    def test_config_shape_errors_name_the_flag_and_file(self, tmp_path, override, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(override))
        code, out, err = run_cli("estimate", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: --config {config}: {message}\n"

    @pytest.mark.parametrize("flag", ["--config", "--graph-file"])
    def test_missing_input_file_names_its_flag(self, tmp_path, flag):
        missing = tmp_path / "missing"
        code, out, err = run_cli(
            "estimate", "--n", "1", "--engine", "graph", "--trials", "10", flag, str(missing)
        )
        assert code == 2 and out == ""
        assert err == f"error: {flag} {missing}: No such file or directory\n"

    @pytest.mark.parametrize(
        "engine, path, message",
        [
            ("graph", "missing.edges", "graph_file {path}: No such file or directory"),
            ("graph", 5, "graph_file must be a path string, got 5"),
            ("graph", "loop.edges", "graph_file {path}: line 2: self-loop at vertex 1"),
            ("chain", "missing.edges", "a graph only applies to the graph engine"),
        ],
        ids=["missing", "not-a-path", "self-loop", "other-engine"],
    )
    def test_graph_file_key_errors_name_the_config(self, tmp_path, engine, path, message):
        # the path came from the config file, so no error may blame the flag
        (tmp_path / "loop.edges").write_text("0 1\n1 1\n")
        if isinstance(path, str):
            path = str(tmp_path / path)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"engine": engine, "n": 1, "graph_file": path}))
        code, out, err = run_cli("estimate", "--trials", "10", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: --config {config}: {message.format(path=path)}\n"

    def test_trials_over_the_cap_exit_2_before_allocating(self, tmp_path):
        refusal = f"{10**12} trials are over the cap of {harness.MAX_TRIALS}"
        assert run_cli("estimate", "--n", "1", "--trials", str(10**12)) == (
            2, "", f"error: {refusal}\n"
        )
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"trials": 10**12}))
        assert run_cli("estimate", "--n", "1", "--config", str(config)) == (
            2, "", f"error: --config {config}: {refusal}\n"
        )

    def test_histogram_over_the_bins_cap_exits_2_before_any_trial(self, tmp_path, monkeypatch):
        chain_block = harness.chain_block

        def no_trials(params, seeds):
            assert not len(seeds), "a trial ran"
            return chain_block(params, seeds)

        monkeypatch.setattr(harness, "chain_block", no_trials)
        n = harness.MAX_HISTOGRAM_BINS  # n + 1 bins, one over the cap
        refusal = (
            f"a w_histogram at n = {n} has {n + 1} bins, "
            f"over the cap of {harness.MAX_HISTOGRAM_BINS}"
        )
        argv = ("estimate", "--lambda", "1e-100", "--trials", "1")
        assert run_cli(*argv, "--n", str(n), "--estimator", "w_histogram") == (
            2, "", f"error: {refusal}\n"
        )
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"n": n, "estimator": "w_histogram"}))
        assert run_cli(*argv, "--config", str(config)) == (
            2, "", f"error: --config {config}: {refusal}\n"
        )

    def test_config_value_errors_name_the_flag_and_file(self, tmp_path):
        config = tmp_path / "exp.json"
        for override, message in [
            ({"n": "abc"}, "n must be an integer, got 'abc'"),
            ({"trials": 0}, "trials must be an integer >= 1, got 0"),
        ]:
            config.write_text(json.dumps(override))
            assert run_cli("estimate", "--config", str(config)) == (
                2, "", f"error: --config {config}: {message}\n"
            )
        # refused alike without the config, so the flag is at fault
        config.write_text(json.dumps({"n": 10}))
        alone = run_cli("estimate", "--trials", "0")
        assert alone == (2, "", "error: trials must be an integer >= 1, got 0\n")
        assert run_cli("estimate", "--trials", "0", "--config", str(config)) == alone
        # a config value may mend a bad flag
        config.write_text(json.dumps({"n": 5}))
        code, out, _ = run_cli("estimate", "--n", "0", "--trials", "10", "--config", str(config))
        assert code == 0 and json.loads(out)["params"]["n"] == 5

    def test_integer_rates_in_a_config_give_the_bytes_of_the_flags(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"lambda": 1, "alpha": 2}))
        argv = ("estimate", "--n", "10", "--trials", "50", "--seed", "3")
        from_config = run_cli(*argv, "--config", str(config))
        assert from_config == run_cli(*argv, "--lambda", "1", "--alpha", "2")
        assert '"lambda": 1.0,' in from_config[1]

    def test_config_rejects_unknown_keys(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli("estimate", "--config", str(config))
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize(
        "override",
        [
            {"init": "bogus"},
            {"engine": "nope"},
            {"estimator": "x"},
            {"engine": None},
            {"n": "abc"},
            {"engine": "graph", "graph_file": 5},
            {"engine": "graph", "graph_file": ["edges.txt"]},
            {"trials": True, "alpha": True},
            {"trials": True},
            {"seed": True},
            {"parallelism": True},
            {"lambda": True},
            {"alpha": False},
            {"n": True},
        ],
    )
    def test_config_bad_values_exit_2(self, tmp_path, override):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(override))
        code, out, err = run_cli("estimate", "--trials", "10", "--config", str(config))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_graph_file_flag(self, tmp_path):
        edges = tmp_path / "sq.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli(
            "estimate", "--n", "3", "--alpha", "1", "--engine", "graph",
            "--graph-file", str(edges), "--trials", "40", "--seed", "0",
        )
        assert code == 0
        assert json.loads(out)["estimate"] <= 3.0

    def test_graph_file_vertex_count_must_match_n(self, tmp_path):
        # the histogram length and log n follow n, so a 4-vertex graph
        # cannot stand for K_101
        edges = tmp_path / "sq.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
        code, out, err = run_cli(
            "estimate", "--n", "100", "--engine", "graph", "--graph-file", str(edges),
            "--estimator", "w_histogram", "--trials", "5",
        )
        assert code == 2 and out == ""
        assert err == f"error: --graph-file {edges}: graph has 4 vertices, expected 101\n"

    def test_coupling_resource_cap_exits_2(self):
        code, out, err = run_cli(
            "estimate", "--n", "100000000", "--engine", "coupling", "--trials", "1"
        )
        assert code == 2 and out == "" and "cap" in err

    def test_graph_resource_cap_exits_2(self):
        code, out, err = run_cli(
            "estimate", "--n", "10000000", "--engine", "graph", "--trials", "1"
        )
        assert code == 2 and out == "" and "cap" in err

    def test_parameter_errors_exit_2(self):
        code, _, err = run_cli("estimate", "--n", "0")
        assert code == 2 and "error" in err
        code, _, _ = run_cli("estimate", "--n", "10", "--alpha", "0")
        assert code == 2
        code, _, _ = run_cli(
            "estimate", "--n", "1", "--alpha", "1", "--estimator", "tau_over_log_n"
        )
        assert code == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", "--engine", "nonsense")
        assert exc.value.code == 2


class TestExact:
    def test_two_vertex_values(self):
        code, out, _ = run_cli("exact", "--n", "1", "--lambda", "1", "--alpha", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["extinction_probability"] == 0.5
        assert doc["expected_w"] == 0.5
        assert abs(doc["expected_c"] - 1.25) < 1e-12

    def test_instant_conversion_field(self):
        code, out, _ = run_cli("exact", "--n", "25", "--lambda", "2", "--alpha", "0.5")
        doc = json.loads(out)
        assert abs(doc["distribution"][25] - 0.5 / 50.5) < 1e-12

    def test_alpha_one_matches_kortchemski(self):
        _, std_out, _ = run_cli("exact", "--n", "40", "--alpha", "1")
        _, kor_out, _ = run_cli("exact", "--n", "40", "--alpha", "1", "--init", "kortchemski")
        std_doc, kor_doc = json.loads(std_out), json.loads(kor_out)
        diffs = [
            abs(a - b) for a, b in zip(std_doc["distribution"], kor_doc["distribution"])
        ]
        assert max(diffs) < 1e-12

    def test_cap_exceeded_exit_2(self):
        code, _, err = run_cli("exact", "--n", "5001")
        assert code == 2 and "error" in err


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


class TestRateBounds:
    # lambda = 1e308 overflowed lam * w (the graph engine gave W = n and the
    # DP NaN probabilities), and alpha = 1e-320 a holding time (tau = inf)
    @pytest.mark.parametrize("engine", ["chain", "graph", "coupling"])
    @pytest.mark.parametrize(
        "flag, value", [("--lambda", "1e308"), ("--lambda", "1e-320"), ("--alpha", "1e-320"),
                        ("--alpha", "1e101")]
    )
    def test_estimate_refuses_a_rate_outside_the_bounds(self, engine, flag, value):
        code, out, err = run_cli(
            "estimate", "--n", "5", flag, value, "--engine", engine,
            "--estimator", "tau_over_log_n", "--trials", "10",
        )
        assert code == 2 and out == ""
        name = flag.lstrip("-")
        assert err == f"error: {name} must lie in [1e-100, 1e+100], got {float(value)!r}\n"

    @pytest.mark.parametrize("flag, value", [("--lambda", "1e308"), ("--alpha", "1e-320")])
    def test_exact_refuses_a_rate_outside_the_bounds(self, flag, value):
        code, out, err = run_cli("exact", "--n", "5", flag, value)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("engine", ["chain", "graph", "coupling"])
    @pytest.mark.parametrize("init", ["standard", "kortchemski"])
    def test_every_output_is_finite_at_the_bounds(self, engine, init):
        for lam, alpha in [("1e-100", "1e-100"), ("1e-100", "1e100"), ("1e100", "1e-100"),
                           ("1e100", "1e100")]:
            rates = ("--n", "6", "--lambda", lam, "--alpha", alpha, "--init", init)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for estimator in ("tau_over_log_n", "expected_w", "conversion_over_log_n"):
                    code, out, _ = run_cli(
                        "estimate", *rates, "--engine", engine, "--estimator", estimator,
                        "--trials", "40",
                    )
                    assert code == 0
                    json.loads(out, parse_constant=_no_constants)
                code, out, _ = run_cli("exact", *rates)
                assert code == 0
                json.loads(out, parse_constant=_no_constants)


class TestVerify:
    def test_fast_level_passes(self):
        code, out, _ = run_cli("verify", "--level", "fast")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["criteria"])
        assert {c["id"] for c in report["criteria"]} == {1, 4, 5, 10, 11, 12}

    def test_report_carries_measured_values(self):
        _, out, _ = run_cli("verify", "--level", "fast")
        report = json.loads(out)
        by_id = {c["id"]: c for c in report["criteria"]}
        assert "worst_abs_diff" in by_id[1]["details"]
        assert "measured" in by_id[10]["details"]


class TestOutput:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Make each subcommand's work fail the test if it starts."""

        def started(*args, **kwargs):
            raise AssertionError("the run started")

        for module, name in (
            (cli, "run_to_fixation"), (cli, "run_experiment"), (cli, "exact_distribution_W"),
            (verify, "run_verification"),
        ):
            monkeypatch.setattr(module, name, started)

    @pytest.mark.parametrize("command", ["simulate", "estimate", "exact", "verify"])
    @pytest.mark.parametrize(
        "where, reason",
        [("missing/out.json", "No such file or directory"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_output_is_refused_before_any_work(
        self, tmp_path, no_work, command, where, reason
    ):
        path = tmp_path / where
        code, out, err = run_cli(command, "--output", str(path))
        assert code == 2 and out == ""
        assert err == f"error: --output {path}: {reason}\n"

    def test_refused_run_leaves_the_output_as_it_was(self, tmp_path):
        # simulate opens its output before the run, after its checks
        existing, missing = tmp_path / "old.json", tmp_path / "new.json"
        existing.write_text("old bytes")
        for argv, refusal in (
            (("estimate", "--trials", "0"), "error: trials must be"),
            (("simulate", "--n", "0"), "error: n must be"),
        ):
            for path in (existing, missing):
                code, out, err = run_cli(*argv, "--output", str(path))
                assert code == 2 and out == "" and err.startswith(refusal)
            assert existing.read_text() == "old bytes"
            assert not missing.exists()

    def test_output_file_holds_the_stdout_bytes(self, tmp_path):
        path = tmp_path / "out"
        for argv in (
            ("estimate", "--n", "8", "--trials", "30", "--engine", "coupling"),
            ("simulate", "--n", "30", "--alpha", "2", "--seed", "4"),
            ("simulate", "--n", "30", "--alpha", "2", "--seed", "4", "--format", "json"),
        ):
            path.write_text("old bytes, longer than nothing" * 100)
            code, out, _ = run_cli(*argv)
            assert run_cli(*argv, "--output", str(path)) == (0, "", "")
            assert code == 0 and path.read_text(encoding="utf-8") == out

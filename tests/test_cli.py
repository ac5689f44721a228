import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chasescape import cli, graph
from chasescape.cli import main
from chasescape.chain import check_trajectory, read_trajectory_csv
from chasescape.params import Params


SPARSE_EDGE_LIST = Path(__file__).parent / "golden" / "sparse21.edges"


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
        rows = read_trajectory_csv(io.StringIO(out))
        check_trajectory(rows, Params(20, 1.0, 2.0))

    def test_byte_identical_repeats(self):
        args = ("simulate", "--n", "30", "--alpha", "4", "--seed", "17")
        assert run_cli(*args) == run_cli(*args)

    def test_output_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run_cli("simulate", "--n", "5", "--seed", "1", "--output", str(path))
        assert code == 0 and out == ""
        rows = read_trajectory_csv(io.StringIO(path.read_text()))
        assert rows[-1].state.r == 0

    def test_json_format(self):
        code, out, _ = run_cli("simulate", "--n", "5", "--seed", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["jumps"][-1]["r"] == 0
        assert {"jump_index", "time", "r", "b", "w", "event"} <= set(doc["jumps"][0])

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

    def test_trajectory_over_the_record_cap_exits_2(self):
        # 2 * 10^8 + 1 jumps would need about 54 GB of records
        code, out, err = run_cli("simulate", "--n", "100000000", "--seed", "0")
        assert code == 2 and out == ""
        assert "over the cap" in err and "Traceback" not in err


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
        "n, text, message",
        [
            (1, "0 1 2\n", "line 1: expected 'u v', got '0 1 2'"),
            (1, "a b\n", "line 1: vertex indices must be integers"),
            (1, "0 -1\n", "line 1: vertex indices must be >= 0"),
            (1, "0 1\n1 1\n", "line 2: self-loop at vertex 1"),
            (1, "0 1\n1 0\n", "line 2: duplicate edge 1 0"),
            (4, "0 1\n2 3\n2 4\n3 4\n", "graph is not connected"),
            (1, "\n\n", "edge list is empty"),
            (100, "0 1\n1 2\n2 3\n3 0\n", "graph has 4 vertices, expected 101"),
        ],
        ids=["fields", "integers", "negative", "self-loop", "duplicate", "disconnected",
             "empty", "vertex-count"],
    )
    def test_graph_file_errors_name_the_flag_and_file(self, tmp_path, n, text, message):
        edges = tmp_path / "edges.txt"
        edges.write_text(text)
        code, out, err = run_cli(
            "estimate", "--n", str(n), "--engine", "graph", "--graph-file", str(edges),
            "--trials", "10",
        )
        assert code == 2 and out == ""
        assert err == f"error: --graph-file {edges}: {message}\n"

    def test_graph_file_parsed_once_and_refused_before_the_pool(
        self, tmp_path, inline_pools, monkeypatch
    ):
        calls, parse = [], graph.parse_edge_list

        def counting_parse(lines, vertex_count=None):
            calls.append(vertex_count)
            return parse(lines, vertex_count)

        # every caller's name is wrapped, so a parse anywhere is counted
        monkeypatch.setattr(graph, "parse_edge_list", counting_parse)
        monkeypatch.setattr(cli, "parse_edge_list", counting_parse)
        argv = ("estimate", "--engine", "graph", "--trials", "10", "--parallelism", "2")
        code, out, _ = run_cli(*argv, "--n", "20", "--graph-file", str(SPARSE_EDGE_LIST))
        assert code == 0 and json.loads(out)["trials"] == 10
        assert calls == [21]
        assert [pool.blocks for pool in inline_pools] == [2]

        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 1\n")
        inline_pools.clear()
        code, out, err = run_cli(*argv, "--n", "1", "--graph-file", str(edges))
        assert code == 2 and out == "" and "self-loop" in err
        assert inline_pools == []

    def test_bad_trials_refused_before_the_graph_file_is_read(self, tmp_path):
        missing = tmp_path / "missing.edges"
        code, out, err = run_cli(
            "estimate", "--engine", "graph", "--trials", "0", "--graph-file", str(missing)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: trials must be an integer >= 1")

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

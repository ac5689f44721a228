"""The experiment scripts still run against the package API.

No test imports them, so each runs once in a subprocess on a small input.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chasescape.chain import check_trajectory, read_trajectory_csv
from chasescape.params import Params

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str, returncode: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_trajectory_batch_runs(tmp_path):
    dump = tmp_path / "first.csv"
    run_script("scripts/trajectory_batch.py", "--seeds", "3", "--n", "10", "--dump-first", str(dump))
    rows = read_trajectory_csv(io.StringIO(dump.read_text(encoding="utf-8")))
    check_trajectory(rows, Params(10, 1.0, 4.0))


def test_trajectory_batch_refuses_zero_seeds():
    proc = run_script("scripts/trajectory_batch.py", "--seeds", "0", returncode=2)
    assert "--seeds must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trajectory_batch_one_seed_prints_no_sd():
    proc = run_script("scripts/trajectory_batch.py", "--seeds", "1", "--n", "10")
    assert "W mean=" in proc.stdout and "sd=" not in proc.stdout
    assert proc.stderr == ""


def test_trajectory_batch_refuses_a_bad_parameter():
    proc = run_script("scripts/trajectory_batch.py", "--n", "0", "--seeds", "2", returncode=2)
    assert "n must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trajectory_batch_refuses_a_negative_seed_base():
    proc = run_script("scripts/trajectory_batch.py", "--seed-base", "-1", returncode=2)
    assert "--seed-base must be a 64-bit unsigned integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trajectory_batch_refuses_a_trajectory_over_the_cap(tmp_path):
    dump = tmp_path / "first.csv"
    proc = run_script(
        "scripts/trajectory_batch.py", "--n", "100000000", "--seeds", "1",
        "--dump-first", str(dump), returncode=2,
    )
    assert "over the cap" in proc.stderr and "Traceback" not in proc.stderr
    assert not dump.exists()


@pytest.mark.parametrize(
    "where, reason", [("missing/first.csv", "No such file or directory"), (".", "Is a directory")]
)
def test_trajectory_batch_refuses_an_unwritable_dump_before_any_trial(tmp_path, where, reason):
    dump = tmp_path / where
    proc = run_script(
        "scripts/trajectory_batch.py", "--seeds", "2", "--dump-first", str(dump), returncode=2
    )
    assert proc.stderr.count("error:") == 1
    assert f"error: --dump-first {dump}: {reason}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == []


def test_trend_sweep_refuses_a_bad_parameter():
    proc = run_script(
        "scripts/trend_sweep.py", "--ns", "1", "--estimator", "conversion_over_log_n", returncode=2
    )
    assert "log-n estimators need n >= 2" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_trend_sweep_runs():
    run_script("scripts/trend_sweep.py", "--ns", "10", "20", "--trials", "50")


def test_trend_sweep_wraps_the_seed_of_a_later_n():
    # the second n runs on seed 2^64, which wraps to 0
    top = run_script(
        "scripts/trend_sweep.py", "--ns", "10", "20", "--trials", "5",
        "--seed", str(2**64 - 1),
    )
    wrapped = run_script("scripts/trend_sweep.py", "--ns", "20", "--trials", "5", "--seed", "0")
    assert top.stdout.splitlines()[2] == wrapped.stdout.splitlines()[1]


def test_trend_sweep_refuses_a_negative_seed():
    proc = run_script("scripts/trend_sweep.py", "--ns", "10", "--seed", "-1", returncode=2)
    assert "seed must be a 64-bit unsigned integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trend_sweep_refuses_trials_over_the_cap():
    proc = run_script("scripts/trend_sweep.py", "--ns", "10", "--trials", "1000000000000",
                      returncode=2)
    assert "trials are over the cap" in proc.stderr and "error:" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_trajectory_batch_refuses_seeds_over_the_cap(tmp_path):
    # refused before the first seed's trajectory is written
    dump = tmp_path / "first.csv"
    proc = run_script("scripts/trajectory_batch.py", "--seeds", "1000000000000",
                      "--dump-first", str(dump), returncode=2)
    assert "trials are over the cap" in proc.stderr and "error:" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not dump.exists()


def test_trend_sweep_refuses_a_graph_over_the_cap():
    proc = run_script("scripts/trend_sweep.py", "--engine", "graph", "--ns", "2000",
                      "--trials", "2", returncode=2)
    assert proc.stderr.count("error:") == 1
    assert "K_2001 has 4002000 adjacency entries, over the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trend_sweep_refuses_a_later_n_over_the_cap_before_any_row():
    proc = run_script("scripts/trend_sweep.py", "--engine", "graph", "--ns", "100", "2000",
                      "--trials", "20", returncode=2)
    assert proc.stdout == ""
    assert proc.stderr.count("error:") == 1
    assert "K_2001 has 4002000 adjacency entries, over the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trend_sweep_refuses_a_coupling_trial_over_the_cap():
    proc = run_script("scripts/trend_sweep.py", "--engine", "coupling", "--ns", "2000000",
                      "--trials", "2", returncode=2)
    assert proc.stderr.count("error:") == 1
    assert "a coupling trial at n = 2000000 needs 6000002 uniforms" in proc.stderr
    assert "Traceback" not in proc.stderr

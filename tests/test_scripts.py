"""The experiment scripts still run against the package API.

No test imports them, so each runs once in a subprocess on a small input.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str, returncode: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_trajectory_batch_runs():
    proc = run_script("scripts/trajectory_batch.py", "--seeds", "3", "--n", "10")
    lines = proc.stdout.splitlines()
    assert lines[0] == "config: n=10 lambda=1.0 alpha=4.0 seeds=3"
    assert lines[1].startswith("W mean=") and " sd=" in lines[1]
    assert lines[2].startswith("extinctions (W=0): ")
    assert lines[3].startswith("smallest outcomes: W=") and len(lines) == 4
    assert proc.stderr == ""


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


def test_trajectory_batch_refuses_seeds_over_the_cap():
    proc = run_script("scripts/trajectory_batch.py", "--seeds", "1000000000000", returncode=2)
    assert "trials are over the cap" in proc.stderr and "error:" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


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


def test_mutant_ledger_entries_apply():
    # only the cheap check: a mutant costs a whole tier-1 run
    proc = run_script("scripts/mutants.py", "--check")
    assert proc.stderr == "3 ledger entries apply\n"

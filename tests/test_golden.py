"""Byte-for-byte golden outputs of fixed-seed runs.

Each file under ``tests/golden/`` is the exact output of one command.  A
refactor must leave every one of them unchanged; a change to any golden
file is a declared change of the determinism contract, never a silent
edit.  To regenerate them (only for such a declared change):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from chasescape import (
    InitMode,
    Params,
    complete_graph,
    make_rng,
    run_coupling,
    run_graph_to_fixation,
    run_to_fixation,
    stream_seed,
)
from chasescape.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_ESTIMATE = ("estimate", "--n", "20", "--lambda", "1", "--alpha", "2", "--trials", "200")

# golden file -> `chasescape` arguments that reproduce it
CLI_GOLDENS = {
    "estimate_chain_standard.json": (
        *_ESTIMATE, "--engine", "chain", "--estimator", "expected_w", "--seed", "11",
    ),
    "estimate_chain_kortchemski.json": (
        *_ESTIMATE, "--init", "kortchemski", "--engine", "chain",
        "--estimator", "w_histogram", "--seed", "12",
    ),
    "estimate_graph_standard.json": (
        *_ESTIMATE, "--engine", "graph", "--estimator", "conversion_over_log_n", "--seed", "13",
    ),
    "estimate_graph_kortchemski.json": (
        *_ESTIMATE, "--init", "kortchemski", "--engine", "graph",
        "--estimator", "extinction_prob", "--seed", "14",
    ),
    "estimate_coupling_standard.json": (
        *_ESTIMATE, "--engine", "coupling", "--estimator", "tau_over_log_n", "--seed", "15",
    ),
    "estimate_coupling_kortchemski.json": (
        *_ESTIMATE, "--init", "kortchemski", "--engine", "coupling",
        "--estimator", "expected_w", "--seed", "16",
    ),
    "exact_standard.json": ("exact", "--n", "20", "--lambda", "1", "--alpha", "2"),
    "simulate_standard.csv": ("simulate", "--n", "20", "--alpha", "2", "--seed", "17"),
    "simulate_kortchemski.csv": (
        "simulate", "--n", "20", "--init", "kortchemski", "--seed", "18",
    ),
}

FIXATION_GOLDEN = "fixation_results.csv"


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


# (engine, n, trials); at n = 20000 the chain outruns its first block of
# uniforms (4 * total_vertices > 2**16) and has to refill it
FIXATION_CASES = (
    ("chain", 20, 40),
    ("graph", 20, 40),
    ("coupling", 20, 40),
    ("chain", 20000, 3),
    ("coupling", 20000, 3),
)


def _kernel(engine: str, params: Params):
    if engine == "graph":
        graph = complete_graph(params.total_vertices)
        return lambda rng: run_graph_to_fixation(graph, params, rng)
    run = run_to_fixation if engine == "chain" else run_coupling
    return lambda rng: run(params, rng)


def fixation_results_csv() -> str:
    """Every field of every engine's FixationResult, per trial and init mode.

    The estimate JSONs only carry one summary each; this pins W, C, tau and
    the jump count of each trial directly.
    """
    lines = ["engine,init,n,trial,white_survivors,blue_total,conversions,fixation_time,jump_count"]
    for mode in InitMode:
        for engine, n, trials in FIXATION_CASES:
            kernel = _kernel(engine, Params(n, 1.0, 2.0, mode))
            for i in range(trials):
                res = kernel(make_rng(stream_seed(19, i)))
                lines.append(
                    f"{engine},{mode.value},{n},{i},{res.white_survivors},{res.blue_total},"
                    f"{res.conversions},{res.fixation_time!r},{res.jump_count}"
                )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert run_cli(CLI_GOLDENS[name]) == expected


def test_fixation_results_match_golden():
    expected = (GOLDEN_DIR / FIXATION_GOLDEN).read_text(encoding="utf-8")
    assert fixation_results_csv() == expected


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CLI_GOLDENS.items():
        (GOLDEN_DIR / name).write_text(run_cli(argv), encoding="utf-8")
    (GOLDEN_DIR / FIXATION_GOLDEN).write_text(fixation_results_csv(), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write_goldens()

"""Tests of the benchmark's own code; run with `python -m pytest perfbench/tests`."""

import dataclasses
import json
import re

import numpy as np
import pytest

import chasescape as cs
import probes
import run
from conftest import BENCH
from tracing import Tracer
from workloads import (
    WORKLOADS,
    ResourceError,
    check_bytes,
    check_law,
    check_workers,
    clamp_parallelism,
    digest,
    op_seed,
    oracle_for,
)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_the_spec():
    for group, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in SPEC[group]} == units
        for name in units:
            assert NAME.fullmatch(name), name


def _doc(w, estimate, std_error, trials=1000, histogram=None) -> str:
    doc = {
        "estimator": w.estimator, "engine": w.engine, "estimate": estimate,
        "std_error": std_error, "ci95": [0.0, 0.0], "trials": trials, "seed": 7,
        "params": {"n": w.n, "lambda": 1.0, "alpha": w.alpha, "init": "standard"},
    }
    if histogram is not None:
        doc["histogram"] = histogram
    return cs.harness.canonical_json(doc)


def test_gate_rejects_a_perturbed_estimate():
    w = WORKLOADS["coupling-n50"]
    oracle = oracle_for(w)
    trials = 100_000  # the exact SE of P(W = 0) is then below the reported 0.01
    assert oracle.std_dev / trials**0.5 < 0.01
    assert check_law(w, oracle, _doc(w, oracle.value, 0.01, trials)) == []
    assert check_law(w, oracle, _doc(w, oracle.value + 0.039, 0.01, trials)) == []
    assert check_law(w, oracle, _doc(w, oracle.value + 0.041, 0.01, trials))
    assert check_law(w, oracle, _doc(w, oracle.value - 0.041, 0.01, trials))


def test_gate_uses_the_exact_standard_error_when_the_sample_misses_the_tail():
    w = WORKLOADS["chain-n1000"]
    oracle = oracle_for(w)
    # 150 trials that never reach W = n read about 2 with a small sample SE
    assert check_law(w, oracle, _doc(w, 2.0, 0.15, trials=150)) == []
    assert check_law(w, oracle, _doc(w, 2.0, 0.15, trials=100_000))


def test_gate_rejects_mismatched_bytes():
    w = WORKLOADS["coupling-n50"]
    text = _doc(w, 0.25, 0.01)
    assert check_bytes(w, text, 7, 1000, digest(text)) == []
    assert check_bytes(w, text, 7, 1000, "0" * 64)
    assert check_bytes(w, text, 8, 1000, digest(text))  # another experiment's seed
    assert check_bytes(w, text, 7, 999, digest(text))


def test_gate_applies_the_chi_square_to_histograms():
    w = WORKLOADS["graph-k51"]
    oracle = oracle_for(w)
    fitting = np.round(oracle.probabilities * 1000).astype(int).tolist()
    skewed = [sum(fitting)] + [0] * w.n
    assert check_law(w, oracle, _doc(w, oracle.value, 0.1, histogram=fitting)) == []
    assert check_law(w, oracle, _doc(w, oracle.value, 0.1, histogram=skewed))


def test_self_time_subtracts_the_union_of_clipped_children():
    tracer = Tracer()
    # root [0, 100]; children [10, 30] and [20, 50] overlap, [90, 120] runs past
    # the root; [15, 25] is a grandchild under the first child
    tracer.names = ["root", "a", "b", "c", "a1"]
    tracer.starts = [0, 10, 20, 90, 15]
    tracer.ends = [100, 30, 50, 120, 25]
    tracer.parents = [-1, 0, 0, 0, 1]
    tracer.ops = [0] * 5
    assert tracer.self_times().tolist() == [100 - 40 - 10, 20 - 10, 30, 30, 10]


def test_spans_nest_under_the_open_span():
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.wrap("inner", lambda: None)()
    assert tracer.parents == [-1, 0]
    assert (tracer.self_times() >= 0).all()


def test_clamp_never_exceeds_two_or_the_cpu_count():
    assert clamp_parallelism(2, 1) == 1
    assert clamp_parallelism(2, 64) == 2
    assert clamp_parallelism(8, 64) == 2
    assert clamp_parallelism(1, 64) == 1
    assert clamp_parallelism(2, None) == 1


def test_more_workers_than_cores_is_refused():
    check_workers(2, 2)
    with pytest.raises(ResourceError):
        check_workers(2, 1)


def test_op_seeds_are_reproducible_and_distinct():
    assert op_seed("chain-n1000", 3, 0) == op_seed("chain-n1000", 3, 0)
    seeds = {op_seed(name, s, k) for name in WORKLOADS for s in range(3) for k in range(3)}
    assert len(seeds) == len(WORKLOADS) * 9
    assert max(seeds) < 2**63


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_probes_accept_every_workload(name):
    w = WORKLOADS[name]
    patched = (cs.cli.run_experiment, cs.harness.run_trials, cs.harness.summarize)
    seed, trials = op_seed(name, 0, 0), 20
    text, seconds = probes.inprocess_op(w, seed, trials, 1)
    assert seconds > 0
    tracer = Tracer()
    traced, arrays = probes.traced_cli(tracer, w, seed, trials)
    assert traced == text
    assert check_bytes(w, text, seed, trials, digest(text)) == []
    rep = probes.replicate(tracer, w, seed, trials)
    for harness_values, replicated in zip(arrays, (rep.w, rep.c, rep.tau)):
        assert np.array_equal(harness_values, replicated)
    assert (rep.draws >= rep.jumps).all()
    for span in ("cli.main", "run_experiment", "harness.run_trials", "harness.summarize",
                 probes.KERNELS[w.engine][0], "rng.make_rng"):
        assert tracer.durations(span).size > 0, span
    assert (cs.cli.run_experiment, cs.harness.run_trials, cs.harness.summarize) == patched


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_gate_op_passes_and_predicts_the_timed_op_bytes(name):
    w = WORKLOADS[name]
    w = dataclasses.replace(w, trials_per_op=10, gate_trials=max(w.gate_trials // 10, 50))
    seed = op_seed(name, 0, "ops")
    gate = run.gate_op(w, seed, 1, oracle_for(w))
    assert gate["problems"] == []
    text, _ = probes.inprocess_op(w, seed, w.trials_per_op, 1)
    assert digest(text) == gate["timed_op_digest"]

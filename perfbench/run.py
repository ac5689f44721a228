#!/usr/bin/env python3
"""chasescape benchmark: one run of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coupling-n50 --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
makes a separate traced run that gives the per-layer metrics.  A large gate
op is checked against the exact DP oracle, and every timed op must reproduce
its bytes.  The last line on stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it is the run's record (provenance and per-op digests), which is also
appended to perfbench/out/records.jsonl.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "chasescape" / "__init__.py").is_file():
    sys.exit(f"perfbench: no chasescape sources under {SRC}; run it in a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import chasescape as cs  # noqa: E402
import probes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DETERMINISM_TRIALS,
    DETERMINISM_WORKLOAD,
    MAX_PARALLELISM,
    WORKLOADS,
    Workload,
    affinity_cores,
    check_workers,
    clamp_parallelism,
    check_bytes,
    check_law,
    digest,
    op_seed,
    oracle_for,
)

MIN_ROUNDS = 5
INPROCESS_PER_ROUND = 4
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.chasescape_s": "s",
    "import.scipy_integrate_s": "s",
    "rng.stream_seed_us_p50": "us",
    "rng.make_rng_us_p50": "us",
    "rng.draws_per_trial": "count",
    "birth_death.run_coupling_us_p50": "us",
    "birth_death.run_coupling_us_p99": "us",
    "birth_death.jumps_per_trial": "count",
    "birth_death.draws_per_jump": "ratio",
    "birth_death.trials_timed": "count",
    "chain.run_to_fixation_us_p50": "us",
    "chain.run_to_fixation_us_p99": "us",
    "chain.jumps_per_trial": "count",
    "chain.ns_per_jump": "ns",
    "chain.draws_per_jump": "ratio",
    "chain.trials_timed": "count",
    "graph.complete_graph_ms": "ms",
    "graph.run_graph_to_fixation_us_p50": "us",
    "graph.run_graph_to_fixation_us_p99": "us",
    "graph.us_per_jump": "us",
    "graph.draws_per_jump": "ratio",
    "graph.trials_timed": "count",
    "harness.loop_overhead_frac": "ratio",
    "harness.pool_overhead_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.summarize_ms": "ms",
    "harness.worker_rss_mb": "MB",
    "analytics.exact_distribution_W_s": "s",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# kernel layers a workload does not run are traced on the workload that does
PROBES = {  # engine -> (reference workload, traced trials)
    "coupling": ("coupling-n50", 3000),
    "chain": ("chain-n1000", 200),
    "graph": ("graph-k51", 100),
}


def provenance(w: Workload, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
    except (ImportError, OSError, KeyError):
        version = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": affinity_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "chasescape": version,
        "git_commit": commit,
        "workload": w.name,
        "seed": seed,
        "trials_per_op": w.trials_per_op,
    }


def attempt(records: list, kind: str, seed: int, fn) -> dict:
    """Run one op; an op that raises is recorded as failed and the run goes on."""
    rec = {"kind": kind, "seed": seed}
    try:
        rec.update(fn())
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        rec["problems"] = [f"raised {type(exc).__name__}: {exc}"]
    records.append(rec)
    return rec


def determinism_op(seed: int, workers: int) -> dict:
    """The determinism contract: identical JSON at parallelism 1 and ``workers``."""
    d = WORKLOADS[DETERMINISM_WORKLOAD]
    serial, _ = probes.inprocess_op(d, seed, DETERMINISM_TRIALS, 1)
    parallel, _ = probes.inprocess_op(d, seed, DETERMINISM_TRIALS, workers)
    same = digest(serial) == digest(parallel)
    return {
        "digest": digest(serial),
        "problems": [] if same else [f"JSON at parallelism 1 and {workers} differs"],
    }


def gate_op(w: Workload, seed: int, workers: int, oracle) -> dict:
    """The run's large op, checked against the oracle before any timing.

    Trial i of an experiment depends only on (seed, i), so the timed ops'
    trials are a prefix of this op's.  Their estimate JSON must be exactly
    what summarize() makes of that prefix, whose digest is returned as
    ``timed_op_digest``.  The op also warms caches up.
    """
    big = w.config(seed, w.gate_trials, workers)
    wa, ca, ta = cs.harness.run_trials(big)
    text = cs.harness.summarize(big, wa, ca, ta).to_json()
    t = w.trials_per_op
    small = w.config(seed, t, workers)
    prefix = cs.harness.summarize(small, wa[:t], ca[:t], ta[:t]).to_json()
    return {"digest": digest(text), "timed_op_digest": digest(prefix),
            "problems": check_law(w, oracle, text)}


def scaled(fn):
    """``fn()`` and the slowdown of this process while it ran.

    Other tenants of a shared host can halve this process's speed, in spells
    of seconds to minutes that a whole run can sit in.  The slowdown is the
    calibration loop's mean time on either side of the call over its nominal.
    """
    before = probes.calibration_s()
    result = fn()
    return result, (before + probes.calibration_s()) / 2.0 / probes.CALIBRATION_NOMINAL_S


def end_to_end(w: Workload, seed: int, seconds: float, workers: int, expected: str,
               records: list, env: dict) -> dict:
    """Rounds of one set-up sample, in-process ops and one `chasescape estimate` op."""
    cwd = str(ROOT)
    trials = w.trials_per_op
    setup = []

    def inprocess() -> dict:
        (text, elapsed), slowdown = scaled(lambda: probes.inprocess_op(w, seed, trials, workers))
        return {"digest": digest(text), "trials_per_s_raw": trials / elapsed,
                "slowdown": slowdown, "trials_per_s": trials / elapsed * slowdown,
                "problems": check_bytes(w, text, seed, trials, expected)}

    def command() -> dict:
        run = probes.cli_op(w, seed, trials, workers, env, cwd)
        return {"digest": digest(run.stdout), "wall_s": run.wall_s,
                "peak_rss_mb": sum(run.peak_mb.values()),
                "problems": check_bytes(w, run.stdout, seed, trials, expected)}

    t0 = perf_counter()
    while len(setup) < MIN_ROUNDS or perf_counter() - t0 < seconds:
        elapsed, slowdown = scaled(lambda: probes.measure_setup(w, workers, env, cwd))
        setup.append(elapsed / slowdown)
        for _ in range(INPROCESS_PER_ROUND):
            attempt(records, "inprocess", seed, inprocess)
        attempt(records, "cli", seed, command)

    def median(key: str, kind: str) -> float:
        return statistics.median(r[key] for r in records if r["kind"] == kind and key in r)

    return {
        "trials_per_s": median("trials_per_s", "inprocess"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": median("peak_rss_mb", "cli"),
    }


def per_layer(w: Workload, seed: int, seconds: float, workers: int, expected: str,
              records: list, env: dict, tracer: Tracer) -> dict:
    """Traced ops at parallelism 1, each followed by run_trials at ``workers``."""
    cwd = str(ROOT)
    imports = [probes.import_times(env, cwd) for _ in range(IMPORT_SAMPLES)]
    trials = w.trials_per_op
    counts: dict[str, list] = {}
    done: list[int] = []

    def traced() -> dict:
        text, harness_trials = probes.traced_cli(tracer, w, seed, trials)
        problems = check_bytes(w, text, seed, trials, expected)
        rep = probes.replicate(tracer, w, seed, trials)
        if not all(np.array_equal(a, b) for a, b in zip(harness_trials, (rep.w, rep.c, rep.tau))):
            problems.append("the replicated trial loop disagrees with run_trials")
        if workers > 1:
            with tracer.span("harness.run_trials.pool"):
                pooled = cs.harness.run_trials(w.config(seed, trials, workers))
            if not all(np.array_equal(a, b) for a, b in zip(harness_trials, pooled)):
                problems.append(f"run_trials at parallelism {workers} disagrees with parallelism 1")
        counts.setdefault(w.engine, []).append(rep)
        done.append(tracer.op)
        return {"digest": digest(text), "problems": problems}

    t0 = perf_counter()
    k = 0
    while k == 0 or perf_counter() - t0 < seconds:
        tracer.op = k
        with tracer.span("op"):
            attempt(records, "traced", seed, traced)
        tracer.op = -1
        k += 1

    for engine, (ref, probe_trials) in PROBES.items():
        if engine not in counts:
            with tracer.span("probe"):
                counts[engine] = [probes.replicate(
                    tracer, WORKLOADS[ref], op_seed(ref, seed, "probe"), probe_trials)]

    # a worker's memory, from the estimate command at the pool's parallelism
    worker_rss = []

    def pooled_command() -> dict:
        run = probes.cli_op(w, seed, trials, workers, env, cwd)
        worker_rss.extend(mb for pid, mb in run.peak_mb.items() if pid != run.root_pid)
        return {"digest": digest(run.stdout),
                "problems": check_bytes(w, run.stdout, seed, trials, expected)}

    attempt(records, "cli-pool", seed, pooled_command)
    return layer_metrics(w, tracer, counts, done, imports, workers, worker_rss)


def layer_metrics(w, tracer, counts, done, imports, workers, worker_rss) -> dict:
    dur = tracer.durations

    def per_op(name: str) -> np.ndarray:
        return np.array([dur(name, op=k).sum() for k in done], dtype=np.float64)

    def own_ops(name: str) -> np.ndarray:
        return np.concatenate([dur(name, op=k) for k in done])

    run_trials = per_op("harness.run_trials")
    kernel = probes.KERNELS[w.engine][0]
    rng_kernel = per_op("rng.stream_seed") + per_op("rng.make_rng") + per_op(kernel)
    names = tracer.columns()[0]
    m = {
        "import.chasescape_s": statistics.median(t[0] for t in imports),
        "import.scipy_integrate_s": statistics.median(t[1] for t in imports),
        "rng.stream_seed_us_p50": np.median(own_ops("rng.stream_seed")) / 1e3,
        "rng.make_rng_us_p50": np.median(own_ops("rng.make_rng")) / 1e3,
        "rng.draws_per_trial": np.mean(np.concatenate([c.draws for c in counts[w.engine]])),
        "harness.loop_overhead_frac": np.median(1.0 - rng_kernel / run_trials),
        "harness.summarize_ms": np.median(dur("harness.summarize")) / 1e6,
        "harness.worker_rss_mb": max(worker_rss, default=0.0),
        "analytics.exact_distribution_W_s": dur("analytics.exact_distribution_W")[0] / 1e9,
        "cli.overhead_ms": np.median(tracer.self_times()[names == "cli.main"]) / 1e6,
        "trace.overhead_frac": np.median(1.0 - run_trials / per_op("replicate")),
        "harness.pool_overhead_s": 0.0,
        "harness.parallel_efficiency": 1.0,
        "graph.complete_graph_ms": np.median(dur("graph.complete_graph")) / 1e6,
    }
    if workers > 1:
        pooled = per_op("harness.run_trials.pool")
        m["harness.pool_overhead_s"] = np.median(pooled - run_trials / workers) / 1e9
        m["harness.parallel_efficiency"] = np.median(run_trials / (workers * pooled))
    for engine, (span, _) in probes.KERNELS.items():
        module = span.split(".")[0]
        kernel_ns = dur(span)
        jumps = sum(c.jumps.sum() for c in counts[engine])
        m[f"{span}_us_p50"] = np.percentile(kernel_ns, 50) / 1e3
        m[f"{span}_us_p99"] = np.percentile(kernel_ns, 99) / 1e3
        m[f"{module}.trials_timed"] = kernel_ns.size
        m[f"{module}.jumps_per_trial"] = jumps / kernel_ns.size
        m[f"{module}.draws_per_jump"] = sum(c.draws.sum() for c in counts[engine]) / jumps
        m[f"{module}.ns_per_jump"] = kernel_ns.sum() / jumps
        m[f"{module}.us_per_jump"] = kernel_ns.sum() / jumps / 1e3
    return {name: float(m[name]) for name in PER_LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loaded = Path(cs.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.exit(f"perfbench: imported chasescape from {loaded}, not from {SRC}")
    w = WORKLOADS[args.workload]
    # the workload's own parallelism, and the one used for pool measurements
    workers = clamp_parallelism(w.parallelism, os.cpu_count())
    pool = clamp_parallelism(MAX_PARALLELISM, os.cpu_count())
    check_workers(max(workers, pool), affinity_cores())
    env = probes.subprocess_env(str(SRC))
    records: list = []

    tracer = Tracer()
    with tracer.span("analytics.exact_distribution_W"):
        oracle = oracle_for(w)
    det_seed = op_seed(DETERMINISM_WORKLOAD, args.seed, "determinism")
    attempt(records, "determinism", det_seed, lambda: determinism_op(det_seed, pool))

    seed = op_seed(w.name, args.seed, "ops")  # every op of a run repeats one experiment
    expected = attempt(records, "gate", seed, lambda: gate_op(w, seed, workers, oracle)).get(
        "timed_op_digest")
    if expected is None:
        sys.exit("perfbench: the gate op raised; nothing to time")
    if args.trace:
        metrics = per_layer(w, seed, args.seconds, pool, expected, records, env, tracer)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(w, seed, args.seconds, workers, expected, records, env)
        units = END_TO_END_UNITS

    failed = sum(1 for r in records if r["problems"])
    record = {
        "provenance": provenance(w, args.seed),
        "trace": args.trace,
        "failed_frac": failed / len(records),
        "ops": records,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        tracer.save(OUT / f"spans-{w.name}.npz")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

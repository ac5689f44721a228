"""Benchmark workloads, the resource guard, and the correctness gate.

Every workload runs at lambda = 1 with the standard initial condition.
Estimates are checked against the exact DP oracle at the same
(n, lambda, alpha); the oracle is computed once per run, outside the timed
ops.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import chasescape as cs
from chasescape.analytics import chi_square_gof

LAMBDA = 1.0
MAX_PARALLELISM = 2
GATE_SIGMAS = 4.0
CHI_SQUARE_MIN_P = 0.001  # the significance level of verify criterion 3


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    n: int
    alpha: float
    estimator: str
    parallelism: int
    trials_per_op: int  # sized so that one in-process op takes about 0.25 s
    gate_trials: int  # enough that W's heavy tail shows up in the gate op

    def params(self) -> cs.Params:
        return cs.Params(n=self.n, lam=LAMBDA, alpha=self.alpha)

    def config(self, seed: int, trials: int, parallelism: int) -> cs.ExperimentConfig:
        return cs.ExperimentConfig(
            params=self.params(),
            trials=trials,
            seed=seed,
            estimator=cs.Estimator(self.estimator),
            engine=cs.Engine(self.engine),
            parallelism=parallelism,
        )

    def estimate_argv(self, seed: int, trials: int, parallelism: int) -> list[str]:
        """`chasescape` arguments that request the same estimate as :meth:`config`."""
        return [
            "estimate", "--n", str(self.n), "--lambda", repr(LAMBDA),
            "--alpha", repr(self.alpha), "--init", "standard",
            "--engine", self.engine, "--estimator", self.estimator,
            "--trials", str(trials), "--seed", str(seed),
            "--parallelism", str(parallelism),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coupling-n50", "coupling", 50, 2.0, "extinction_prob", 1, 6000, 60000),
        Workload("coupling-n5000-p2", "coupling", 5000, 4.0, "conversion_over_log_n", 2, 800, 8000),
        Workload("chain-n1000", "chain", 1000, 2.0, "expected_w", 1, 150, 3000),
        Workload("graph-k51", "graph", 50, 2.0, "w_histogram", 1, 60, 600),
    )
}

# the determinism contract is checked once per run on this workload's config
DETERMINISM_WORKLOAD = "coupling-n5000-p2"
DETERMINISM_TRIALS = 600


class ResourceError(RuntimeError):
    """The benchmark would start more workers than the machine has cores."""


def affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def clamp_parallelism(requested: int, cpu_count: int | None) -> int:
    """Workers for a requested parallelism: never above 2 or the CPU count."""
    return max(1, min(requested, MAX_PARALLELISM, cpu_count or 1))


def check_workers(workers: int, cores: int) -> None:
    """Refuse to run more worker processes than the cores this process may use."""
    if workers > cores:
        raise ResourceError(f"{workers} workers requested but only {cores} cores are available")


def op_seed(workload: str, seed: int, label: object) -> int:
    """Experiment seed of one op, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class Oracle:
    value: float  # exact value of the workload's estimator
    std_dev: float  # exact standard deviation of one trial's term, 0 when unknown
    probabilities: np.ndarray  # exact P(W = k), k = 0..n


def oracle_for(w: Workload) -> Oracle:
    dist = cs.exact_distribution_W(w.n, LAMBDA, w.alpha)
    p = dist.probabilities
    k = np.arange(p.size)
    if w.estimator == "extinction_prob":
        value, var = dist.extinction_probability, p[0] * (1.0 - p[0])
    elif w.estimator == "conversion_over_log_n":
        value, var = dist.expected_c / math.log(w.n), 0.0  # the DP gives E[C] only
    else:
        value, var = dist.expected_w, float(k * k @ p) - dist.expected_w**2
    return Oracle(value, math.sqrt(max(var, 0.0)), p)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_bytes(w: Workload, text: str, seed: int, trials: int, expected_digest: str) -> list[str]:
    """Reasons an op's estimate JSON is not the document the run expects."""
    problems = []
    if digest(text) != expected_digest:
        problems.append("estimate JSON differs from the run's reference bytes")
    doc = json.loads(text)
    if (doc["estimator"], doc["engine"], doc["trials"], doc["seed"], doc["params"]["n"]) != (
        w.estimator, w.engine, trials, seed, w.n,
    ):
        problems.append("estimate JSON describes another experiment")
    return problems


def check_law(w: Workload, oracle: Oracle, text: str) -> list[str]:
    """Reasons an estimate disagrees with the exact oracle; empty when it agrees.

    The estimate must lie within 4 standard errors of the oracle value.  The
    standard error is the larger of the reported one and the exact one: W
    has a heavy tail (W = n with probability alpha / (n + alpha)), which a
    sample standard error misses whenever no trial reached it.  A histogram
    must also pass criterion 3's chi-square test.
    """
    doc = json.loads(text)
    est = doc["estimate"]
    se = max(doc["std_error"], oracle.std_dev / math.sqrt(doc["trials"]))
    problems = []
    if not abs(est - oracle.value) <= GATE_SIGMAS * se:
        problems.append(f"estimate {est} is not within {GATE_SIGMAS} SE ({se}) of {oracle.value}")
    if w.estimator == "w_histogram":
        pvalue = chi_square_gof(doc["histogram"], oracle.probabilities).pvalue
        if not pvalue >= CHI_SQUARE_MIN_P:
            problems.append(f"histogram chi-square p = {pvalue} < {CHI_SQUARE_MIN_P}")
    return problems

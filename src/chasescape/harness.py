"""Monte Carlo experiment harness.

Trial i of an experiment always draws from its own generator keyed by
``stream_seed(seed, i)``, so the merged estimate is bit-identical for every
parallelism level: workers only decide which trials they compute, never what
those trials produce, and the summary is a single-threaded fold over the
per-trial arrays in trial order.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, TextIO

import numpy as np
from scipy.special import ndtri

from .analytics import stats_wilson_ci
from .birth_death import run_coupling
from .chain import (
    EventKind,
    FixationResult,
    JumpRecord,
    PopulationState,
    Trajectory,
    run_to_fixation,
)
from .graph import complete_graph, load_edge_list, run_graph_to_fixation
from .params import ParameterError, Params
from .rng import make_rng, stream_seed


class Engine(Enum):
    CHAIN = "chain"
    GRAPH = "graph"
    COUPLING = "coupling"


class Estimator(Enum):
    EXTINCTION_PROB = "extinction_prob"
    EXPECTED_W = "expected_w"
    CONVERSION_OVER_LOG_N = "conversion_over_log_n"
    TAU_OVER_LOG_N = "tau_over_log_n"
    W_HISTOGRAM = "w_histogram"

_LOG_N_ESTIMATORS = (Estimator.CONVERSION_OVER_LOG_N, Estimator.TAU_OVER_LOG_N)


@dataclass(frozen=True)
class ExperimentConfig:
    params: Params
    trials: int
    seed: int
    estimator: Estimator
    engine: Engine = Engine.CHAIN
    parallelism: int = 1
    graph_file: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ParameterError(f"parallelism must be an integer >= 1, got {self.parallelism!r}")
        if self.estimator in _LOG_N_ESTIMATORS and self.params.n < 2:
            raise ParameterError("log-n estimators need n >= 2 (log 1 = 0)")
        if self.graph_file is not None and not isinstance(self.graph_file, str):
            raise ParameterError(f"graph_file must be a path string, got {self.graph_file!r}")
        if self.graph_file is not None and self.engine is not Engine.GRAPH:
            raise ParameterError("graph_file only applies to the graph engine")


@dataclass(frozen=True)
class EstimatorSummary:
    """Merged Monte Carlo estimate with its uncertainty."""

    estimator: str
    engine: str
    estimate: float
    std_error: float
    ci95: tuple[float, float]
    trials: int
    seed: int
    params: dict
    histogram: list[int] | None = None

    def to_dict(self) -> dict:
        out = {
            "estimator": self.estimator,
            "engine": self.engine,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "trials": self.trials,
            "seed": self.seed,
            "params": self.params,
        }
        if self.histogram is not None:
            out["histogram"] = self.histogram
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(obj) -> str:
    """Fixed-layout JSON: insertion order, 2-space indent, shortest
    round-trip float repr, trailing newline.  Parsing and re-serializing an
    emitted document reproduces it byte for byte."""
    return json.dumps(obj, indent=2) + "\n"


def params_as_dict(params: Params) -> dict:
    return {
        "n": params.n,
        "lambda": params.lam,
        "alpha": params.alpha,
        "init": params.init_mode.value,
    }


Kernel = Callable[[np.random.Generator], FixationResult]


def _graph_kernel(params: Params, graph_file: str | None) -> Kernel:
    graph = load_edge_list(graph_file) if graph_file else complete_graph(params.total_vertices)
    return partial(run_graph_to_fixation, graph, params)


# engine -> factory of its per-trial kernel; the factory does the set-up a
# block of trials shares (the graph engine builds its graph once)
ENGINE_KERNELS: dict[Engine, Callable[[Params, str | None], Kernel]] = {
    Engine.CHAIN: lambda params, _graph_file: partial(run_to_fixation, params),
    Engine.GRAPH: _graph_kernel,
    Engine.COUPLING: lambda params, _graph_file: partial(run_coupling, params),
}


def _run_block(
    engine: Engine,
    params: Params,
    graph_file: str | None,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials [start, stop) as (W, C, tau) arrays; pure in (seed, indices)."""
    count = stop - start
    w = np.empty(count, dtype=np.int64)
    c = np.empty(count, dtype=np.int64)
    tau = np.empty(count, dtype=np.float64)
    kernel = ENGINE_KERNELS[engine](params, graph_file)
    for k in range(count):
        res = kernel(make_rng(stream_seed(seed, start + k)))
        w[k] = res.white_survivors
        c[k] = res.conversions
        tau[k] = res.fixation_time
    return w, c, tau


def run_trials(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trials of an experiment, assembled in trial order.

    The trials split into ``parallelism`` blocks whatever the machine; the
    pool runs them on at most one worker process per CPU.
    """
    trials = config.trials
    if config.parallelism == 1 or trials < 2 * config.parallelism:
        return _run_block(config.engine, config.params, config.graph_file, config.seed, 0, trials)
    bounds = np.linspace(0, trials, config.parallelism + 1).astype(int)
    w = np.empty(trials, dtype=np.int64)
    c = np.empty(trials, dtype=np.int64)
    tau = np.empty(trials, dtype=np.float64)
    workers = min(config.parallelism, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            (
                int(lo),
                int(hi),
                pool.submit(
                    _run_block,
                    config.engine,
                    config.params,
                    config.graph_file,
                    config.seed,
                    int(lo),
                    int(hi),
                ),
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for lo, hi, fut in futures:
            bw, bc, btau = fut.result()
            w[lo:hi] = bw
            c[lo:hi] = bc
            tau[lo:hi] = btau
    return w, c, tau


def _mean_summary(values: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    estimate = float(np.mean(values))
    if values.size > 1:
        se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    else:
        se = 0.0
    z = float(ndtri(0.975))
    return estimate, se, (estimate - z * se, estimate + z * se)


def summarize(
    config: ExperimentConfig, w: np.ndarray, c: np.ndarray, tau: np.ndarray
) -> EstimatorSummary:
    """Single-threaded fold of the per-trial arrays into a summary."""
    trials = config.trials
    histogram = None
    if config.estimator is Estimator.EXTINCTION_PROB:
        successes = int(np.count_nonzero(w == 0))
        estimate = successes / trials
        std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
        ci = stats_wilson_ci(successes, trials, 0.95)
    elif config.estimator is Estimator.EXPECTED_W:
        estimate, std_error, ci = _mean_summary(w.astype(np.float64))
    elif config.estimator is Estimator.CONVERSION_OVER_LOG_N:
        estimate, std_error, ci = _mean_summary(c / math.log(config.params.n))
    elif config.estimator is Estimator.TAU_OVER_LOG_N:
        estimate, std_error, ci = _mean_summary(tau / math.log(config.params.n))
    else:
        estimate, std_error, ci = _mean_summary(w.astype(np.float64))
        histogram = np.bincount(w, minlength=config.params.n + 1).tolist()
    return EstimatorSummary(
        estimator=config.estimator.value,
        engine=config.engine.value,
        estimate=estimate,
        std_error=std_error,
        ci95=ci,
        trials=trials,
        seed=config.seed,
        params=params_as_dict(config.params),
        histogram=histogram,
    )


def run_experiment(config: ExperimentConfig) -> EstimatorSummary:
    w, c, tau = run_trials(config)
    return summarize(config, w, c, tau)


TRAJECTORY_HEADER = "jump_index,time,r,b,w,event"


def write_trajectory_csv(trajectory: Trajectory, stream: TextIO) -> None:
    """One row per jump; the initial state is implied by the parameters."""
    stream.write(TRAJECTORY_HEADER + "\n")
    for i, rec in enumerate(trajectory.records, start=1):
        r, b, w = rec.state
        stream.write(f"{i},{rec.time!r},{r},{b},{w},{rec.event.value}\n")


def read_trajectory_csv(stream: TextIO) -> list[JumpRecord]:
    """Parse rows back into jump records, checking the jump_index column.

    :func:`chasescape.chain.check_trajectory` checks the records themselves.
    """
    header = stream.readline().rstrip("\n")
    if header != TRAJECTORY_HEADER:
        raise ParameterError(f"unexpected trajectory header: {header!r}")
    rows = []
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ParameterError(f"malformed trajectory row: {raw!r}")
        idx, t, r, b, w, event = fields
        if int(idx) != len(rows) + 1:
            raise ParameterError(f"jump_index {idx} out of order (expected {len(rows) + 1})")
        rows.append(
            JumpRecord(float(t), PopulationState(int(r), int(b), int(w)), EventKind(event))
        )
    if not rows:
        raise ParameterError("trajectory CSV has no data rows")
    return rows

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
from dataclasses import asdict, dataclass
from enum import Enum
from functools import partial

import numpy as np

from .analytics import _Z975, stats_wilson_ci
from .birth_death import coupling_block
from .chain import chain_block
from .graph import Graph, complete_graph, graph_block
from .params import ParameterError, Params, is_integer, require_seed
from .rng import stream_seeds


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
    graph: Graph | None = None  # None: the complete graph that params imply

    def __post_init__(self) -> None:
        if not is_integer(self.trials) or self.trials < 1:
            raise ParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        require_seed("seed", self.seed)
        if not is_integer(self.parallelism) or self.parallelism < 1:
            raise ParameterError(f"parallelism must be an integer >= 1, got {self.parallelism!r}")
        if self.estimator in _LOG_N_ESTIMATORS and self.params.n < 2:
            raise ParameterError("log-n estimators need n >= 2 (log 1 = 0)")
        if self.graph is not None and self.engine is not Engine.GRAPH:
            raise ParameterError("a graph only applies to the graph engine")


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

    def to_json(self) -> str:
        doc = asdict(self)
        if self.histogram is None:
            del doc["histogram"]
        return canonical_json(doc)


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


def run_block(
    config: ExperimentConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, C, tau) arrays of trials [start, stop), trial i drawn from its own
    stream ``stream_seed(config.seed, i)`` however the trials are split into
    blocks.  The graph engine builds the complete graph once per block
    unless the config holds a graph."""
    params, seeds = config.params, stream_seeds(config.seed, start, stop)
    if config.engine is Engine.CHAIN:
        return chain_block(params, seeds)
    if config.engine is Engine.COUPLING:
        return coupling_block(params, seeds)
    graph = complete_graph(params.total_vertices) if config.graph is None else config.graph
    return graph_block(graph, params, seeds)


def run_trials(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trials of an experiment, assembled in trial order.

    The trials split into ``parallelism`` blocks whatever the machine; the
    pool runs them on at most one worker process per CPU.
    """
    trials = config.trials
    if config.parallelism == 1 or trials < 2 * config.parallelism:
        return run_block(config, 0, trials)
    bounds = np.linspace(0, trials, config.parallelism + 1).astype(int).tolist()
    workers = min(config.parallelism, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(partial(run_block, config), bounds[:-1], bounds[1:]))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _mean_summary(values: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    estimate = float(np.mean(values))
    if values.size > 1:
        se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    else:
        se = 0.0
    return estimate, se, (estimate - _Z975 * se, estimate + _Z975 * se)


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
        ci = stats_wilson_ci(successes, trials)
    elif config.estimator is Estimator.CONVERSION_OVER_LOG_N:
        estimate, std_error, ci = _mean_summary(c / math.log(config.params.n))
    elif config.estimator is Estimator.TAU_OVER_LOG_N:
        estimate, std_error, ci = _mean_summary(tau / math.log(config.params.n))
    else:  # expected_w, and w_histogram with its bins
        estimate, std_error, ci = _mean_summary(w.astype(np.float64))
        if config.estimator is Estimator.W_HISTOGRAM:
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

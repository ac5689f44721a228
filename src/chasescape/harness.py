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
from typing import Callable

import numpy as np

from .analytics import _Z975, stats_wilson_ci
from .birth_death import coupling_block, coupling_uniforms
from .chain import FixationResult, run_to_fixation
from .graph import complete_graph, load_edge_list, run_graph_to_fixation
from .params import ParameterError, Params, is_integer
from .rng import trial_rngs


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
        if not is_integer(self.trials) or self.trials < 1:
            raise ParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not is_integer(self.parallelism) or self.parallelism < 1:
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


Block = tuple[np.ndarray, np.ndarray, np.ndarray]
BlockKernel = Callable[[Params, str | None, int, int, int], Block]

# uniforms per chunk of a coupling block: ~100 trials at n = 50, and one
# trial per chunk from n = 5461 up
_COUPLING_CHUNK_UNIFORMS = 1 << 14


def _per_trial_block(
    kernel: Callable[[np.random.Generator], FixationResult], seed: int, start: int, stop: int
) -> Block:
    count = stop - start
    w = np.empty(count, dtype=np.int64)
    c = np.empty(count, dtype=np.int64)
    tau = np.empty(count, dtype=np.float64)
    for k, rng in enumerate(trial_rngs(seed, start, stop)):
        res = kernel(rng)
        w[k] = res.white_survivors
        c[k] = res.conversions
        tau[k] = res.fixation_time
    return w, c, tau


def _chain_block(params: Params, _graph_file: str | None, seed: int, start: int, stop: int) -> Block:
    return _per_trial_block(partial(run_to_fixation, params), seed, start, stop)


def _graph_block(params: Params, graph_file: str | None, seed: int, start: int, stop: int) -> Block:
    if graph_file is None:
        graph = complete_graph(params.total_vertices)
    else:
        graph = load_edge_list(graph_file)
    return _per_trial_block(partial(run_graph_to_fixation, graph, params), seed, start, stop)


def _coupling_block(
    params: Params, _graph_file: str | None, seed: int, start: int, stop: int
) -> Block:
    """Trials drawn into (rows x (3n+2)) chunks of uniforms, one row per
    trial from its own stream, and run through one vectorised kernel."""
    width = coupling_uniforms(params)
    rows = max(1, _COUPLING_CHUNK_UNIFORMS // width)
    count = stop - start
    w = np.empty(count, dtype=np.int64)
    c = np.empty(count, dtype=np.int64)
    tau = np.empty(count, dtype=np.float64)
    uniforms = np.empty((min(rows, count), width))
    rngs = trial_rngs(seed, start, stop)
    for lo in range(0, count, rows):
        chunk = uniforms[: min(rows, count - lo)]
        for row, rng in zip(chunk, rngs):
            rng.random(out=row)
        hi = lo + chunk.shape[0]
        w[lo:hi], c[lo:hi], tau[lo:hi] = coupling_block(params, chunk)
    return w, c, tau


# engine -> kernel computing trials [start, stop) as (W, C, tau) arrays,
# pure in (seed, indices): trial i always draws from its own stream
# stream_seed(seed, i), however the trials are split into blocks
ENGINE_KERNELS: dict[Engine, BlockKernel] = {
    Engine.CHAIN: _chain_block,
    Engine.GRAPH: _graph_block,
    Engine.COUPLING: _coupling_block,
}


def run_trials(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trials of an experiment, assembled in trial order.

    The trials split into ``parallelism`` blocks whatever the machine; the
    pool runs them on at most one worker process per CPU.
    """
    trials = config.trials
    block = partial(ENGINE_KERNELS[config.engine], config.params, config.graph_file, config.seed)
    if config.parallelism == 1 or trials < 2 * config.parallelism:
        return block(0, trials)
    bounds = np.linspace(0, trials, config.parallelism + 1).astype(int).tolist()
    workers = min(config.parallelism, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(block, bounds[:-1], bounds[1:]))
    w, c, tau = (np.concatenate(column) for column in zip(*blocks))
    return w, c, tau


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

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
from dataclasses import asdict, dataclass
from enum import Enum
from functools import partial

import numpy as np

from .analytics import _Z975, stats_wilson_ci
from .birth_death import coupling_block
from .chain import chain_block
from .graph import Graph, graph_block, require_vertex_count
from .params import ParameterError, Params, ResourceLimitError, is_integer, require_seed
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

# cap on the trials of an experiment, refused before the seeds are drawn: a
# chain run of 10^6 trials peaks at 40.8 MB (tracemalloc; seeds, W, C, tau
# and the summary's temporaries), so about 2.7 GB at the cap
MAX_TRIALS = 1 << 26

# cap on the n + 1 bins of a w_histogram, refused before any trial runs: the
# summary's bincount, its list and the JSON text peak at about 88 bytes a bin
# (tracemalloc at n = 10^6; a one-trial chain estimate there peaks at 126 MB
# RSS against 35 MB at n = 50), so about 370 MB at the cap
MAX_HISTOGRAM_BINS = 1 << 22


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
        if not isinstance(self.params, Params):
            raise ParameterError(f"params must be a Params, got a {type(self.params).__name__}")
        if not isinstance(self.engine, Engine):
            raise ParameterError(f"engine must be an Engine, got {self.engine!r}")
        if not isinstance(self.estimator, Estimator):
            raise ParameterError(f"estimator must be an Estimator, got {self.estimator!r}")
        if not is_integer(self.trials) or self.trials < 1:
            raise ParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if self.trials > MAX_TRIALS:
            raise ResourceLimitError(f"{self.trials} trials are over the cap of {MAX_TRIALS}")
        require_seed("seed", self.seed)
        if not is_integer(self.parallelism) or self.parallelism < 1:
            raise ParameterError(f"parallelism must be an integer >= 1, got {self.parallelism!r}")
        bins = self.params.n + 1
        if self.estimator is Estimator.W_HISTOGRAM and bins > MAX_HISTOGRAM_BINS:
            raise ResourceLimitError(
                f"a w_histogram at n = {self.params.n} has {bins} bins, "
                f"over the cap of {MAX_HISTOGRAM_BINS}"
            )
        if self.estimator in _LOG_N_ESTIMATORS and self.params.n < 2:
            raise ParameterError("log-n estimators need n >= 2 (log 1 = 0)")
        if self.graph is not None:
            if self.engine is not Engine.GRAPH:
                raise ParameterError("a graph only applies to the graph engine")
            if not isinstance(self.graph, Graph):
                raise ParameterError(f"graph must be a Graph, got a {type(self.graph).__name__}")
            require_vertex_count(self.graph, self.params)


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
        "lambda": float(params.lam),
        "alpha": float(params.alpha),
        "init": params.init_mode.value,
    }


def run_block(
    config: ExperimentConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, C, tau) arrays of trials [start, stop), trial i drawn from its own
    stream ``stream_seed(config.seed, i)`` however the trials are split into
    blocks.  The graph engine runs on ``config.graph``, or on the complete
    graph that ``config.params`` imply when that is None."""
    params, seeds = config.params, stream_seeds(config.seed, start, stop)
    if config.engine is Engine.CHAIN:
        return chain_block(params, seeds)
    if config.engine is Engine.COUPLING:
        return coupling_block(params, seeds)
    return graph_block(config.graph, params, seeds)


def ProcessPoolExecutor(max_workers: int):
    """The pool ``run_trials`` opens.  ``concurrent.futures`` and the
    ``multiprocessing`` stack load on the first call, so a serial run never
    imports them; tests replace this name with an inline pool."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def run_trials(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trials of an experiment in trial order, in w = min(parallelism,
    usable CPUs) blocks: this process runs block 0 while a pool of w - 1
    workers runs the rest, one block each.  One worker, or fewer than two
    trials per worker, runs one block here with no pool and imports no pool
    module.  The empty block refuses a request over an engine's cap before
    any worker starts."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    trials, workers = config.trials, min(config.parallelism, cpus or 1)
    if workers == 1 or trials < 2 * workers:
        return run_block(config, 0, trials)
    run_block(config, 0, 0)
    bounds = np.linspace(0, trials, workers + 1).astype(int).tolist()
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        rest = pool.map(partial(run_block, config), bounds[1:-1], bounds[2:])
        blocks = [run_block(config, 0, bounds[1]), *rest]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _mean_summary(values: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    estimate = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
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

"""Chase-escape with conversion on complete graphs.

Three law-equivalent simulation engines (population chain, per-edge graph
Gillespie, birth/death coupling), an exact finite-n oracle for the
white-survivor distribution, closed-form limits with independent quadrature
cross-checks, and a reproducible Monte Carlo harness.

The package exports what the scripts and the benchmark use; everything else
is imported from its module.
"""

from .analytics import exact_distribution_W
from .birth_death import run_coupling
from .chain import run_to_fixation
from .graph import complete_graph, run_graph_to_fixation
from .harness import Engine, Estimator, ExperimentConfig, run_experiment
from .params import InitMode, ParameterError, Params, ResourceLimitError
from .rng import make_rng, stream_seed

__all__ = [
    "Engine",
    "Estimator",
    "ExperimentConfig",
    "InitMode",
    "ParameterError",
    "Params",
    "ResourceLimitError",
    "complete_graph",
    "exact_distribution_W",
    "make_rng",
    "run_coupling",
    "run_experiment",
    "run_graph_to_fixation",
    "run_to_fixation",
    "stream_seed",
]

"""Chase-escape with conversion on complete graphs.

Three law-equivalent simulation engines (population chain, per-edge graph
Gillespie, birth/death coupling), an exact finite-n oracle for the
white-survivor distribution, closed-form limits with independent quadrature
cross-checks, and a reproducible Monte Carlo harness.
"""

from .analytics import (
    ExactDistribution,
    conversion_growth_limit,
    exact_distribution_W,
    expected_excess_closed,
    expected_excess_quadrature,
    expected_white_limit,
    expected_Z,
    extinction_limit,
    prob_gamma_less_exp_closed,
    prob_gamma_less_exp_quadrature,
    stats_ks,
    stats_ks_two_sample,
    stats_wilson_ci,
)
from .birth_death import (
    run_coupling,
    sample_limit_sum,
    sample_terminal_gamma_process,
    simulate_birth_times,
    simulate_death_times,
)
from .chain import (
    EventKind,
    FixationResult,
    PopulationState,
    initial_state,
    run_to_fixation,
)
from .graph import (
    Graph,
    GraphState,
    VertexColor,
    complete_graph,
    graph_jump,
    load_edge_list,
    parse_edge_list,
    run_graph_to_fixation,
)
from .harness import (
    Engine,
    Estimator,
    EstimatorSummary,
    ExperimentConfig,
    run_experiment,
)
from .params import (
    InitMode,
    NoTransitionError,
    ParameterError,
    Params,
    QuadratureError,
    ResourceLimitError,
)
from .rng import make_rng, stream_seed
from .verify import run_verification

__all__ = [
    "Engine",
    "Estimator",
    "EstimatorSummary",
    "EventKind",
    "ExactDistribution",
    "ExperimentConfig",
    "FixationResult",
    "Graph",
    "GraphState",
    "InitMode",
    "NoTransitionError",
    "ParameterError",
    "Params",
    "PopulationState",
    "QuadratureError",
    "ResourceLimitError",
    "VertexColor",
    "complete_graph",
    "conversion_growth_limit",
    "exact_distribution_W",
    "expected_Z",
    "expected_excess_closed",
    "expected_excess_quadrature",
    "expected_white_limit",
    "extinction_limit",
    "graph_jump",
    "initial_state",
    "load_edge_list",
    "make_rng",
    "parse_edge_list",
    "prob_gamma_less_exp_closed",
    "prob_gamma_less_exp_quadrature",
    "run_coupling",
    "run_experiment",
    "run_graph_to_fixation",
    "run_to_fixation",
    "run_verification",
    "sample_limit_sum",
    "sample_terminal_gamma_process",
    "simulate_birth_times",
    "simulate_death_times",
    "stats_ks",
    "stats_ks_two_sample",
    "stats_wilson_ci",
    "stream_seed",
]

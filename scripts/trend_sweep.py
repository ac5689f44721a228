#!/usr/bin/env python3
"""Sweep an estimator over a ladder of n values and emit one CSV row per n.

The large-n limits are: extinction_prob -> 2^{-alpha} and
expected_w -> 2*alpha at lambda = 1, conversion_over_log_n -> alpha,
tau_over_log_n -> 1.  Example:

    python scripts/trend_sweep.py --estimator conversion_over_log_n \
        --alpha 4 --ns 100 1000 10000 --trials 10000 --engine coupling
"""

import argparse
import sys

from chasescape import (
    Engine,
    Estimator,
    ExperimentConfig,
    ParameterError,
    Params,
    ResourceLimitError,
    run_experiment,
)
from chasescape.harness import run_block
from chasescape.params import require_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--estimator", default="expected_w",
                        choices=[e.value for e in Estimator])
    parser.add_argument("--engine", default="coupling", choices=[e.value for e in Engine])
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--ns", type=int, nargs="+", default=[100, 400, 1600])
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parallelism", type=int, default=1)
    args = parser.parse_args()

    try:
        require_seed("--seed", args.seed)
        configs = [
            ExperimentConfig(
                params=Params(n=n, lam=args.lam, alpha=args.alpha),
                trials=args.trials,
                seed=(args.seed + i) % 2**64,  # the i-th n runs on seed + i
                estimator=Estimator(args.estimator),
                engine=Engine(args.engine),
                parallelism=args.parallelism,
            )
            for i, n in enumerate(args.ns)
        ]
        # the empty block meets an engine's cap (the complete graph, a
        # coupling trial), so an n over it is refused before the first row
        for config in configs:
            run_block(config, 0, 0)
    except (ParameterError, ResourceLimitError) as exc:
        parser.error(str(exc))

    print("n,estimate,std_error,ci_lo,ci_hi,trials")
    for n, config in zip(args.ns, configs):
        s = run_experiment(config)
        print(f"{n},{s.estimate!r},{s.std_error!r},{s.ci95[0]!r},{s.ci95[1]!r},{s.trials}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

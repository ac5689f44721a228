#!/usr/bin/env python3
"""Replay one configuration over many seeds and summarize the W samples.

Defaults reproduce the showcase setting K_101 with lambda = 1, alpha = 4,
where single realizations routinely leave only a handful of white survivors.
Trial i runs on stream_seed(seed_base, i); trial 0's trajectory CSV is what
``chasescape simulate`` writes with the same --n, --lambda and --alpha,
``--seed`` set to the seed base and ``--output F``.

    python scripts/trajectory_batch.py --seeds 100
"""

import argparse
import sys
from collections import Counter

from chasescape import (
    Engine,
    Estimator,
    ExperimentConfig,
    ParameterError,
    Params,
    ResourceLimitError,
)
from chasescape.harness import run_trials
from chasescape.params import require_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=4.0)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    try:
        params = Params(n=args.n, lam=args.lam, alpha=args.alpha)
        require_seed("--seed-base", args.seed_base)
        config = ExperimentConfig(
            params, trials=args.seeds, seed=args.seed_base, estimator=Estimator.EXPECTED_W,
            engine=Engine.CHAIN,
        )
    except (ParameterError, ResourceLimitError) as exc:  # before any trial
        parser.error(str(exc))
    w, _, _ = run_trials(config)
    print(f"config: n={args.n} lambda={args.lam} alpha={args.alpha} seeds={args.seeds}")
    # a sample sd needs two samples
    sd = f" sd={w.std(ddof=1):.3f}" if w.size > 1 else ""
    print(f"W mean={w.mean():.3f}{sd} min={w.min()} max={w.max()}")
    print(f"extinctions (W=0): {int((w == 0).sum())}")
    counts = Counter(w.tolist())
    head = ", ".join(f"W={k}:{counts[k]}" for k in sorted(counts)[:8])
    print(f"smallest outcomes: {head}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

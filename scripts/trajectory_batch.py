#!/usr/bin/env python3
"""Replay one configuration over many seeds and summarize the W samples.

Defaults reproduce the showcase setting K_101 with lambda = 1, alpha = 4,
where single realizations routinely leave only a handful of white survivors.
Optionally dumps the first realization as a trajectory CSV for plotting.

    python scripts/trajectory_batch.py --seeds 100 --dump-first traj.csv
"""

import argparse
import sys
from collections import Counter

import numpy as np

from chasescape import (
    ParameterError,
    Params,
    ResourceLimitError,
    make_rng,
    run_to_fixation,
    stream_seed,
)
from chasescape.chain import write_trajectory_csv
from chasescape.params import require_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=4.0)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--dump-first", default=None, help="write seed 0's trajectory CSV here")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    try:
        params = Params(n=args.n, lam=args.lam, alpha=args.alpha)
        require_seed("--seed-base", args.seed_base)
    except ParameterError as exc:
        parser.error(str(exc))
    w_samples = []
    for i in range(args.seeds):
        records = [] if i == 0 and args.dump_first else None
        try:
            result = run_to_fixation(params, make_rng(stream_seed(args.seed_base, i)), records)
        except ResourceLimitError as exc:  # a recorded run too long to hold, before any jump
            parser.error(str(exc))
        w_samples.append(result.white_survivors)
        if records is not None:
            with open(args.dump_first, "w", encoding="utf-8") as fh:
                write_trajectory_csv(records, fh)

    w = np.array(w_samples)
    print(f"config: n={args.n} lambda={args.lam} alpha={args.alpha} seeds={args.seeds}")
    # a sample sd needs two samples
    sd = f" sd={w.std(ddof=1):.3f}" if w.size > 1 else ""
    print(f"W mean={w.mean():.3f}{sd} min={w.min()} max={w.max()}")
    print(f"extinctions (W=0): {int((w == 0).sum())}")
    counts = Counter(w_samples)
    head = ", ".join(f"W={k}:{counts[k]}" for k in sorted(counts)[:8])
    print(f"smallest outcomes: {head}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic random streams for reproducible, parallelizable trials.

Every engine draws uniforms from a counter-based Philox generator and maps
them through explicit inverse CDFs.  Trial ``i`` of an experiment with master
seed ``s`` uses its own generator keyed by ``stream_seed(s, i)``, so any
subset of trials can be reproduced in isolation and results never depend on
how trials are distributed across workers.

The mixing function is SplitMix64: ``stream_seed(s, i)`` is the ``i``-th
output of a SplitMix64 sequence seeded with ``s``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer: one 64-bit avalanche round."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed: int, index: int) -> int:
    """64-bit seed for stream ``index`` derived from ``master_seed``."""
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return splitmix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    """Philox (counter-based) generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))

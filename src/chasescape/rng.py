"""Deterministic random streams for reproducible, parallelizable trials.

Every engine draws uniforms from a counter-based Philox generator and maps
them through explicit inverse CDFs.  Trial ``i`` of an experiment with master
seed ``s`` uses its own generator keyed by ``stream_seed(s, i)``, so any
subset of trials can be reproduced in isolation and results never depend on
how trials are distributed across workers.

The mixing function is SplitMix64: ``stream_seed(s, i)`` is the ``i``-th
output of a SplitMix64 sequence seeded with ``s``.  ``stream_seeds`` computes
a range of them at once.  ``streams`` hands out their generators from any
uniform on, from one Philox re-keyed per trial, as a counter-based generator
allows: 0.48 us a re-key (1.17 us from uint64 state arrays) against 10 us a
new ``make_rng``, on 2 x86-64 CPUs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    """SplitMix64 finalizer: one 64-bit avalanche round.

    Takes a Python int or a numpy uint64 array (which wraps on its own, so
    the masks leave it unchanged).
    """
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_stream(master_seed: int, index):
    """Seed of stream ``index`` (a Python int or a uint64 array)."""
    return splitmix64(((master_seed & _MASK64) + (index + 1) * _GOLDEN) & _MASK64)


def stream_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """uint64 seeds of streams [start, stop) derived from ``master_seed``."""
    if start < 0:
        raise ValueError(f"stream index must be >= 0, got {start}")
    indices = np.arange(stop - start, dtype=np.uint64) + np.uint64(start & _MASK64)
    return _mix_stream(master_seed, indices)


def stream_seed(master_seed: int, index: int) -> int:
    """64-bit seed for stream ``index`` derived from ``master_seed``.

    The scalar case of :func:`stream_seeds`, kept on Python ints because a
    one-element numpy round trip costs ten times as much.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return _mix_stream(master_seed, index)


def make_rng(seed: int) -> np.random.Generator:
    """Philox (counter-based) generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def streams(seeds: np.ndarray, offset: int = 0) -> Iterator[np.random.Generator]:
    """The stream keyed by each of ``seeds`` in turn from uniform ``offset``
    on: the j-th yields what ``make_rng(seeds[j])`` yields after ``random(offset)``.

    Each double takes one 64-bit Philox output and a counter step makes four,
    so ``offset`` must be a multiple of 4 (ValueError otherwise): one Philox is
    re-keyed for each seed with its counter at ``offset // 4`` and its buffer
    empty.  It is yielded again and again, so it must not be used after the
    iteration moves on.
    """
    if offset % 4:
        raise ValueError(f"stream offset must be a multiple of 4, got {offset}")
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    key, counter = [0, 0], [offset // 4, 0, 0, 0]  # Python ints: the setter reads no numpy scalars
    state = {**bit_generator.state, "state": {"counter": counter, "key": key}, "buffer": [0] * 4}
    for lo in range(0, len(seeds), 1024):  # a bounded list of Python ints at a time
        for seed in seeds[lo : lo + 1024].tolist():
            key[0] = seed
            bit_generator.state = state
            yield rng


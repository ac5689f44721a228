"""Deterministic random streams for reproducible, parallelizable trials.

Every engine draws uniforms from a counter-based Philox generator and maps
them through explicit inverse CDFs.  Trial ``i`` of an experiment with master
seed ``s`` uses its own generator keyed by ``stream_seed(s, i)``, so any
subset of trials can be reproduced in isolation and results never depend on
how trials are distributed across workers.

The mixing function is SplitMix64: ``stream_seed(s, i)`` is the ``i``-th
output of a SplitMix64 sequence seeded with ``s``.  ``stream_seeds`` computes
a range of them at once.  ``trial_rngs`` hands out the matching streams,
and ``fill_windows`` fills rows with a window of each, from a single Philox
whose key and counter are reset for each trial, which a counter-based
generator allows and which costs a fraction of building a new one.
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


def _rekeyed(seeds: np.ndarray, offset: int) -> Iterator[np.random.Generator]:
    """One generator, re-keyed with each of ``seeds`` in turn, its counter
    at ``offset // 4`` and its buffer empty, so that for an ``offset`` that
    is a multiple of 4 uniform ``offset`` of each stream comes next."""
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    state["state"]["counter"][0] = offset // 4
    key = state["state"]["key"]
    for seed in seeds:
        key[0] = seed
        bit_generator.state = state
        yield rng


def trial_rngs(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """The generators of trials [start, stop), each equal to
    ``make_rng(stream_seed(master_seed, i))``.

    One generator is yielded again and again, re-keyed with a fresh counter
    and an empty buffer before each trial, so it must not be used after the
    iteration moves on.
    """
    return _rekeyed(stream_seeds(master_seed, start, stop), 0)


def fill_windows(seeds: np.ndarray, offset: int, out: np.ndarray) -> None:
    """Fill row j of ``out`` with uniforms [offset, offset + width) of the
    stream keyed by ``seeds[j]``, that is with
    ``make_rng(seeds[j]).random(offset + width)[offset:]``.

    Each double takes one 64-bit Philox output and each counter step makes
    four, so a window starts on a counter step: ``offset`` must be a
    non-negative multiple of 4.
    """
    if offset < 0 or offset % 4:
        raise ValueError(f"window offset must be a non-negative multiple of 4, got {offset}")
    for row, rng in zip(out, _rekeyed(seeds, offset)):
        rng.random(out=row)

"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start and end in perf_counter nanoseconds, the index of
the span that was open when it began (-1 for none), and the op it belongs to
(-1 outside ops).  Spans are kept in column lists and written out once, when
the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._cache: tuple = ((), None, None)
        self.op = -1

    def record(self, name: str, start: int, end: int) -> int:
        """Add a finished span under the innermost open span."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str):
        sid = self.record(name, perf_counter_ns(), -1)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.ends[sid] = perf_counter_ns()

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str, op: int | None = None) -> np.ndarray:
        """Durations in ns of the spans called ``name`` (of one op, if given)."""
        names, durations, ops = self.columns()
        mask = names == name
        if op is not None:
            mask &= ops == op
        return durations[mask]

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if len(self._cache[0]) != len(self.names):
            self._cache = (
                np.array(self.names),
                np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64),
                np.array(self.ops, dtype=np.int32),
            )
        return self._cache

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part of it that its children cover."""
        starts = np.array(self.starts, dtype=np.int64)
        ends = np.array(self.ends, dtype=np.int64)
        out = ends - starts
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        for p, kids in children.items():
            lo, hi = starts[p], ends[p]
            covered = 0
            cursor = lo
            for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
                if e > cursor:
                    covered += e - max(s, cursor)
                    cursor = e
            out[p] -= covered
        return out

    def save(self, path: Path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            name_table=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int16),
            start_ns=np.array(self.starts, dtype=np.int64),
            end_ns=np.array(self.ends, dtype=np.int64),
            parent=np.array(self.parents, dtype=np.int64),
            op=np.array(self.ops, dtype=np.int32),
        )

"""Per-edge Gillespie simulation of chase-escape with conversion.

Works on any finite connected graph; on complete graphs the induced
population process has exactly the law of the count chain in
:mod:`chasescape.chain`, which makes this module an independent oracle for
it.  Rates are tracked incrementally (O(degree) per event) through indexed
sets of red vertices, red-white edges, and red-blue edges.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np

from .chain import EventKind, FixationResult
from .params import (
    NoTransitionError,
    ParameterError,
    Params,
    ResourceLimitError,
    is_integer,
)

# cap on the m(m - 1) adjacency entries complete_graph builds as Python
# tuples; 2^24 is about K_4097
MAX_COMPLETE_GRAPH_ENTRIES = 1 << 24


class VertexColor(IntEnum):
    WHITE = 0
    RED = 1
    BLUE = 2  # terminal


class IndexedSet:
    """Set with O(1) add, O(1) remove, and unbiased O(1) sampling by index."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items: Iterable = ()) -> None:
        self._items: list = []
        self._pos: dict = {}
        for x in items:
            self.add(x)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, x) -> bool:
        return x in self._pos

    def __iter__(self):
        return iter(self._items)

    def add(self, x) -> None:
        if x in self._pos:
            raise ValueError(f"{x!r} already present")
        self._pos[x] = len(self._items)
        self._items.append(x)

    def remove(self, x) -> None:
        i = self._pos.pop(x)  # KeyError on absent member surfaces bookkeeping bugs
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._pos[last] = i

    def sample(self, u: float):
        """Member at index floor(u * len) for a uniform u in [0, 1)."""
        n = len(self._items)
        if n == 0:
            raise IndexError("sample from empty set")
        return self._items[min(int(u * n), n - 1)]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph as per-vertex neighbor tuples."""

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)


def complete_graph(m: int) -> Graph:
    """K_m; requires m >= 2.

    Raises ResourceLimitError, before allocating, when its m(m - 1)
    adjacency entries exceed MAX_COMPLETE_GRAPH_ENTRIES.
    """
    if not is_integer(m) or m < 2:
        raise ParameterError(f"complete graph needs an integer vertex count >= 2, got {m!r}")
    if m * (m - 1) > MAX_COMPLETE_GRAPH_ENTRIES:
        raise ResourceLimitError(
            f"K_{m} has {m * (m - 1)} adjacency entries, over the cap of "
            f"{MAX_COMPLETE_GRAPH_ENTRIES}"
        )
    verts = tuple(range(m))
    return Graph(tuple(tuple(v for v in verts if v != u) for u in verts))


def _check_connected(adjacency: list[set[int]]) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adjacency)


def parse_edge_list(lines: Iterable[str]) -> Graph:
    """Build a graph from "u v" pairs of 0-based vertex indices.

    Each line is one undirected edge; blank lines are skipped.  Rejects
    self-loops, repeated edges (in either orientation), and disconnected
    graphs.
    """
    pairs = []
    max_vertex = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParameterError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParameterError(f"line {lineno}: vertex indices must be integers") from None
        if u < 0 or v < 0:
            raise ParameterError(f"line {lineno}: vertex indices must be >= 0")
        if u == v:
            raise ParameterError(f"line {lineno}: self-loop at vertex {u}")
        pairs.append((lineno, u, v))
        max_vertex = max(max_vertex, u, v)
    if not pairs:
        raise ParameterError("edge list is empty")
    adjacency: list[set[int]] = [set() for _ in range(max_vertex + 1)]
    for lineno, u, v in pairs:
        if v in adjacency[u]:
            raise ParameterError(f"line {lineno}: duplicate edge {u} {v}")
        adjacency[u].add(v)
        adjacency[v].add(u)
    if not _check_connected(adjacency):
        raise ParameterError("graph is not connected")
    return Graph(tuple(tuple(sorted(nbrs)) for nbrs in adjacency))


def load_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


class GraphState:
    """Vertex colors plus incremental bookkeeping of the active rate classes.

    ``red`` holds red vertices, ``rw`` holds (red, white) edges, and ``rb``
    holds (red, blue) edges, each in an :class:`IndexedSet` so events can be
    selected uniformly within their class in O(1).
    """

    __slots__ = ("colors", "red", "rw", "rb")

    def __init__(self, graph: Graph, colors: list[VertexColor]) -> None:
        if len(colors) != graph.vertex_count:
            raise ParameterError("color array does not match the graph")
        self.colors = list(colors)
        self.red = IndexedSet()
        self.rw = IndexedSet()
        self.rb = IndexedSet()
        for u, c in enumerate(colors):
            if c != VertexColor.RED:
                continue
            self.red.add(u)
            for v in graph.adjacency[u]:
                if colors[v] == VertexColor.WHITE:
                    self.rw.add((u, v))
                elif colors[v] == VertexColor.BLUE:
                    self.rb.add((u, v))

    @classmethod
    def initial(cls, graph: Graph, params: Params) -> GraphState:
        """The start state of ``params``: its red vertices first, then its
        blue ones, then n white; ParameterError unless the graph has
        ``params.total_vertices`` vertices."""
        if graph.vertex_count != params.total_vertices:
            raise ParameterError(
                f"graph has {graph.vertex_count} vertices but n = {params.n} "
                f"({params.init_mode.value} start) needs {params.total_vertices}"
            )
        r0, b0 = params.initial_red_blue
        colors = [VertexColor.RED] * r0 + [VertexColor.BLUE] * b0 + [VertexColor.WHITE] * params.n
        return cls(graph, colors)

    def paint_red(self, graph: Graph, v: int) -> None:
        assert self.colors[v] == VertexColor.WHITE
        self.colors[v] = VertexColor.RED
        self.red.add(v)
        for x in graph.adjacency[v]:
            c = self.colors[x]
            if c == VertexColor.WHITE:
                self.rw.add((v, x))
            elif c == VertexColor.RED:
                self.rw.remove((x, v))
            else:
                self.rb.add((v, x))

    def paint_blue(self, graph: Graph, v: int) -> None:
        assert self.colors[v] == VertexColor.RED
        self.colors[v] = VertexColor.BLUE
        self.red.remove(v)
        for x in graph.adjacency[v]:
            c = self.colors[x]
            if c == VertexColor.WHITE:
                self.rw.remove((v, x))
            elif c == VertexColor.RED:
                self.rb.add((x, v))
            else:
                self.rb.remove((v, x))

    def recount(self, graph: Graph) -> tuple[int, int, int]:
        """Brute-force (red, red-white, red-blue) counts for consistency checks."""
        n_red = n_rw = n_rb = 0
        for u, c in enumerate(self.colors):
            if c != VertexColor.RED:
                continue
            n_red += 1
            for v in graph.adjacency[u]:
                if self.colors[v] == VertexColor.WHITE:
                    n_rw += 1
                elif self.colors[v] == VertexColor.BLUE:
                    n_rb += 1
        return n_red, n_rw, n_rb


def graph_jump(
    state: GraphState, graph: Graph, params: Params, rng: np.random.Generator
) -> tuple[EventKind, float]:
    """One Gillespie event; mutates ``state`` in place and returns the
    event with its holding time.

    Consumes exactly three uniforms in fixed order: event class, member
    within the class, holding time.
    """
    if len(state.red) == 0:
        raise NoTransitionError("process already fixated (no red vertices)")
    rate_grow = params.lam * len(state.rw)
    rate_chase = float(len(state.rb))
    rate_convert = params.conversion_rate * len(state.red)
    total = rate_grow + rate_chase + rate_convert
    if total <= 0.0:
        raise NoTransitionError("total jump rate is zero in this state")
    u_class = rng.random()
    u_member = rng.random()
    u_hold = rng.random()
    x = u_class * total
    if x < rate_grow:
        _, white_v = state.rw.sample(u_member)
        state.paint_red(graph, white_v)
        event = EventKind.GROW
    elif x < rate_grow + rate_chase:
        red_v, _ = state.rb.sample(u_member)
        state.paint_blue(graph, red_v)
        event = EventKind.CHASE
    else:
        state.paint_blue(graph, state.red.sample(u_member))
        event = EventKind.CONVERT
    return event, -math.log1p(-u_hold) / total


def run_graph_to_fixation(
    graph: Graph, params: Params, rng: np.random.Generator
) -> FixationResult:
    """Simulate on ``graph`` until no red vertices remain.

    The initial coloring and the vertex count follow ``params`` (see
    :meth:`GraphState.initial`); rates come from ``params.lam`` and the
    effective conversion rate.  On K_{n+1} the returned statistics have the
    same law as the count-chain engine.
    """
    state = GraphState.initial(graph, params)
    fixation_time = 0.0
    conversions = 0
    while len(state.red) > 0:
        event, holding = graph_jump(state, graph, params, rng)
        fixation_time += holding
        if event is EventKind.CONVERT:
            conversions += 1
    white = state.colors.count(VertexColor.WHITE)
    return FixationResult.at_fixation(params, white, conversions, fixation_time)

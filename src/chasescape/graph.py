"""Per-edge Gillespie simulation of chase-escape with conversion.

Works on any finite connected graph; on complete graphs the induced
population process has exactly the law of the count chain in
:mod:`chasescape.chain`, which makes this module an independent oracle for
it.  A graph is a CSR table in which every directed edge (u, v) has an
integer id.  Rates are tracked incrementally (O(degree) per event) through
array-backed sets of red vertices, red-white edge ids and red-blue edge ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .chain import EventKind, FixationResult, empty_block
from .params import NoTransitionError, ParameterError, Params, ResourceLimitError, is_integer
from .rng import streams

# cap on the m(m - 1) adjacency entries of complete_graph, each an int32
# head plus an int32 reverse id; 2^24 is about K_4097, 128 MiB of tables
MAX_COMPLETE_GRAPH_ENTRIES = 1 << 24

# jumps whose uniforms run_graph_to_fixation reads from its stream at once
_WINDOW_JUMPS = 64


_WHITE, _RED, _BLUE = 0, 1, 2  # the vertex colours GraphState stores; blue is terminal


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph as CSR int32 tables, one id per directed edge.

    The edges out of u have ids ``indptr[u]`` to ``indptr[u + 1] - 1`` and
    edge e ends at ``indices[e]``, ascending within each u.  ``reverse[e]``
    is the id of e's opposite edge: (v, u) when e is (u, v).
    """

    indptr: np.ndarray
    indices: np.ndarray
    reverse: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.indptr) - 1


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
    tails, heads = np.arange(m, dtype=np.int32)[:, None], np.arange(m - 1, dtype=np.int32)
    indices = heads + (heads >= tails)  # row u is every vertex but u, ascending
    # (v, u) is entry u of row v, or entry u - 1 when u > v
    reverse = indices * np.int32(m - 1) + tails - (tails > indices)
    indptr = np.arange(m + 1, dtype=np.int32) * np.int32(m - 1)
    return Graph(indptr, indices.ravel(), reverse.ravel())


def parse_edge_list(lines: Iterable[str], vertex_count: int | None = None) -> Graph:
    """Build a graph from "u v" pairs of 0-based vertex indices.

    Each line is one undirected edge; blank lines are skipped.  Rejects
    self-loops, repeated edges (in either orientation), disconnected graphs,
    and, before building anything, a vertex count other than ``vertex_count``.
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
    if vertex_count is not None and max_vertex + 1 != vertex_count:
        raise ParameterError(f"graph has {max_vertex + 1} vertices, expected {vertex_count}")
    # m edges connect at most m + 1 vertices, so this refuses before allocating
    if max_vertex > len(pairs):
        raise ParameterError("graph is not connected")
    adjacency: list[set[int]] = [set() for _ in range(max_vertex + 1)]
    for lineno, u, v in pairs:
        if v in adjacency[u]:
            raise ParameterError(f"line {lineno}: duplicate edge {u} {v}")
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen, queue = {0}, [0]
    for u in queue:  # breadth first from vertex 0; the queue grows as it is read
        found = adjacency[u] - seen
        seen |= found
        queue.extend(found)
    if len(seen) != len(adjacency):
        raise ParameterError("graph is not connected")
    m, degrees = len(adjacency), [len(nbrs) for nbrs in adjacency]
    indices = np.array([v for nbrs in adjacency for v in sorted(nbrs)], dtype=np.int32)
    # the (tail, head) keys ascend in edge-id order, so bisection finds each reverse
    tails = np.repeat(np.arange(m, dtype=np.int64), degrees)
    reverse = np.searchsorted(tails * m + indices, indices * np.int64(m) + tails)
    return Graph(np.cumsum([0, *degrees], dtype=np.int32), indices, reverse.astype(np.int32))


class GraphState:
    """Vertex colors plus array-backed sets of the three rate classes.

    ``red`` lists the red vertices, ``rw`` the ids of (red, white) edges and
    ``rb`` those of (red, blue) edges; a set grows at its end and loses a
    member by moving its last one into the freed slot.  ``vertex_pos[v]`` is
    v's index in ``red``, ``edge_pos[e]`` e's index in ``rw`` or ``rb``.

    It starts in the start state of ``params`` (its red vertices, then its
    blue ones, then n white), painted on an all-white graph: each blue vertex
    red and then blue, then the red ones.  ParameterError unless the graph
    has ``params.total_vertices`` vertices.
    """

    __slots__ = ("colors", "red", "rw", "rb", "vertex_pos", "edge_pos")

    def __init__(self, graph: Graph, params: Params) -> None:
        if graph.vertex_count != params.total_vertices:
            raise ParameterError(
                f"graph has {graph.vertex_count} vertices but n = {params.n} "
                f"({params.init_mode.value} start) needs {params.total_vertices}"
            )
        self.colors = [_WHITE] * graph.vertex_count
        self.red, self.rw, self.rb = [], [], []
        self.vertex_pos = [0] * graph.vertex_count
        self.edge_pos = [0] * len(graph.indices)
        r0, b0 = params.initial_red_blue
        for v in range(r0, r0 + b0):
            self.paint_red(graph, v)
            self.paint_blue(graph, v)
        for v in range(r0):
            self.paint_red(graph, v)

    def paint_red(self, graph: Graph, v: int) -> None:
        colors, rw, rb, pos = self.colors, self.rw, self.rb, self.edge_pos
        assert colors[v] == _WHITE
        colors[v] = _RED
        self.vertex_pos[v] = len(self.red)
        self.red.append(v)
        lo, hi = graph.indptr[v : v + 2].tolist()
        heads, backs = graph.indices[lo:hi].tolist(), graph.reverse[lo:hi].tolist()
        for e, x, back in zip(range(lo, hi), heads, backs):
            c = colors[x]
            if c == _WHITE:
                pos[e] = len(rw)
                rw.append(e)
            elif c == _RED:  # remove (x, v) from rw
                last = rw.pop()
                if last != back:
                    pos[last] = i = pos[back]
                    rw[i] = last
            else:
                pos[e] = len(rb)
                rb.append(e)

    def paint_blue(self, graph: Graph, v: int) -> None:
        colors, rw, rb, pos = self.colors, self.rw, self.rb, self.edge_pos
        assert colors[v] == _RED
        colors[v] = _BLUE
        last = self.red.pop()
        if last != v:
            self.vertex_pos[last] = i = self.vertex_pos[v]
            self.red[i] = last
        lo, hi = graph.indptr[v : v + 2].tolist()
        heads, backs = graph.indices[lo:hi].tolist(), graph.reverse[lo:hi].tolist()
        for e, x, back in zip(range(lo, hi), heads, backs):
            c = colors[x]
            if c == _WHITE:  # remove (v, x) from rw
                last = rw.pop()
                if last != e:
                    pos[last] = i = pos[e]
                    rw[i] = last
            elif c == _RED:
                pos[back] = len(rb)
                rb.append(back)
            else:  # remove (v, x) from rb
                last = rb.pop()
                if last != e:
                    pos[last] = i = pos[e]
                    rb[i] = last

    def step(
        self, graph: Graph, params: Params, u_class: float, u_member: float, u_hold: float
    ) -> tuple[EventKind, float]:
        """One Gillespie event, in place, from uniforms for its class, its
        member within the class and its holding time; returns the event and
        the holding time."""
        red, rw, rb = self.red, self.rw, self.rb
        if not red:
            raise NoTransitionError("process already fixated (no red vertices)")
        rate_grow = params.lam * len(rw)
        rate_chase = float(len(rb))
        rate_convert = params.conversion_rate * len(red)
        total = rate_grow + rate_chase + rate_convert
        if total <= 0.0:
            raise NoTransitionError("total jump rate is zero in this state")
        x = u_class * total
        if x < rate_grow:
            self.paint_red(graph, int(graph.indices[_pick(rw, u_member)]))
            event = EventKind.GROW
        elif x < rate_grow + rate_chase:
            self.paint_blue(graph, int(graph.indices[graph.reverse[_pick(rb, u_member)]]))
            event = EventKind.CHASE
        else:
            self.paint_blue(graph, _pick(red, u_member))
            event = EventKind.CONVERT
        return event, -math.log1p(-u_hold) / total

    def recount(self, graph: Graph) -> tuple[int, int, int]:
        """Brute-force (red, red-white, red-blue) counts for consistency checks."""
        colors = np.array(self.colors)
        red = colors == _RED
        heads = colors[graph.indices][np.repeat(red, np.diff(graph.indptr))]
        return int(red.sum()), int((heads == _WHITE).sum()), int((heads == _BLUE).sum())


def _pick(items: list[int], u: float) -> int:
    """Member at index floor(u * len) for a uniform u in [0, 1)."""
    n = len(items)
    return items[min(int(u * n), n - 1)]


def _uniform_triples(rng: np.random.Generator, count: int) -> Iterator[tuple[float, float, float]]:
    """``count`` consecutive triples of ``rng``'s uniforms, read in windows: the
    same doubles in the same order as three ``rng.random()`` calls per triple."""
    for start in range(0, count, _WINDOW_JUMPS):
        u = rng.random(3 * min(_WINDOW_JUMPS, count - start)).tolist()
        yield from zip(u[0::3], u[1::3], u[2::3])


def run_graph_to_fixation(
    graph: Graph, params: Params, rng: np.random.Generator
) -> FixationResult:
    """Simulate on ``graph`` until no red vertices remain.

    The initial coloring and the vertex count follow ``params`` (see
    :class:`GraphState`); rates come from ``params.lam`` and the effective
    conversion rate.  On K_{n+1} the returned statistics have the same law
    as the count-chain engine.
    """
    state = GraphState(graph, params)
    # every jump lowers 2 * white + red by one, so no more jumps remain
    triples = _uniform_triples(rng, 2 * state.colors.count(_WHITE) + len(state.red))
    fixation_time = 0.0
    conversions = 0
    while state.red:
        event, holding = state.step(graph, params, *next(triples))
        fixation_time += holding
        if event is EventKind.CONVERT:
            conversions += 1
    white = state.colors.count(_WHITE)
    return FixationResult.at_fixation(params, white, conversions, fixation_time)


def graph_block(
    graph: Graph, params: Params, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) on ``graph``, one trial at a time: trial j is
    ``run_graph_to_fixation(graph, params, make_rng(seeds[j]))``."""
    white, conversions, times = empty_block(len(seeds))
    for j, rng in enumerate(streams(seeds)):
        res = run_graph_to_fixation(graph, params, rng)
        white[j], conversions[j], times[j] = res.white_survivors, res.conversions, res.fixation_time
    return white, conversions, times

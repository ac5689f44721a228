"""Per-edge Gillespie simulation of chase-escape with conversion.

Works on any finite connected graph; on complete graphs the induced
population process has exactly the law of the count chain in
:mod:`chasescape.chain`, which makes this module an independent oracle for
it.  A graph is its neighbour rows.  The state keeps the red vertices in a
list, one per-vertex list of slots (v's index in that list while v is red,
else a white or blue mark, so W is the count of white marks at fixation),
each vertex's white and blue neighbour counts and the red-white and
red-blue edge totals, so painting v costs one integer update per
neighbour.  A jump picks its class from the totals and its member by
walking the red list on those counts, then v's row, so it costs
O(deg v + r) with r red vertices.  A hub is the slow case: a grow from it
scans the hub's whole row for a white neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .chain import FixationResult, empty_block
from .params import NoTransitionError, ParameterError, Params, ResourceLimitError, is_integer
from .rng import streams

# cap on the adjacency entries (directed edges) of any graph, checked by
# complete_graph and parse_edge_list before they allocate: each entry takes
# about 32 bytes of rows (a list slot and an int), so a one-trial block on
# K_1025, the largest complete graph under the cap, peaks at about 33 MiB
# with its build (tracemalloc)
MAX_GRAPH_ENTRIES = (1 << 20) + (1 << 10)

# GraphState's slot of a vertex that is not red: white, or blue, which is terminal
_WHITE, _BLUE = -1, -2


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: ``rows[u]`` lists the neighbours of u,
    ascending, as Python ints."""

    rows: list[list[int]]

    @cached_property
    def degrees(self) -> list[int]:
        """``degrees[u]``: the degree of u."""
        return [len(row) for row in self.rows]


def require_vertex_count(graph: Graph, params: Params) -> None:
    """ParameterError unless ``graph`` has ``params.total_vertices`` vertices."""
    if len(graph.rows) != params.total_vertices:
        raise ParameterError(
            f"graph has {len(graph.rows)} vertices but n = {params.n} "
            f"({params.init_mode.value} start) needs {params.total_vertices}"
        )


def _require_complete_graph(m: int) -> None:
    """ParameterError unless m is an integer >= 2; ResourceLimitError when
    K_m's m(m - 1) adjacency entries exceed MAX_GRAPH_ENTRIES."""
    if not is_integer(m) or m < 2:
        raise ParameterError(f"complete graph needs an integer vertex count >= 2, got {m!r}")
    if m * (m - 1) > MAX_GRAPH_ENTRIES:
        raise ResourceLimitError(
            f"K_{m} has {m * (m - 1)} adjacency entries, over the cap of {MAX_GRAPH_ENTRIES}"
        )


def complete_graph(m: int) -> Graph:
    """K_m; requires m >= 2, and refuses a K_m over the cap before allocating."""
    _require_complete_graph(m)
    return Graph([[*range(u), *range(u + 1, m)] for u in range(m)])


def parse_edge_list(lines: Iterable[str], vertex_count: int) -> Graph:
    """Build a graph from "u v" pairs of 0-based vertex indices.

    Each line is one undirected edge; blank lines are skipped.  Rejects, at
    its line, an index with more digits than any connected graph under
    MAX_GRAPH_ENTRIES has; self-loops, repeated edges (in either orientation),
    disconnected graphs, and, before building anything, a vertex count other
    than ``vertex_count``.
    Raises ResourceLimitError at the first edge past MAX_GRAPH_ENTRIES / 2,
    before any adjacency set or row is built.
    """
    pairs = []
    max_vertex = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if 2 * (len(pairs) + 1) > MAX_GRAPH_ENTRIES:
            raise ResourceLimitError(
                f"line {lineno}: more than {len(pairs)} edges, over the cap of "
                f"{MAX_GRAPH_ENTRIES} adjacency entries"
            )
        fields = line.split()
        if len(fields) != 2:
            raise ParameterError(f"line {lineno}: expected 'u v', got {raw!r}")
        # ASCII digits only: int() would also take "1_0", "+2" and non-ASCII digits
        if not all(f.isascii() and f.removeprefix("-").isdigit() for f in fields):
            raise ParameterError(f"line {lineno}: vertex indices must be integers")
        if "-" in line:  # "-0" as well as "-1"
            raise ParameterError(f"line {lineno}: vertex indices must be >= 0")
        # before int(), whose refusal past 4300 digits names no line
        if max(len(f.lstrip("0")) for f in fields) > len(str(MAX_GRAPH_ENTRIES // 2)):
            raise ParameterError(
                f"line {lineno}: vertex index longer than any graph under the cap has "
                f"(at most {MAX_GRAPH_ENTRIES // 2})"
            )
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            raise ParameterError(f"line {lineno}: self-loop at vertex {u}")
        pairs.append((lineno, u, v))
        max_vertex = max(max_vertex, u, v)
    if not pairs:
        raise ParameterError("edge list is empty")
    if max_vertex + 1 != vertex_count:
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
    return Graph([sorted(nbrs) for nbrs in adjacency])


class GraphState:
    """The red vertices, each vertex's slot and each vertex's neighbour counts.

    ``red`` lists the red vertices; it grows at its end and loses a member
    by moving its last one into the freed slot.  ``slot[v]`` is v's index in
    ``red`` while v is red, and ``_WHITE`` or ``_BLUE`` otherwise, so it is
    also v's colour.  ``white[v]`` and ``blue[v]`` count v's white and blue
    neighbours, whatever v's own colour, so v has deg v - white[v] - blue[v]
    red ones; ``rw`` and ``rb`` count the red-white and red-blue edges.

    ``run`` takes each event's class from the totals and its member from a
    walk along ``red``: a grow paints the k'-th white neighbour, in row
    order, of the first red vertex whose running white count passes k =
    floor(u * rw), k' being k less the counts before that vertex; a chase
    paints the first red vertex whose running blue count passes
    floor(u * rb); a conversion paints ``red[floor(u * len(red))]``.  So a
    jump costs O(deg v + r), v the vertex it paints and r the red count.

    It keeps the ``rows`` and rates ``run`` reads, and starts in the start
    state of ``params`` (its red vertices, then its blue ones, then n
    white), painted onto the all-white counts.  ParameterError unless the
    graph has ``params.total_vertices`` vertices.
    """

    __slots__ = ("slot", "red", "white", "blue", "rw", "rb", "rows", "lam", "conversion_rate")

    def __init__(self, graph: Graph, params: Params) -> None:
        require_vertex_count(graph, params)
        r0, b0 = params.initial_red_blue
        self.red = [*range(r0)]
        self.slot = [*self.red, *[_BLUE] * b0, *[_WHITE] * (len(graph.rows) - r0 - b0)]
        self.white, self.blue = graph.degrees.copy(), [0] * len(graph.rows)
        self.rows = graph.rows
        self.lam, self.conversion_rate = params.lam, params.conversion_rate
        for v in range(r0 + b0):
            for x in self.rows[v]:
                self.white[x] -= 1
        for v in range(r0, r0 + b0):
            for x in self.rows[v]:
                self.blue[x] += 1
        self.rw = sum(self.white[v] for v in self.red)
        self.rb = sum(self.blue[v] for v in self.red)

    def run(self, triples: Iterable[tuple[float, float, float]]) -> tuple[int, float]:
        """Gillespie events, in place, one per triple of uniforms for its
        class, its member within the class and its holding time, until no
        red vertex is left or the triples run out; returns the conversions
        and the holding times summed in jump order."""
        red, slot, white, blue, rows = self.red, self.slot, self.white, self.blue, self.rows
        lam, conversion_rate, rw, rb = self.lam, self.conversion_rate, self.rw, self.rb
        if not red:
            raise NoTransitionError("process already fixated (no red vertices)")
        conversions, clock, log1p = 0, 0.0, math.log1p
        for u_class, u_member, u_hold in triples:
            r = len(red)
            rate_grow = lam * rw
            total = rate_grow + rb + conversion_rate * r
            if total <= 0.0:
                raise NoTransitionError("total jump rate is zero in this state")
            draw = u_class * total
            grow = draw < rate_grow
            if grow or draw < rate_grow + rb:
                # the walk: the first red vertex v whose running count
                # passes k, and k less the counts before v
                counts, count = (white, rw) if grow else (blue, rb)
                k = min(int(u_member * count), count - 1)
                for v in red:
                    c = counts[v]
                    if k < c:
                        break
                    k -= c
                else:
                    raise AssertionError(f"the red vertices' counts sum to less than {count}")
            else:
                v = red[min(int(u_member * r), r - 1)]
                conversions += 1
            if grow:
                for x in rows[v]:
                    if slot[x] == _WHITE:
                        if not k:
                            break
                        k -= 1
                else:
                    raise AssertionError(
                        f"red vertex {v} has fewer white neighbours than counted"
                    )
                # paint x red: its red-white edges come in, and its red
                # neighbours' edges to x leave
                slot[x] = r
                red.append(x)
                row = rows[x]
                rw += 2 * white[x] + blue[x] - len(row)
                rb += blue[x]
                for y in row:
                    white[y] -= 1
            else:
                # paint v blue: its own edges leave, and its red
                # neighbours' edges to v turn red-blue
                i = slot[v]
                slot[v] = _BLUE
                last = red.pop()
                if last != v:
                    slot[last] = i
                    red[i] = last
                row = rows[v]
                c = white[v]
                rw -= c
                rb += len(row) - c - 2 * blue[v]
                for y in row:
                    blue[y] += 1
            clock += -log1p(-u_hold) / total
            if not red:
                break
        self.rw, self.rb = rw, rb
        return conversions, clock


def _triples(rng: np.random.Generator, count: int) -> Iterator[tuple[float, float, float]]:
    """``count`` consecutive triples of ``rng``'s uniforms as Python floats:
    the same doubles in the same order as three calls of ``rng.random()`` per
    triple, read in windows of 64 triples."""
    for start in range(0, count, 64):
        u = rng.random(3 * min(64, count - start)).tolist()
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
    # n white and r0 red at the start, and every jump lowers 2 * white + red by one
    conversions, clock = state.run(_triples(rng, 2 * params.n + params.initial_red_blue[0]))
    if state.red:
        raise AssertionError("the triples ran out before fixation")
    white = state.slot.count(_WHITE)
    return FixationResult.at_fixation(params, white, conversions, clock)


def graph_block(
    graph: Graph | None, params: Params, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (W, C, tau) on ``graph``, one trial at a time: trial j is
    ``run_graph_to_fixation(graph, params, make_rng(seeds[j]))``.  With no
    graph it builds the complete graph that ``params`` imply, once; an empty
    block only refuses one over the cap, and builds nothing."""
    if graph is None:
        if len(seeds):
            graph = complete_graph(params.total_vertices)
        else:
            _require_complete_graph(params.total_vertices)
    white, conversions, times = empty_block(len(seeds))
    for j, rng in enumerate(streams(seeds)):
        res = run_graph_to_fixation(graph, params, rng)
        white[j], conversions[j], times[j] = res.white_survivors, res.conversions, res.fixation_time
    return white, conversions, times

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasescape import (
    InitMode,
    ParameterError,
    Params,
    ResourceLimitError,
    complete_graph,
    exact_distribution_W,
    make_rng,
    run_graph_to_fixation,
    stream_seed,
)
from chasescape.analytics import chi_square_gof
from chasescape import graph
from chasescape.chain import EventKind
from chasescape.graph import _BLUE, _RED, _WHITE, GraphState, parse_edge_list
from chasescape.params import NoTransitionError

SPARSE_EDGE_LIST = Path(__file__).parent / "golden" / "sparse21.edges"


def _assert_csr_tables(g):
    """Heads ascend within each row, and ``reverse`` maps (u, v) to (v, u)."""
    tails = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
    for u in range(g.vertex_count):
        assert np.all(np.diff(g.indices[g.indptr[u] : g.indptr[u + 1]]) > 0)
    assert np.array_equal(tails[g.reverse], g.indices)
    assert np.array_equal(g.indices[g.reverse], tails)


class TestGraphConstruction:
    def test_k2_single_edge(self):
        g = complete_graph(2)
        assert g.indptr.tolist() == [0, 1, 2]
        assert g.indices.tolist() == [1, 0]
        assert g.reverse.tolist() == [1, 0]

    def test_k5_edges_and_degrees(self):
        g = complete_graph(5)
        assert len(g.indices) == 2 * 10
        assert np.diff(g.indptr).tolist() == [4] * 5

    def test_k101_degrees(self):
        g = complete_graph(101)
        assert np.all(np.diff(g.indptr) == 100)
        _assert_csr_tables(g)

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            complete_graph(1)

    def test_oversized_refused_before_allocating(self):
        # K_{10^7} would be about 10^14 adjacency entries
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                complete_graph(10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tables_take_under_16_bytes_per_adjacency_entry(self):
        # two int32 tables take 8 bytes per entry; a tuple or a boxed int per
        # entry would take at least 28
        m = 1025
        tracemalloc.start()
        try:
            g = complete_graph(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.vertex_count == m
        assert peak < 16 * m * (m - 1)

    def test_cap_counts_adjacency_entries(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_COMPLETE_GRAPH_ENTRIES", 20)
        assert complete_graph(5).vertex_count == 5  # 5 * 4 = 20 entries
        with pytest.raises(ResourceLimitError):
            complete_graph(6)


class TestEdgeListFormat:
    def test_parse_path_graph(self):
        g = parse_edge_list(["0 1", "1 2"])
        assert g.vertex_count == 3
        assert g.indptr.tolist() == [0, 1, 3, 4]
        assert g.indices.tolist() == [1, 0, 2, 1]
        assert g.reverse.tolist() == [1, 0, 3, 2]

    def test_roundtrip(self):
        g = complete_graph(6)
        tails = np.repeat(np.arange(6), np.diff(g.indptr))
        lines = [f"{u} {v}" for u, v in zip(tails, g.indices) if u < v]
        h = parse_edge_list(lines)
        for table in ("indptr", "indices", "reverse"):
            assert np.array_equal(getattr(h, table), getattr(g, table))

    def test_sparse_graph_tables(self):
        g = parse_edge_list(SPARSE_EDGE_LIST.read_text(encoding="utf-8").split("\n"))
        assert g.vertex_count == 21 and len(g.indices) == 2 * 50
        _assert_csr_tables(g)

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1", "1 1"])

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1", "1 0"])

    def test_rejects_disconnected(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1", "2 3"])

    def test_index_past_the_edge_count_refused_before_allocating(self):
        # one edge connects two vertices, not 200001; one set per index up
        # to the largest would take about 43 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="not connected"):
                parse_edge_list(["0 200000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # m edges may still reach index m
        assert parse_edge_list(["0 2", "2 1"]).vertex_count == 3

    def test_vertex_count_mismatch_refused_before_building(self):
        # the loader refuses once it knows the largest index: no adjacency
        # set and no CSR table is built
        lines = [f"{v} {v + 1}" for v in range(20000)]
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="graph has 20001 vertices, expected 31"):
                parse_edge_list(lines, vertex_count=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parsed pairs peak at about 3 MiB, building this graph at about 10
        assert peak < 5 << 20
        assert parse_edge_list(["0 1", "1 2"], vertex_count=3).vertex_count == 3

    def test_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1 2"])
        with pytest.raises(ParameterError):
            parse_edge_list(["a b"])
        with pytest.raises(ParameterError):
            parse_edge_list([])


def _colored_state(graph, red=(), blue=()):
    """The state with ``red`` and ``blue`` vertices, painted onto the standard
    start (vertex 0 red), which needs vertex 0 among them."""
    assert 0 in red or 0 in blue
    state = GraphState(graph, Params(graph.vertex_count - 1, 1.0, 1.0))
    for v in blue:
        if v != 0:
            state.paint_red(graph, v)
        state.paint_blue(graph, v)
    for v in red:
        if v != 0:
            state.paint_red(graph, v)
    return state


class TestRates:
    def test_complete_graph_aggregate_rates(self):
        # on K_{n+1}: #rw = r*w, #rb = r*b
        g = complete_graph(10)
        state = _colored_state(g, red=(0, 1, 2), blue=(3, 4))
        assert len(state.red) == 3
        assert len(state.rw) == 3 * 5
        assert len(state.rb) == 3 * 2

    def test_red_surrounded_by_blue_must_be_chased(self):
        g = parse_edge_list(["0 1", "0 2"])  # star center 0
        p = Params(2, 1.0, 0.0, InitMode.KORTCHEMSKI)  # conversion off
        for seed in range(10):
            state = _colored_state(g, red=(0,), blue=(1, 2))
            event, _ = state.step(g, p, *make_rng(seed).random(3))
            assert event is EventKind.CHASE

    def test_isolated_red_component_must_convert(self):
        g = complete_graph(2)
        p = Params(1, 1.0, 2.0)
        for seed in range(10):
            state = _colored_state(g, red=(0, 1))
            event, _ = state.step(g, p, *make_rng(seed).random(3))
            assert event is EventKind.CONVERT

    def test_no_red_raises(self):
        g = complete_graph(3)
        state = _colored_state(g, blue=(0,))
        with pytest.raises(NoTransitionError):
            state.step(g, Params(2, 1.0, 1.0), *make_rng(0).random(3))

    def test_zero_total_rate_raises(self):
        g = parse_edge_list(["0 1"])
        p = Params(1, 1.0, 0.0, InitMode.KORTCHEMSKI)
        state = _colored_state(g, red=(0, 1))  # no white, no blue, no conversion
        with pytest.raises(NoTransitionError):
            state.step(g, p, *make_rng(0).random(3))


def _assert_consistent(state, g):
    """The three sets hold exactly the red vertices, the red-white and the
    red-blue edges, and each position table indexes its set."""
    assert state.recount(g) == (len(state.red), len(state.rw), len(state.rb))
    tails = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
    colors = np.array(state.colors)
    assert np.all(colors[state.red] == _RED)
    for items, head_color in ((state.rw, _WHITE), (state.rb, _BLUE)):
        assert np.all(colors[tails[items]] == _RED)
        assert np.all(colors[g.indices[items]] == head_color)
    for items, pos in (
        (state.red, state.vertex_pos), (state.rw, state.edge_pos), (state.rb, state.edge_pos)
    ):
        assert all(pos[x] == i for i, x in enumerate(items))


class TestBookkeeping:
    def test_matches_brute_force_recount_along_runs(self):
        p = Params(11, 1.0, 1.0)
        for g in (complete_graph(12), _path_graph(12)):
            for trial in range(20):
                rng = make_rng(stream_seed(21, trial))
                state = GraphState(g, p)
                while len(state.red) > 0:
                    state.step(g, p, *rng.random(3))
                    _assert_consistent(state, g)

    def test_blue_is_terminal(self):
        g = complete_graph(10)
        p = Params(9, 1.0, 1.5)
        rng = make_rng(31)
        state = GraphState(g, p)
        ever_blue = set()
        while len(state.red) > 0:
            state.step(g, p, *rng.random(3))
            now_blue = {v for v, c in enumerate(state.colors) if c == _BLUE}
            assert ever_blue <= now_blue
            ever_blue = now_blue


def _path_graph(m):
    return parse_edge_list([f"{v} {v + 1}" for v in range(m - 1)])


def test_initial_refuses_a_graph_of_the_wrong_size():
    # K_{n+2} is the kortchemski graph, one vertex too many for the standard start
    with pytest.raises(ParameterError, match="12 vertices"):
        GraphState(complete_graph(12), Params(10, 1.0, 1.0))
    with pytest.raises(ParameterError, match="11 vertices"):
        GraphState(complete_graph(11), Params(10, 1.0, 0.0, InitMode.KORTCHEMSKI))


@pytest.mark.parametrize("mode", list(InitMode))
def test_a_trial_reads_no_more_triples_than_jumps_can_remain(mode):
    # every jump lowers 2 * white + red by one, so a K_51 trial needs at most
    # 2n + 1 triples; whole windows of 64 triples would read 384 doubles
    p = Params(50, 1.0, 2.0, mode)
    g = complete_graph(p.total_vertices)
    limit = 3 * (2 * p.n + 1)  # both starts have n white and one red
    for seed in range(40):
        rng = make_rng(stream_seed(25, seed))
        res = run_graph_to_fixation(g, p, rng)
        stream = make_rng(stream_seed(25, seed)).random(limit + 1)
        (position,) = np.flatnonzero(stream == rng.random())
        assert 3 * res.jump_count <= position <= limit


@pytest.mark.parametrize("mode", list(InitMode))
def test_jump_count_is_the_number_of_graph_jumps(mode):
    # jump_count is derived from W; count the events themselves, on the
    # complete graph and on a path, where the identity must hold just the same
    for n in (1, 6, 20):
        p = Params(n, 1.3, 0.7, mode)
        for g in (complete_graph(p.total_vertices), _path_graph(p.total_vertices)):
            for seed in range(25):
                state = GraphState(g, p)
                rng = make_rng(stream_seed(24, seed))
                jumps = 0
                while len(state.red) > 0:
                    state.step(g, p, *rng.random(3))
                    jumps += 1
                res = run_graph_to_fixation(g, p, make_rng(stream_seed(24, seed)))
                assert res.jump_count == jumps
                assert res.white_survivors == state.colors.count(_WHITE)


@given(seed=st.integers(0, 2**32), n=st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_jump_count_bound_and_conservation(seed, n):
    g = complete_graph(n + 1)
    p = Params(n, 1.0, 1.0)
    res = run_graph_to_fixation(g, p, make_rng(seed))
    assert res.jump_count <= 2 * g.vertex_count
    assert res.white_survivors + res.blue_total == g.vertex_count


class TestLawAgreement:
    def test_matches_exact_distribution_on_complete_graph(self):
        n, trials = 8, 20000
        g = complete_graph(n + 1)
        p = Params(n, 1.0, 2.0)
        exact = exact_distribution_W(n, 1.0, 2.0)
        counts = np.zeros(n + 1, dtype=np.int64)
        for i in range(trials):
            counts[run_graph_to_fixation(g, p, make_rng(stream_seed(22, i))).white_survivors] += 1
        chi = chi_square_gof(counts, exact.probabilities)
        assert chi.pvalue > 0.001

    def test_path_graph_high_conversion_spares_far_end(self):
        # red at one end of a 3-path: conversion beats the first spread
        g = parse_edge_list(["0 1", "1 2"])
        p = Params(2, 1.0, 50.0)
        hits = 0
        trials = 300
        for i in range(trials):
            res = run_graph_to_fixation(g, p, make_rng(stream_seed(23, i)))
            hits += res.white_survivors == 2
        # P(first event converts) = 50/51
        assert hits / trials > 0.9

    def test_kortchemski_initial_coloring(self):
        g = complete_graph(7)
        p = Params(5, 1.0, 0.0, InitMode.KORTCHEMSKI)
        state = GraphState(g, p)
        assert state.colors[0] == _RED
        assert state.colors[1] == _BLUE
        assert state.colors.count(_WHITE) == 5

    def test_determinism(self):
        g = complete_graph(15)
        p = Params(14, 1.0, 1.0)
        assert run_graph_to_fixation(g, p, make_rng(9)) == run_graph_to_fixation(
            g, p, make_rng(9)
        )

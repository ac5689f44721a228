import tracemalloc

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
from chasescape.graph import GraphState, IndexedSet, VertexColor, graph_jump, parse_edge_list
from chasescape.params import NoTransitionError


class TestIndexedSet:
    def test_add_remove_sample(self):
        s = IndexedSet()
        for x in range(10):
            s.add(x)
        s.remove(3)
        s.remove(9)
        assert len(s) == 8
        assert 3 not in s and 9 not in s
        assert s.sample(0.0) in s

    def test_duplicate_add_raises(self):
        s = IndexedSet([1])
        with pytest.raises(ValueError):
            s.add(1)

    def test_remove_absent_raises(self):
        with pytest.raises(KeyError):
            IndexedSet([1]).remove(2)

    def test_sample_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedSet().sample(0.5)

    def test_sampling_is_uniform(self):
        # frequency counts on a fixed 3-member configuration
        s = IndexedSet(["a", "b", "c"])
        rng = make_rng(404)
        counts = {"a": 0, "b": 0, "c": 0}
        trials = 30000
        for _ in range(trials):
            counts[s.sample(rng.random())] += 1
        chi = chi_square_gof(list(counts.values()), [1 / 3] * 3)
        assert chi.pvalue > 0.001

    def test_sampling_uniform_after_churn(self):
        s = IndexedSet(range(20))
        for x in range(0, 20, 2):
            s.remove(x)
        rng = make_rng(405)
        counts = {x: 0 for x in s}
        trials = 20000
        for _ in range(trials):
            counts[s.sample(rng.random())] += 1
        chi = chi_square_gof(list(counts.values()), [1 / len(counts)] * len(counts))
        assert chi.pvalue > 0.001


class TestGraphConstruction:
    def test_k2_single_edge(self):
        g = complete_graph(2)
        assert g.adjacency == ((1,), (0,))

    def test_k5_edges_and_degrees(self):
        g = complete_graph(5)
        assert sum(len(nbrs) for nbrs in g.adjacency) == 2 * 10
        assert all(len(nbrs) == 4 for nbrs in g.adjacency)

    def test_k101_degrees(self):
        g = complete_graph(101)
        assert all(len(nbrs) == 100 for nbrs in g.adjacency)

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

    def test_cap_counts_adjacency_entries(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_COMPLETE_GRAPH_ENTRIES", 20)
        assert complete_graph(5).vertex_count == 5  # 5 * 4 = 20 entries
        with pytest.raises(ResourceLimitError):
            complete_graph(6)


class TestEdgeListFormat:
    def test_parse_path_graph(self):
        g = parse_edge_list(["0 1", "1 2"])
        assert g.vertex_count == 3
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_roundtrip(self):
        g = complete_graph(6)
        lines = [f"{u} {v}" for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]
        assert parse_edge_list(lines) == g

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1", "1 1"])

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1", "1 0"])

    def test_rejects_disconnected(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1", "2 3"])

    def test_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_edge_list(["0 1 2"])
        with pytest.raises(ParameterError):
            parse_edge_list(["a b"])
        with pytest.raises(ParameterError):
            parse_edge_list([])


def _colored_state(graph, red=(), blue=()):
    colors = [VertexColor.WHITE] * graph.vertex_count
    for v in red:
        colors[v] = VertexColor.RED
    for v in blue:
        colors[v] = VertexColor.BLUE
    return GraphState(graph, colors)


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
            event, _ = graph_jump(state, g, p, make_rng(seed))
            assert event is EventKind.CHASE

    def test_isolated_red_component_must_convert(self):
        g = complete_graph(2)
        p = Params(1, 1.0, 2.0)
        for seed in range(10):
            state = _colored_state(g, red=(0, 1))
            event, _ = graph_jump(state, g, p, make_rng(seed))
            assert event is EventKind.CONVERT

    def test_no_red_raises(self):
        g = complete_graph(3)
        state = _colored_state(g, blue=(0,))
        with pytest.raises(NoTransitionError):
            graph_jump(state, g, Params(2, 1.0, 1.0), make_rng(0))

    def test_zero_total_rate_raises(self):
        g = parse_edge_list(["0 1"])
        p = Params(1, 1.0, 0.0, InitMode.KORTCHEMSKI)
        state = _colored_state(g, red=(0, 1))  # no white, no blue, no conversion
        with pytest.raises(NoTransitionError):
            graph_jump(state, g, p, make_rng(0))


class TestBookkeeping:
    def test_matches_brute_force_recount_along_runs(self):
        g = complete_graph(12)
        p = Params(11, 1.0, 1.0)
        for trial in range(20):
            rng = make_rng(stream_seed(21, trial))
            state = GraphState.initial(g, p.init_mode)
            while len(state.red) > 0:
                graph_jump(state, g, p, rng)
                assert state.recount(g) == (len(state.red), len(state.rw), len(state.rb))

    def test_blue_is_terminal(self):
        g = complete_graph(10)
        p = Params(9, 1.0, 1.5)
        rng = make_rng(31)
        state = GraphState.initial(g, p.init_mode)
        ever_blue = set()
        while len(state.red) > 0:
            graph_jump(state, g, p, rng)
            now_blue = {v for v, c in enumerate(state.colors) if c == VertexColor.BLUE}
            assert ever_blue <= now_blue
            ever_blue = now_blue


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
        state = GraphState.initial(g, p.init_mode)
        assert state.colors[0] == VertexColor.RED
        assert state.colors[1] == VertexColor.BLUE
        assert state.white_count == 5

    def test_determinism(self):
        g = complete_graph(15)
        p = Params(14, 1.0, 1.0)
        assert run_graph_to_fixation(g, p, make_rng(9)) == run_graph_to_fixation(
            g, p, make_rng(9)
        )

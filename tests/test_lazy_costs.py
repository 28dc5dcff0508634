"""The lazily costed condensed graph against the graph costed in full: the
same order, the same costs, the same search, while the direct-form kernel
sees only the edges the solver reads."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qga import assembler, kernels
from qga.assembler import (
    BOUND_NAMES,
    FREE_VAR,
    CandidateSets,
    build_condensed_graph,
    embedding_cost_source,
    ensure_exact,
    solve_qga,
)
from qga.embedding import EmbeddingTable

ITEMS = 30
VERTICES = range(0, 16)
PREDICATES = range(16, 30)


def build(sets, table, eager_edges):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembler, "EAGER_EDGES", eager_edges)
        return build_condensed_graph(sets, embedding_cost_source(table))


def small_rounds(test):
    """Run ``test`` with refine rounds that start at one edge, so that the
    small drawn graphs take several rounds and every read site must ask
    for its edges."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembler, "REFINE_MIN_EDGES", 1)
            test(*args, **kwargs)

    return run


@st.composite
def embedded_graphs(draw):
    """Vectors with column scales 1e-8 to 1e6 (or small integers, so that
    costs tie exactly), two predicates an ulp apart, vertices shared by
    several sets (a pair with v1 == v2 costs |p|), and now and then a
    free-variable set."""
    dim = draw(st.sampled_from([1, 2, 3, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vectors = rng.normal(size=(ITEMS, dim)) * 10.0 ** rng.uniform(-8, 6, size=dim)
    else:
        vectors = rng.integers(-2, 3, size=(ITEMS, dim)).astype(np.float64)
    vectors[17] = np.nextafter(vectors[16], np.inf)
    table = EmbeddingTable(dim=dim, vectors=vectors, has=np.ones(ITEMS, dtype=bool))
    n = draw(st.integers(2, 4))
    vertex_sets = []
    for _ in range(n):
        if draw(st.integers(0, 6)) == 0:
            vertex_sets.append((FREE_VAR,))
        else:
            vertex_sets.append(tuple(draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=7, unique=True))))
    m = draw(st.integers(1, 3))
    edge_sets = [
        tuple(draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=4, unique=True))) for _ in range(m)
    ]
    return CandidateSets(vertex_sets, edge_sets), table


@settings(max_examples=200, deadline=None, derandomize=True)
@given(embedded_graphs())
def test_lazy_build_equals_the_graph_costed_in_full(case):
    sets, table = case
    full = build(sets, table, 10**9)
    lazy = build(sets, table, 0)
    assert lazy.lefts.tobytes() == full.lefts.tobytes()
    assert lazy.rights.tobytes() == full.rights.tobytes()
    # an edge is either uncosted (NaN, -1, -1) or costed exactly
    costed = ~np.isnan(lazy.edge_weights)
    assert lazy.edge_weights[costed].tobytes() == full.edge_weights[costed].tobytes()
    assert (lazy.edge_best_p[~costed] == -1).all() and (lazy.edge_direction[~costed] == -1).all()
    assert lazy.edges_costed <= costed.sum()
    assert lazy.weights.tobytes() == full.weights.tobytes()
    assert lazy.best_p.tobytes() == full.best_p.tobytes()
    assert lazy.direction.tobytes() == full.direction.tobytes()
    assert lazy.lazy is None and lazy.exact_upto == len(lazy.lefts)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(embedded_graphs())
@small_rounds
def test_lazy_graph_solves_like_the_graph_costed_in_full(case):
    sets, table = case
    for bound in BOUND_NAMES:
        q_full, s_full = solve_qga(build(sets, table, 10**9), bound)
        q_lazy, s_lazy = solve_qga(build(sets, table, 0), bound)
        assert (s_lazy.states_pushed, s_lazy.states_popped, s_lazy.states_pruned, s_lazy.bound_evaluations) == (
            s_full.states_pushed,
            s_full.states_popped,
            s_full.states_pruned,
            s_full.bound_evaluations,
        )
        assert s_lazy.edges_costed <= s_full.edges_costed
        if q_full is None:
            assert q_lazy is None
            continue
        assert repr(q_lazy.total_cost) == repr(q_full.total_cost)
        assert q_lazy.vertices == q_full.vertices
        assert q_lazy.edges == q_full.edges


def test_ensure_exact_grows_each_edge_set_by_doubling():
    sets, table = ambiguous_shaped(np.random.default_rng(0))
    graph = build(sets, table, 0)
    E = len(graph.lefts)
    ensure_exact(graph, 1)
    assert graph.exact_upto == assembler.REFINE_MIN_EDGES
    ensure_exact(graph, E - 1, right=0)
    assert graph.lazy.costed_to[0] == E - 1 and graph.exact_upto == assembler.REFINE_MIN_EDGES
    ensure_exact(graph, assembler.REFINE_MIN_EDGES + 1)
    assert graph.exact_upto == 2 * assembler.REFINE_MIN_EDGES
    assert not np.isnan(graph.edge_weights[: graph.exact_upto]).any()
    assert not np.isnan(graph.edge_weights[graph.rights == 0][:-1]).any()


def ambiguous_shaped(rng, n=4, m=3, k=10, dim=32):
    """n vertex sets and m predicate sets of k random unit vectors each,
    as in the ambiguous benchmark workload."""
    items = (n + m) * k
    vectors = rng.normal(size=(items, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ids = np.arange(items).reshape(n + m, k).tolist()
    sets = CandidateSets([tuple(s) for s in ids[:n]], [tuple(s) for s in ids[n:]])
    return sets, EmbeddingTable(dim=dim, vectors=vectors, has=np.ones(items, dtype=bool))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("wrapped", [False, True])
def test_direct_form_sees_a_fraction_of_the_edges(monkeypatch, seed, wrapped):
    """On the ambiguous workload's query shapes, ten graphs of each, the
    solver reads few edge costs, so ``pair_costs`` scores under a quarter
    of the rows, also behind a pass-through wrapper like a tracer's, which
    forwards the call's return value and nothing else."""
    rows = []
    real = kernels.pair_costs

    def spy(vec, v1, *args, **kwargs):
        rows.append(len(v1))
        return real(vec, v1, *args, **kwargs)

    monkeypatch.setattr(kernels, "pair_costs", spy)
    bound_calls = []
    real_bounds = kernels.pair_cost_bounds
    monkeypatch.setattr(kernels, "pair_cost_bounds", lambda *a: bound_calls.append(1) or real_bounds(*a))
    rng = np.random.default_rng(seed)
    edges = 0
    for n, m in [(3, 2), (4, 3), (4, 2)] * 10:
        sets, table = ambiguous_shaped(rng, n, m)
        source = embedding_cost_source(table)
        if wrapped:
            source = (lambda inner: lambda *args, **kwargs: inner(*args, **kwargs))(source)
        before = sum(rows)
        graph = build_condensed_graph(sets, source)
        _, stats = solve_qga(graph, "greedy")
        assert sum(rows) - before == stats.edges_costed == graph.edges_costed
        edges += len(graph.lefts)
    assert sum(rows) < 0.25 * edges
    assert len(bound_calls) == 30  # one bound kernel call per graph


def test_a_matching_is_read_with_exact_costs():
    """``_graph_from_matched`` costs the edges it is handed, however deep
    in the weight order they lie."""
    sets, table = ambiguous_shaped(np.random.default_rng(1), n=3, m=2)
    full = build(sets, table, 10**9)
    lazy = build(sets, table, 0)
    last = len(lazy.lefts) - 1
    assert np.isnan(lazy.edge_weights[last])
    assert assembler._graph_from_matched(lazy, (last,)) == assembler._graph_from_matched(full, (last,))

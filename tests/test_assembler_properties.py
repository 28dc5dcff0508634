"""Property tests for the array-backed condensed graph and the lazy solver,
against per-cell and brute-force references."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qga.assembler import (
    BOUND_NAMES,
    FREE_VAR,
    UNBOUND,
    CandidateSets,
    brute_force_oracle,
    build_condensed_graph,
    compatible_with,
    embedding_cost_source,
    solve_qga,
)
from qga.embedding import DIR_FORWARD, EmbeddingTable
from qga.errors import UnknownItemError
from qga.instances import build_random_graph, exact_costs, table_cost_source

from test_assembler import conflicts, wiring
from test_predictor import condensed_edge_weight

VERTICES = range(0, 8)
PREDICATES = range(8, 12)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def per_cell_reference(sets, table):
    """The per-cell build: one condensed_edge_weight call per (left node,
    edge set), then a Python sort by (weight, left, right)."""
    left_nodes = [
        (i1, v1, i2, v2)
        for i1, i2 in itertools.combinations(range(sets.n), 2)
        for v1 in sets.vertex_sets[i1]
        for v2 in sets.vertex_sets[i2]
    ]
    raw = []
    for left, (i1, v1, i2, v2) in enumerate(left_nodes):
        for j, predicates in enumerate(sets.edge_sets):
            if v1 == FREE_VAR or v2 == FREE_VAR:
                w, best_p, direction = 0.0, min(predicates), DIR_FORWARD
            else:
                w, best_p, direction = condensed_edge_weight(table, v1, v2, predicates)
            raw.append((w, left, j, best_p, direction))
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return left_nodes, raw


@st.composite
def embedded_sets(draw):
    """Candidate sets over 8 vertices and 4 predicates with coarse integer
    vectors, so many costs tie; some sets are free variables and some items
    may lack a vector (a case that would cost a pair with one is
    discarded)."""
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    vectors = np.array(draw(st.lists(coords, min_size=12, max_size=12)), dtype=np.float64)
    has = np.array(draw(st.lists(st.booleans(), min_size=12, max_size=12)))
    if draw(st.booleans()):
        has[:] = True
    table = EmbeddingTable(dim=dim, vectors=vectors, has=has, items=[f"i{i}" for i in range(12)])
    n = draw(st.integers(2, 4))
    vertex_sets = []
    for _ in range(n):
        if draw(st.integers(0, 4)) == 0:
            vertex_sets.append((FREE_VAR,))
        else:
            vertex_sets.append(tuple(draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=3, unique=True))))
    m = draw(st.integers(0, 3))
    edge_sets = [
        tuple(draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=3, unique=True))) for _ in range(m)
    ]
    return CandidateSets(vertex_sets, edge_sets), table


@PROPERTY_SETTINGS
@given(embedded_sets())
def test_batched_build_equals_per_cell_reference(case):
    sets, table = case
    try:
        left_nodes, raw = per_cell_reference(sets, table)
    except UnknownItemError:
        # a costed id without a vector is outside the cost source's contract:
        # its callers drop such ids first (test_pipeline checks that)
        assume(False)
    graph = build_condensed_graph(sets, embedding_cost_source(table))
    assert graph.left_nodes.tolist() == [list(node) for node in left_nodes]
    assert graph.weights.tolist() == [r[0] for r in raw]
    assert graph.lefts.tolist() == [r[1] for r in raw]
    assert graph.rights.tolist() == [r[2] for r in raw]
    assert graph.best_p.tolist() == [r[3] for r in raw]
    assert graph.direction.tolist() == [r[4] for r in raw]
    for left, (i1, v1, i2, v2) in enumerate(left_nodes):
        expect = [UNBOUND] * sets.n
        expect[i1] = v1
        expect[i2] = v2
        assert graph.slots[left].tolist() == expect


def zero_cost_source(set1, v1, set2, v2, edge_sets):
    shape = (len(edge_sets), len(v1))
    return exact_costs(np.zeros(shape), np.repeat([[min(p)] for p in edge_sets], len(v1), axis=1), np.zeros(shape))


@PROPERTY_SETTINGS
@given(
    vertex_sets=st.lists(
        st.one_of(
            st.just((FREE_VAR,)),
            st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True).map(tuple),
        ),
        max_size=5,
    ),
    costed=st.booleans(),
)
def test_left_nodes_equal_the_pair_comprehension(vertex_sets, costed):
    # singletons, free-variable sets and n < 2 (no pairs) are all drawn;
    # with an edge set the costed pairs also go through the cost source
    edge_sets = [(60,)] if costed and len(vertex_sets) >= 2 else []
    graph = build_condensed_graph(CandidateSets(vertex_sets, edge_sets), zero_cost_source)
    expected = [
        [i1, v1, i2, v2]
        for i1, i2 in itertools.combinations(range(len(vertex_sets)), 2)
        for v1 in vertex_sets[i1]
        for v2 in vertex_sets[i2]
    ]
    assert graph.left_nodes.dtype == np.int64
    assert graph.left_nodes.shape == (len(expected), 4)
    assert graph.left_nodes.tolist() == expected


@st.composite
def weighted_instances(draw):
    """Instances with weights from a small grid, so equal-cost matchings and
    tied edges are common."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    vertex_sets, next_id = [], 0
    for _ in range(n):
        size = draw(st.integers(1, 3))
        vertex_sets.append(tuple(range(next_id, next_id + size)))
        next_id += size
    edge_sets = [(100 + j,) for j in range(m)]
    weights = {}
    for i1, i2 in itertools.combinations(range(n), 2):
        for v1 in vertex_sets[i1]:
            for v2 in vertex_sets[i2]:
                for j in range(m):
                    w = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
                    weights[(i1, v1, i2, v2, j)] = (w, 100 + j, DIR_FORWARD)
    return CandidateSets(vertex_sets, edge_sets), weights


@PROPERTY_SETTINGS
@given(weighted_instances())
def test_lazy_solver_matches_oracle_under_every_bound(case):
    sets, weights = case
    graph = build_condensed_graph(sets, table_cost_source(weights))
    oracle_cost, _ = brute_force_oracle(graph)
    for bound in BOUND_NAMES:
        q, stats = solve_qga(graph, bound=bound)
        assert stats.states_popped >= 1
        if math.isinf(oracle_cost):
            assert q is None
            continue
        assert q.total_cost == pytest.approx(oracle_cost, abs=1e-12)
        assert len(q.edges) == sets.m
        assembled = {(a.set1, a.vertex1, a.set2, a.vertex2, a.predicate) for a in q.edges}
        chosen = [e for e in graph.edges if wiring(graph, e) + (int(graph.best_p[e]),) in assembled]
        assert len(chosen) == sets.m
        assert not any(conflicts(graph, e, f) for e, f in itertools.combinations(chosen, 2))


@st.composite
def graphs_and_calls(draw):
    """A small graph with tied costs, free-variable sets among its vertex
    sets, and a sequence of ``compatible_with`` calls on it: edge ``e`` in
    any order, each against any subset of the edges."""
    n = draw(st.integers(2, 4))
    vertex_sets = []
    for _ in range(n):
        if draw(st.integers(0, 3)) == 0:
            vertex_sets.append((FREE_VAR,))
        else:
            vertex_sets.append(tuple(draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=3, unique=True))))
    m = draw(st.integers(1, 3))
    edge_sets = [(PREDICATES[j],) for j in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def source(set1, v1, set2, v2, edge_sets):
        shape = (len(edge_sets), len(v1))
        best_p = np.repeat([[p[0]] for p in edge_sets], len(v1), axis=1)
        return exact_costs(rng.integers(0, 3, shape), best_p, np.zeros(shape))

    graph = build_condensed_graph(CandidateSets(vertex_sets, edge_sets), source)
    num_edges = len(graph.edges)
    order = draw(st.permutations(range(num_edges)))
    calls = [(e, np.flatnonzero(rng.random(num_edges) < rng.random())) for e in order]
    return graph, calls


@PROPERTY_SETTINGS
@given(graphs_and_calls())
def test_compatible_with_equals_the_pairwise_reference_in_any_call_order(case):
    # every call after the first reuses the graph's cached clash masks
    graph, calls = case
    for e, rest in calls:
        assert compatible_with(graph, e, rest).tolist() == [not conflicts(graph, e, f) for f in rest.tolist()]
    num_left = len(graph.left_nodes)
    assert len(graph.fits) <= sum(len(vs) for vs in graph.sets.vertex_sets)
    assert all(mask.shape == (num_left,) and mask.dtype == bool for mask in graph.fits.values())


def test_graph_memory_is_linear_in_edges():
    """n=3, m=2, k=40: 9 600 crossing edges.  A dense E x E conflict matrix
    alone would take 92 MB; the arrays stay within a few dozen bytes per
    edge plus 8 bytes per (left node, vertex set)."""
    graph = build_random_graph(np.random.default_rng(1), 3, 2, 40, exact_sizes=True)
    num_edges, (num_left, n) = len(graph.weights), graph.slots.shape
    assert num_edges == 9_600
    nbytes = sum(v.nbytes for v in vars(graph).values() if isinstance(v, np.ndarray))
    assert nbytes <= 33 * num_edges + 8 * num_left * (n + 4)

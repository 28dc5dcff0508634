import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qga import kernels
from qga.assembler import FREE_VAR, AssembledEdge, CandidateSets, QueryGraph
from qga.embedding import DIR_FORWARD, EmbeddingTable
from qga.errors import UnknownItemError
from qga.predictor import (
    build_prediction_graph,
    connected_components,
    minimum_spanning_tree,
    mst_connect,
    predict_missing_relations,
)


def table_from(rows):
    vectors = np.array(rows, dtype=np.float64)
    return EmbeddingTable(
        dim=vectors.shape[1],
        vectors=vectors,
        has=np.ones(vectors.shape[0], dtype=bool),
        items=[f"i{i}" for i in range(vectors.shape[0])],
    )



# -- scalar cost references -----------------------------------------------------
# One pair at a time, for the tests to check the batched
# embedding.condensed_edge_weights and the predictor against.


def triple_assembly_cost(table, v1: int, v2: int, p: int):
    """Cost of wiring (v1, v2) with predicate p, and the cheaper direction.

    Ties resolve to the forward direction (v1 -> v2); swapping v1 and v2
    compares the same two residuals, so the cost is exactly symmetric.
    """
    table.require(v1, v2, p)
    costs, dirs = kernels.pair_costs(table.vectors, [v1], [v2], [p])
    return float(costs[0, 0]), int(dirs[0, 0])


def condensed_edge_weight(table, v1: int, v2: int, predicates):
    """Minimum assembly cost over a predicate candidate set.

    Returns (cost, best predicate, direction); predicate ties break by id.
    """
    preds = sorted(predicates)
    if not preds:
        raise ValueError("empty predicate set")
    table.require(v1, v2, *preds)
    costs, dirs = kernels.pair_costs(table.vectors, [v1], [v2], preds)
    best = int(np.argmin(costs[0]))
    return float(costs[0, best]), preds[best], int(dirs[0, best])

def edge(set1, set2, v1=0, v2=0, p=0, w=0.0, predicted=False):
    return AssembledEdge(
        set1=set1,
        vertex1=v1,
        set2=set2,
        vertex2=v2,
        predicate=p,
        direction=DIR_FORWARD,
        weight=w,
        predicted=predicted,
    )


def graph(vertices, edges):
    return QueryGraph(vertices=vertices, edges=edges, total_cost=sum(e.weight for e in edges))


# -- components ---------------------------------------------------------------


def test_connected_graph_single_component():
    q = graph([0, 1, 2], [edge(0, 1), edge(1, 2)])
    assert connected_components(q) == [[0, 1, 2]]


def test_two_components():
    q = graph([0, 1, 2], [edge(0, 1)])
    assert connected_components(q) == [[0, 1], [2]]


def test_edgeless_graph_all_singletons():
    q = graph([5, 6, 7, 8], [])
    assert connected_components(q) == [[0], [1], [2], [3]]


# -- prediction graph ------------------------------------------------------------


def test_two_singletons_argmin_predicate():
    # items: 0 = a, 1 = b, 2 = p (exact translation), 3 = q (far)
    table = table_from([[0, 0], [1, 0], [1, 0], [5, 0]])
    q = graph([0, 1], [])
    pg = build_prediction_graph([[0], [1]], table, [2, 3], q)
    assert list(pg) == [(0, 1)]
    e = pg[(0, 1)]
    assert e.predicate == 2
    assert e.weight == 0.0
    assert (e.vertex1, e.vertex2) == (0, 1)
    assert e.predicted


def test_three_components_three_edges():
    table = table_from(np.random.default_rng(0).normal(size=(5, 3)))
    q = graph([0, 1, 2], [])
    pg = build_prediction_graph([[0], [1], [2]], table, [3, 4], q)
    assert list(pg) == [(0, 1), (0, 2), (1, 2)]


def test_prediction_weight_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    table = table_from(rng.normal(size=(12, 4)))
    q = graph([0, 1, 2, 3], [edge(0, 1, v1=0, v2=1), edge(2, 3, v1=2, v2=3)])
    comps = connected_components(q)
    assert comps == [[0, 1], [2, 3]]
    preds = [8, 9, 10, 11]
    pg = build_prediction_graph(comps, table, preds, q)
    e = pg[(0, 1)]
    best = min(
        (triple_assembly_cost(table, vi, vj, p)[0], vi, vj, p)
        for vi in (0, 1)
        for vj in (2, 3)
        for p in preds
    )
    assert e.weight == pytest.approx(best[0], rel=1e-12)
    assert (e.vertex1, e.vertex2, e.predicate) == best[1:]


@st.composite
def tied_prediction_inputs(draw, min_sets=2):
    """min_sets to min_sets + 2 unpinned candidate sets over 8 vertices, some
    predicates among 4, and coarse integer vectors, so many bridge costs tie
    exactly; sets 0 and 1 may be pinned together when that still leaves
    min_sets components."""
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    table = table_from(draw(st.lists(coords, min_size=12, max_size=12)))
    n = draw(st.integers(min_sets, min_sets + 2))
    vertex_sets = [
        tuple(draw(st.lists(st.sampled_from(range(8)), min_size=1, max_size=3, unique=True))) for _ in range(n)
    ]
    vertices = [s[0] for s in vertex_sets]
    edges = [edge(0, 1, v1=vertices[0], v2=vertices[1])] if n > min_sets and draw(st.booleans()) else []
    preds = draw(st.lists(st.sampled_from(range(8, 12)), min_size=1, max_size=4, unique=True))
    q = QueryGraph(vertices=vertices, edges=edges, total_cost=0.0, sets=CandidateSets(vertex_sets, []))
    return table, q, preds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_prediction_inputs())
def test_prediction_tie_break_matches_exhaustive_scan(inputs):
    """Every prediction edge is the first of the exhaustive
    (cost, v_i, set_i, v_j, set_j, p) scan: exact weight, endpoints, sets
    and predicate, ties included."""
    table, q, preds = inputs
    pinned = {i for e in q.edges for i in (e.set1, e.set2)}

    def endpoints(comp):
        return [(v, i) for i in comp for v in ((q.vertices[i],) if i in pinned else q.sets.vertex_sets[i])]

    comps = connected_components(q)
    pg = build_prediction_graph(comps, table, preds, q)
    assert list(pg) == list(itertools.combinations(range(len(comps)), 2))
    for (ci, cj), e in pg.items():
        best = min(
            (triple_assembly_cost(table, vi, vj, p)[0], vi, si, vj, sj, p)
            for vi, si in endpoints(comps[ci])
            for vj, sj in endpoints(comps[cj])
            for p in preds
        )
        assert (e.weight, e.vertex1, e.set1, e.vertex2, e.set2, e.predicate) == best
        assert e.direction == triple_assembly_cost(table, e.vertex1, e.vertex2, e.predicate)[1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_prediction_inputs(min_sets=3))
def test_mst_connect_binds_each_set_once(inputs):
    """r - 1 predicted edges connect q; every set keeps one vertex across
    assembled and predicted edges, re-costed tree edges included; and each
    predicted edge is labeled with its own triple's cost and direction."""
    table, q, preds = inputs
    r = len(connected_components(q))
    assert r >= 3
    out = predict_missing_relations(q, table, preds)
    assert len(out.predicted_edges) == r - 1
    assert connected_components(out) == [list(range(len(out.vertices)))]
    bound = {}
    for e in out.all_edges:
        for s, v in ((e.set1, e.vertex1), (e.set2, e.vertex2)):
            assert bound.setdefault(s, v) == v
            assert out.vertices[s] == v
    for e in out.predicted_edges:
        assert e.predicted
        assert (e.weight, e.direction) == triple_assembly_cost(table, e.vertex1, e.vertex2, e.predicate)


def test_free_variable_vertices_skipped():
    table = table_from([[0, 0], [1, 0], [1, 0]])
    q = graph([0, FREE_VAR, 1], [edge(0, 1, v1=0, v2=FREE_VAR)])
    comps = connected_components(q)
    pg = build_prediction_graph(comps, table, [2], q)
    assert pg[(0, 1)].vertex1 == 0  # never the free variable


# -- spanning tree ---------------------------------------------------------------


def prufer_trees(r):
    """All labeled trees on r nodes via Prüfer sequences."""
    if r == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(r), repeat=r - 2):
        degree = [1] * r
        for x in seq:
            degree[x] += 1
        seq_list = list(seq)
        tree = []
        leaves = sorted(i for i in range(r) if degree[i] == 1)
        for x in seq_list:
            leaf = leaves.pop(0)
            tree.append((min(leaf, x), max(leaf, x)))
            degree[x] -= 1
            if degree[x] == 1:
                import bisect

                bisect.insort(leaves, x)
        tree.append((leaves[0], leaves[1]))
        yield tree


def test_mst_weight_matches_exhaustive_tree_enumeration():
    rng = np.random.default_rng(9)
    for r in (2, 3, 4):
        for _ in range(10):
            table = table_from(rng.normal(size=(r + 3, 3)))
            q = graph(list(range(r)), [])
            comps = connected_components(q)
            pg = build_prediction_graph(comps, table, [r, r + 1, r + 2], q)
            wmat = {pair: e.weight for pair, e in pg.items()}
            tree = minimum_spanning_tree(pg)
            got = sum(e.weight for e in tree)
            best = min(
                sum(wmat[(min(a, b), max(a, b))] for a, b in t) for t in prufer_trees(r)
            )
            assert got == pytest.approx(best, rel=1e-12)


def test_mst_connect_adds_r_minus_1_edges_and_connects():
    rng = np.random.default_rng(10)
    table = table_from(rng.normal(size=(8, 3)))
    q = graph([0, 1, 2, 3], [edge(0, 1, v1=0, v2=1)])
    comps = connected_components(q)
    assert len(comps) == 3
    pg = build_prediction_graph(comps, table, [4, 5], q)
    out = mst_connect(pg, q, table, [4, 5])
    assert len(out.predicted_edges) == 2
    assert all(e.predicted for e in out.predicted_edges)
    assert connected_components(out) == [[0, 1, 2, 3]]


def test_predict_noop_when_connected():
    table = table_from([[0, 0], [1, 0], [1, 0]])
    q = graph([0, 1], [edge(0, 1, v1=0, v2=1)])
    out = predict_missing_relations(q, table, [2])
    assert out is q and out.predicted_edges == []


def test_unconstrained_set_disambiguated_by_prediction():
    """A vertex set no assembled edge touched is chosen by the cheapest
    bridging triple, not by its candidate ranking."""
    from qga.assembler import CandidateSets

    # items: 0 anchor, 1 bad candidate (far), 2 good candidate, 3 predicate
    table = table_from([[0, 0], [9, 9], [1, 0], [1, 0]])
    sets = CandidateSets([(0,), (1, 2)], [])
    q = QueryGraph(vertices=[0, 1], edges=[], total_cost=0.0, sets=sets)
    out = predict_missing_relations(q, table, [3])
    assert len(out.predicted_edges) == 1
    e = out.predicted_edges[0]
    assert {e.vertex1, e.vertex2} == {0, 2}
    assert out.vertices == [0, 2]  # ranking said 1, cost says 2
    assert e.weight == pytest.approx(0.0, abs=1e-12)


def test_bridging_component_kept_consistent():
    """Two tree edges meeting at one unconstrained set must agree on its
    vertex even when their independent argmins disagree."""
    from qga.assembler import CandidateSets

    # middle set {1, 2}: candidate 1 is perfect toward anchor 0, candidate 2
    # perfect toward anchor 3; whichever the first tree edge picks must be
    # reused (and the second edge re-resolved) rather than mixed.
    table = table_from(
        [
            [0.0, 0.0],  # 0: left anchor
            [1.0, 0.0],  # 1: middle candidate aligned with 0
            [4.0, 4.0],  # 2: middle candidate aligned with 3
            [5.0, 4.0],  # 3: right anchor
            [1.0, 0.0],  # 4: predicate
        ]
    )
    sets = CandidateSets([(0,), (1, 2), (3,)], [])
    q = QueryGraph(vertices=[0, 1, 3], edges=[], total_cost=0.0, sets=sets)
    out = predict_missing_relations(q, table, [4])
    assert len(out.predicted_edges) == 2
    middle = out.vertices[1]
    assert middle in (1, 2)
    for e in out.predicted_edges:
        for s, v in ((e.set1, e.vertex1), (e.set2, e.vertex2)):
            assert out.vertices[s] == v
    assert connected_components(out) == [[0, 1, 2]]


def test_omitted_relation_picks_pinned_location_predicate(mini_kg):
    """Synthetic vectors make the location predicate the cheapest bridge
    between the university vertex and the country vertex."""
    uni = mini_kg.id_of("dbo:University")
    usa = mini_kg.id_of("res:United_States")
    sci = mini_kg.id_of("dbo:Scientist")
    alma = mini_kg.id_of("dbo:almaMater")
    loc = mini_kg.id_of("dbo:location")
    country = mini_kg.id_of("dbo:country")
    vectors = np.zeros((mini_kg.num_items(), 2))
    vectors[sci] = [0, 0]
    vectors[uni] = [1, 0]
    vectors[usa] = [1, 1]
    vectors[alma] = [1, 0]  # sci + alma == uni
    vectors[loc] = [0, 1]  # uni + loc == usa (exact: weight 0)
    vectors[country] = [0, 0.5]  # uni + country misses usa by 0.5
    table = EmbeddingTable(
        dim=2,
        vectors=vectors,
        has=np.ones(mini_kg.num_items(), dtype=bool),
        items=list(mini_kg.items),
    )
    q = graph([sci, uni, usa], [edge(0, 1, v1=sci, v2=uni, p=alma)])
    preds = [p for p in mini_kg.predicates if mini_kg.iri_of(p) != mini_kg.type_predicate]
    out = predict_missing_relations(q, table, preds)
    assert len(out.predicted_edges) == 1
    e = out.predicted_edges[0]
    assert e.predicate == loc
    assert {e.vertex1, e.vertex2} == {uni, usa}
    assert e.weight == pytest.approx(0.0, abs=1e-12)


def test_predicate_without_vector_never_predicted():
    """A catalog predicate with no vector reads as a zero vector in the
    table; it must not be scored, let alone win at cost |a - b| = 0.1."""
    # items: 0 = a, 1 = b, 2 = p (far but real), 3 = q (no vector)
    table = table_from([[0, 0], [0.1, 0], [5, 0], [0, 0]])
    table.has[3] = False
    q = graph([0, 1], [])
    out = predict_missing_relations(q, table, [2, 3])
    assert [e.predicate for e in out.predicted_edges] == [2]
    assert out.predicted_edges[0].weight == pytest.approx(4.9)


def test_unpinned_candidate_without_vector_skipped():
    from qga.assembler import CandidateSets

    # items: 0 anchor, 1 candidate with no vector (zero row: would cost 0), 2 candidate, 3 predicate
    table = table_from([[0, 0], [0, 0], [2, 0], [1, 0]])
    table.has[1] = False
    sets = CandidateSets([(0,), (1, 2)], [])
    q = QueryGraph(vertices=[0, 1], edges=[], total_cost=0.0, sets=sets)
    out = predict_missing_relations(q, table, [3])
    assert out.vertices == [0, 2]


def test_only_unvectored_predicates_is_an_input_error():
    table = table_from([[0, 0], [1, 0], [1, 0]])
    table.has[2] = False
    with pytest.raises(UnknownItemError, match="no predicate"):
        predict_missing_relations(graph([0, 1], []), table, [2])


def test_component_without_vectored_vertex_is_an_input_error():
    # items: 0 anchor, 1 the other set's only candidate (no vector), 2 predicate
    table = table_from([[0, 0], [1, 0], [1, 0]])
    table.has[1] = False
    q = QueryGraph(vertices=[0, 1], edges=[], total_cost=0.0, sets=CandidateSets([(0,), (1,)], []))
    with pytest.raises(UnknownItemError, match="component has no concrete vertex"):
        predict_missing_relations(q, table, [2])

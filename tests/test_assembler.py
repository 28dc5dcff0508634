import itertools
import math

import numpy as np
import pytest

from qga.assembler import (
    BOUND_NAMES,
    FREE_VAR,
    CandidateSets,
    SearchState,
    brute_force_oracle,
    build_candidate_sets,
    build_condensed_graph,
    compatible_with,
    greedy_lb,
    hungarian_min_assignment,
    km_lb,
    naive_lb,
    reduce_3sat,
    solve_qga,
)
from qga.errors import ParseError, ResourceLimitError
from qga.instances import build_random_graph, dump_instance, load_instance, random_instance, table_cost_source
from qga.lexicon import EXACT_SCORE, CandidateTerm
from qga.sat import truth_table_satisfiable

from test_sat import random_3cnf


def term(start, end, character, items):
    return CandidateTerm(
        start=start,
        end=end,
        character=character,
        candidates=tuple(items),
        match_score=EXACT_SCORE,
    )


class FakeAQ:
    def __init__(self, terms):
        self.terms = terms


def uniform_graph(seed, n, m, k, exact_sizes=False):
    rng = np.random.default_rng(seed)
    return build_random_graph(rng, n, m, k, exact_sizes=exact_sizes)


def wiring(graph, e):
    """(set1, vertex1, set2, vertex2) of crossing edge ``e``'s left node."""
    return tuple(graph.left_nodes[graph.lefts[e]].tolist())


def conflicts(graph, e, f):
    """Mutual exclusion between crossing edges ``e`` and ``f``: a shared
    right node, a shared left node, or different vertices from a shared
    vertex set.  The pairwise reference for ``compatible_with``."""
    if graph.rights[e] == graph.rights[f] or graph.lefts[e] == graph.lefts[f]:
        return True
    s1, v1, s2, v2 = wiring(graph, e)
    t1, u1, t2, u2 = wiring(graph, f)
    return any(si == sj and vi != vj for si, vi in ((s1, v1), (s2, v2)) for sj, vj in ((t1, u1), (t2, u2)))


def make_state(graph, matched=()):
    """State reachable by matching the given edge indices in order."""
    z = np.arange(len(graph.edges), dtype=np.int64)
    cost = 0.0
    for e in matched:
        keep = z[z > e]
        z = keep[compatible_with(graph, e, keep)]
        cost += float(graph.weights[e])
    return SearchState(graph=graph, matched=tuple(matched), compatible=z, cost=cost)


def optimal_completion_cost(graph, state, m):
    """Exact cheapest total cost reachable from ``state``; +inf when none.

    Brute force over the state's compatible edges, used to audit the lower
    bounds.
    """
    need = m - len(state.matched)
    if need <= 0:
        return state.cost
    weights = graph.weights
    best = math.inf

    def rec(z: np.ndarray, acc: float, left: int) -> None:
        nonlocal best
        if left == 0:
            if acc < best:
                best = acc
            return
        if len(z) < left:
            return
        for t in range(len(z) - left + 1):
            e = int(z[t])
            nxt = acc + float(weights[e])
            if nxt >= best:
                break  # weights ascending: later starts cost at least this
            rest = z[t + 1 :]
            rec(rest[compatible_with(graph, e, rest)], nxt, left - 1)

    rec(state.compatible, state.cost, need)
    return best


# -- candidate sets ------------------------------------------------------------


def test_build_candidate_sets_running_shape():
    aq = FakeAQ(
        [
            term(0, 1, "class", [10]),
            term(1, 3, "relation", [20, 21]),
            term(3, 4, "class", [11]),
            term(4, 5, "relation", [22, 23]),
            term(5, 6, "entity", [12, 13]),
        ]
    )
    sets = build_candidate_sets(aq)
    assert sets.vertex_sets == [(10,), (11,), (12, 13)]
    assert sets.edge_sets == [(20, 21), (22, 23)]
    assert sets.n == 3 and sets.m == 2


def test_degenerate_free_variable_injection():
    aq = FakeAQ([term(0, 1, "entity", [10]), term(1, 2, "relation", [20])])
    sets = build_candidate_sets(aq)
    assert sets.n == 2 and sets.m == 1
    assert sets.vertex_sets == [(10,), (FREE_VAR,)]


def test_relations_only_injects_two_free_variables():
    aq = FakeAQ([term(0, 1, "relation", [20])])
    sets = build_candidate_sets(aq)
    assert sets.n == 2
    assert all(vs == (FREE_VAR,) for vs in sets.vertex_sets)


def test_entity_only_aq_has_no_edges():
    aq = FakeAQ([term(0, 1, "entity", [10]), term(1, 2, "entity", [11])])
    sets = build_candidate_sets(aq)
    assert sets.m == 0
    graph = build_condensed_graph(sets, None)
    q, stats = solve_qga(graph)
    assert q.total_cost == 0.0 and q.edges == [] and q.vertices == [10, 11]


def test_empty_aq_errors():
    with pytest.raises(ValueError):
        build_candidate_sets(FakeAQ([]))


# -- condensed graph -----------------------------------------------------------


def test_condensed_graph_counts_running_example():
    sets = CandidateSets([(10,), (11,), (12, 13)], [(20, 21), (22, 23)])
    weights = {}
    rng = np.random.default_rng(0)
    for i1, i2 in itertools.combinations(range(3), 2):
        for v1 in sets.vertex_sets[i1]:
            for v2 in sets.vertex_sets[i2]:
                for j in range(2):
                    weights[(i1, v1, i2, v2, j)] = (float(rng.random()), 20, 0)
    graph = build_condensed_graph(sets, table_cost_source(weights))
    assert len(graph.left_nodes) == 5
    assert len(graph.edges) == 10


def test_minimal_graph():
    sets = CandidateSets([(1,), (2,)], [(9,)])
    graph = build_condensed_graph(
        sets, table_cost_source({(0, 1, 1, 2, 0): (0.5, 9, 0)})
    )
    assert len(graph.left_nodes) == 1 and len(graph.edges) == 1


def test_size_bounds_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        g = build_random_graph(rng, n, m, k)
        assert len(g.left_nodes) <= k * k * math.comb(n, 2)
        assert len(g.edges) == m * len(g.left_nodes)
        assert len(g.edges) <= m * n * n * k * k
        assert np.all(np.diff(g.weights) >= 0)


def test_requires_two_vertex_sets_for_edges():
    sets = CandidateSets([(1,)], [(9,)])
    with pytest.raises(ValueError):
        build_condensed_graph(sets, None)


# -- conflicts -------------------------------------------------------------------


def test_conflict_same_set_different_vertices():
    g = uniform_graph(1, 3, 2, 2)
    sameset = [
        (e, f)
        for e, f in itertools.combinations(g.edges, 2)
        if wiring(g, e)[0] == wiring(g, f)[0] and wiring(g, e)[1] != wiring(g, f)[1]
    ]
    assert sameset
    for e, f in sameset:
        assert conflicts(g, e, f)


def test_no_conflict_disjoint_sets_and_rights():
    g = uniform_graph(2, 4, 2, 1)
    pairs = [
        (e, f)
        for e, f in itertools.combinations(g.edges, 2)
        if g.rights[e] != g.rights[f] and set(wiring(g, e)[::2]).isdisjoint(wiring(g, f)[::2])
    ]
    assert pairs
    for e, f in pairs:
        assert not conflicts(g, e, f)


def test_conflict_same_left_different_right():
    g = uniform_graph(3, 2, 2, 1)
    e = [x for x in g.edges if g.rights[x] == 0][0]
    f = [x for x in g.edges if g.rights[x] == 1 and g.lefts[x] == g.lefts[e]][0]
    assert conflicts(g, e, f)


def test_compatible_with_matches_pairwise_function():
    for seed, (n, m, k) in enumerate([(3, 2, 2), (4, 3, 2), (2, 2, 3), (4, 1, 3)], start=4):
        g = uniform_graph(seed, n, m, k)
        everything = np.arange(len(g.edges), dtype=np.int64)
        for e in g.edges:
            mask = compatible_with(g, e, everything)
            assert mask.tolist() == [not conflicts(g, e, f) for f in g.edges]


# -- lower bounds ----------------------------------------------------------------


def lb_fixture_graph():
    """One vertex-set pair per left node: 2 rights x 3 lefts, no (a)-conflicts."""
    sets = CandidateSets([(1,), (2,), (3,), (4,)], [(8,), (9,)])
    weights = {}
    vals = iter([0.1, 0.2, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4])
    for i1, i2 in itertools.combinations(range(4), 2):
        for j in range(2):
            weights[(i1, sets.vertex_sets[i1][0], i2, sets.vertex_sets[i2][0], j)] = (
                next(vals),
                8 + j,
                0,
            )
    return build_condensed_graph(sets, table_cost_source(weights))


def test_naive_lb_sum_of_smallest():
    g = lb_fixture_graph()
    state = make_state(g)
    assert naive_lb(state, 2) == pytest.approx(0.1 + 0.2)


def test_naive_lb_complete_state_is_cost():
    g = uniform_graph(5, 3, 2, 2)
    q, _ = solve_qga(g, "naive")
    state = make_state(g, tuple(sorted(_edges_of(g, q))))
    assert naive_lb(state, 2) == state.cost


def _edges_of(graph, q):
    """The crossing edge index of each of q's assembled edges."""
    out = []
    for e in q.edges:
        matches = [
            c
            for c in graph.edges
            if wiring(graph, c) + (graph.rights[c],)
            == (e.set1, e.vertex1, e.set2, e.vertex2, _right_of(graph, e))
        ]
        out.append(matches[0])
    return out


def _right_of(graph, e):
    for j, preds in enumerate(graph.sets.edge_sets):
        if e.predicate in preds:
            return j
    raise AssertionError


def test_naive_lb_dead_state():
    g = lb_fixture_graph()
    state = SearchState(
        graph=g, matched=(0,), compatible=np.array([], dtype=np.int64), cost=0.1
    )
    assert naive_lb(state, 2) == math.inf


def test_km_lb_assignment_matrix():
    cols, total = hungarian_min_assignment(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert total == 2.0 and cols == [0, 1]


def test_km_lb_equals_naive_for_single_remainder():
    g = uniform_graph(6, 3, 2, 3)
    for t in range(min(6, len(g.edges))):
        state = make_state(g, (t,))
        assert km_lb(state, 2) == pytest.approx(naive_lb(state, 2))


def test_km_dominates_naive_on_sampled_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = build_random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        states = []
        solve_qga(g, "naive", state_hook=states.append)
        for s in states:
            assert km_lb(s, g.sets.m) >= naive_lb(s, g.sets.m) - 1e-12


def test_greedy_lb_keeps_cheapest_per_relation():
    # Z: e1(L1,R1,w=1), e2(L1,R2,w=2), e3(L2,R2,w=3); cheapest per right: 1 + 2
    sets = CandidateSets([(1,), (2,), (3,)], [(8,), (9,)])
    weights = {
        (0, 1, 1, 2, 0): (1.0, 8, 0),
        (0, 1, 1, 2, 1): (2.0, 9, 0),
        (0, 1, 2, 3, 0): (9.0, 8, 0),
        (0, 1, 2, 3, 1): (3.0, 9, 0),
        (1, 2, 2, 3, 0): (9.5, 8, 0),
        (1, 2, 2, 3, 1): (9.5, 9, 0),
    }
    g = build_condensed_graph(sets, table_cost_source(weights))
    sub = np.flatnonzero(np.isin(g.weights, (1.0, 2.0, 3.0)))
    state = SearchState(graph=g, matched=(), compatible=sub, cost=0.0)
    assert greedy_lb(state, 2) == pytest.approx(1.0 + 2.0)


def test_greedy_lb_equals_naive_when_rights_disjoint():
    g = lb_fixture_graph()
    state = make_state(g)
    # cheapest edges 0.1 (right 0) and 0.2 (right 1) are on different rights
    assert greedy_lb(state, 2) == naive_lb(state, 2)


def test_greedy_lb_dead_when_some_relation_uncoverable():
    g = lb_fixture_graph()
    only_right0 = np.flatnonzero(g.rights == 0)
    state = SearchState(graph=g, matched=(), compatible=only_right0, cost=0.0)
    assert greedy_lb(state, 2) == math.inf


def test_all_bounds_admissible_on_sampled_states():
    rng = np.random.default_rng(13)
    audited = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        g = build_random_graph(rng, n, m, k)
        states = []
        solve_qga(g, "greedy", state_hook=states.append)
        for s in states:
            opt = optimal_completion_cost(g, s, g.sets.m)
            tol = 1e-9 * max(1.0, abs(opt)) if math.isfinite(opt) else 0.0
            for lb_fn in (naive_lb, km_lb, greedy_lb):
                assert lb_fn(s, g.sets.m) <= opt + tol
            audited += 1
    assert audited > 100


# -- hungarian -------------------------------------------------------------------


def test_hungarian_examples():
    cols, total = hungarian_min_assignment([[1.0, 2.0], [3.0, 1.0]])
    assert cols == [0, 1] and total == 2.0
    cols, total = hungarian_min_assignment([[5.0, 1.0, 9.0]])
    assert total == 1.0 and cols == [1]


def test_hungarian_infeasible_all_inf_row():
    cols, total = hungarian_min_assignment([[math.inf, math.inf], [1.0, 2.0]])
    assert cols is None and total is None


def test_hungarian_more_rows_than_cols_infeasible():
    cols, total = hungarian_min_assignment([[1.0], [2.0]])
    assert cols is None and total is None


def brute_force_assignment(costs):
    r, c = costs.shape
    best = math.inf
    for perm in itertools.permutations(range(c), r):
        total = sum(costs[i, perm[i]] for i in range(r))
        best = min(best, total)
    return best


def test_hungarian_matches_factorial_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(200):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(r, 7))
        costs = rng.random((r, c))
        _, total = hungarian_min_assignment(costs)
        assert total == pytest.approx(brute_force_assignment(costs), rel=1e-12)


# -- solver ----------------------------------------------------------------------


def test_single_edge_instance():
    sets = CandidateSets([(1,), (2,)], [(9,)])
    g = build_condensed_graph(sets, table_cost_source({(0, 1, 1, 2, 0): (0.37, 9, 1)}))
    q, stats = solve_qga(g)
    assert q.total_cost == pytest.approx(0.37)
    assert stats.states_popped == 1
    assert len(q.edges) == 1 and q.edges[0].direction == 1


def test_infeasible_two_relations_single_pair():
    sets = CandidateSets([(1,), (2,)], [(8,), (9,)])
    weights = {
        (0, 1, 1, 2, 0): (0.1, 8, 0),
        (0, 1, 1, 2, 1): (0.2, 9, 0),
    }
    g = build_condensed_graph(sets, table_cost_source(weights))
    q, stats = solve_qga(g)
    assert q is None
    cost, graph = brute_force_oracle(g)
    assert math.isinf(cost) and graph is None


def test_pinned_weights_argmin_contract():
    """Two competing assemblies with pinned costs; the cheaper one wins."""
    sets = CandidateSets([(1,), (2,), (3, 4)], [(8,), (9,)])
    # assembly A: edges (set0,set1) and (set1,set2@3): total 1.76
    # assembly B: edges (set0,set1) and (set0,set2@4): total 2.46
    weights = {
        (0, 1, 1, 2, 0): (0.88, 8, 0),
        (0, 1, 1, 2, 1): (2.0, 9, 0),
        (0, 1, 2, 3, 0): (2.0, 8, 0),
        (0, 1, 2, 3, 1): (1.9, 9, 0),
        (0, 1, 2, 4, 0): (2.0, 8, 0),
        (0, 1, 2, 4, 1): (1.58, 9, 0),
        (1, 2, 2, 3, 0): (2.0, 8, 0),
        (1, 2, 2, 3, 1): (0.88, 9, 0),
        (1, 2, 2, 4, 0): (2.0, 8, 0),
        (1, 2, 2, 4, 1): (2.0, 9, 0),
    }
    g = build_condensed_graph(sets, table_cost_source(weights))
    for bound in BOUND_NAMES:
        q, _ = solve_qga(g, bound)
        assert q.total_cost == pytest.approx(1.76)
        assert q.vertices == [1, 2, 3]


def test_oracle_equivalence_random_suite():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        g = build_random_graph(rng, n, m, k)
        oracle_cost, oracle_graph = brute_force_oracle(g)
        for bound in BOUND_NAMES:
            q, _ = solve_qga(g, bound)
            if math.isinf(oracle_cost):
                assert q is None
            else:
                assert q.total_cost == pytest.approx(oracle_cost, rel=1e-9)


def test_returned_matching_is_conflict_free():
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = build_random_graph(rng, 4, 3, 3)
        q, _ = solve_qga(g)
        if q is None:
            continue
        realized = _edges_of(g, q)
        for e, f in itertools.combinations(realized, 2):
            assert not conflicts(g, e, f)


def test_relabeling_preserves_optimal_cost():
    sets, weights = random_instance(np.random.default_rng(5), 3, 2, 3)
    g = build_condensed_graph(sets, table_cost_source(weights))
    base_cost = solve_qga(g)[0].total_cost

    perm = [2, 0, 1]  # old set index -> new set index
    new_vertex_sets = [None] * 3
    for old_i in range(3):
        new_vertex_sets[perm[old_i]] = sets.vertex_sets[old_i]
    new_sets = CandidateSets(new_vertex_sets, list(sets.edge_sets))
    new_weights = {}
    for (i1, v1, i2, v2, j), val in weights.items():
        a, b = perm[i1], perm[i2]
        if a < b:
            new_weights[(a, v1, b, v2, j)] = val
        else:
            w, p, direction = val
            new_weights[(b, v2, a, v1, j)] = (w, p, 1 - direction)
    g2 = build_condensed_graph(new_sets, table_cost_source(new_weights))
    assert solve_qga(g2)[0].total_cost == pytest.approx(base_cost, rel=1e-12)


def test_solver_stats_do_not_depend_on_anything_but_the_graph():
    sets, weights = random_instance(np.random.default_rng(11), 3, 2, 3)
    g1 = build_condensed_graph(sets, table_cost_source(weights))
    g2 = build_condensed_graph(sets, table_cost_source(dict(weights)))
    for bound in BOUND_NAMES:
        q1, s1 = solve_qga(g1, bound)
        q2, s2 = solve_qga(g2, bound)
        assert (s1.states_pushed, s1.states_popped, s1.states_pruned) == (
            s2.states_pushed,
            s2.states_popped,
            s2.states_pruned,
        )
        assert q1.total_cost == q2.total_cost


# -- oracle ----------------------------------------------------------------------


def test_oracle_m0_vertex_only():
    sets = CandidateSets([(1, 2), (3,)], [])
    g = build_condensed_graph(sets, None)
    cost, q = brute_force_oracle(g)
    assert cost == 0.0 and q.vertices == [1, 3]


def test_oracle_cap():
    rng = np.random.default_rng(2)
    g = build_random_graph(rng, 4, 3, 4)
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(g, cap=10)


# -- 3-SAT reduction --------------------------------------------------------------


def test_single_clause_satisfiable():
    g = reduce_3sat(3, [(1, 2, -3)])
    q, _ = solve_qga(g)
    assert q.total_cost == 0.0


def test_contradiction_unsatisfiable():
    g = reduce_3sat(1, [(1, 1, 1), (-1, -1, -1)])
    q, _ = solve_qga(g)
    assert q is not None and q.total_cost >= 1.0


def test_malformed_clause_rejected():
    with pytest.raises(ValueError):
        reduce_3sat(2, [(1, 2)])
    with pytest.raises(ValueError):
        reduce_3sat(2, [(1, 2, 5)])
    with pytest.raises(ValueError):
        reduce_3sat(2, [(1, 0, 2)])


def test_reduction_agrees_with_truth_table_quick():
    rng = np.random.default_rng(19)
    for _ in range(12):
        p = int(rng.integers(1, 5))
        q_count = int(rng.integers(1, 6))
        clauses = random_3cnf(rng, p, q_count)
        g = reduce_3sat(p, clauses)
        solved, _ = solve_qga(g)
        got = solved is not None and solved.total_cost <= 1e-9
        assert got == truth_table_satisfiable(p, clauses)


# -- instance round trip ------------------------------------------------------------


def test_instance_dump_load_round_trip(tmp_path):
    sets, weights = random_instance(np.random.default_rng(23), 3, 2, 3)
    path = tmp_path / "instance.txt"
    dump_instance(sets, weights, path)
    sets2, weights2 = load_instance(path)
    assert sets2.vertex_sets == sets.vertex_sets
    assert sets2.edge_sets == sets.edge_sets
    assert weights2 == weights
    g1 = build_condensed_graph(sets, table_cost_source(weights))
    g2 = build_condensed_graph(sets2, table_cost_source(weights2))
    assert solve_qga(g1)[0].total_cost == solve_qga(g2)[0].total_cost


VALID_DUMP = "n 2\nm 1\nV 0 10\nV 1 11\nE 0 20\nW 0 10 1 11 0 0.5 20 0\n"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        (VALID_DUMP.replace("V 0 10\n", "V 0 10 -2\n"), 3, "negative item id"),
        (VALID_DUMP.replace("V 0 10\n", "V 0 10 10\n"), 3, "repeated item"),
        (VALID_DUMP + "V 1 12\n", 7, "repeated V index"),
        (VALID_DUMP + "W 0 10 1 11 0 0.1 20 0\n", 7, "repeated W key"),
        (VALID_DUMP + "W 0 10 1 12 0 0.1 20 0\n", 7, "names no vertex pair"),
        (VALID_DUMP.replace(" 0.5 20 0\n", " 0.5 99 0\n"), 6, "predicate 99 is not in edge set 0"),
        (VALID_DUMP.replace(" 0.5 20 0\n", " 0.5 20 7\n"), 6, "direction 7"),
        (VALID_DUMP.replace(" 0.5 20 0\n", " nan 20 0\n"), 6, "non-finite weight"),
        (VALID_DUMP.replace(" 0.5 20 0\n", " inf 20 0\n"), 6, "non-finite weight"),
        ("n 1\nm 0\nV 0\n", 3, "empty V set 0"),
        (VALID_DUMP.replace("E 0 20\n", "E 0\n"), 5, "empty E set 0"),
    ],
    ids=[
        "negative-item",
        "repeated-item",
        "repeated-index",
        "repeated-w-key",
        "stray-w-key",
        "foreign-predicate",
        "bad-direction",
        "nan-weight",
        "inf-weight",
        "empty-v-set",
        "empty-e-set",
    ],
)
def test_load_instance_rejects(tmp_path, text, line_no, message):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as info:
        load_instance(path)
    assert info.value.line_no == line_no

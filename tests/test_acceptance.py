"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qga.assembler import (
    BOUND_NAMES,
    brute_force_oracle,
    build_condensed_graph,
    greedy_lb,
    hungarian_min_assignment,
    km_lb,
    naive_lb,
    solve_qga,
)
from qga.embedding import EmbeddingTable
from qga.instances import bench_lower_bounds, build_random_graph, reduce_3sat, table_cost_source
from qga.lexicon import TermGraph, enumerate_maximal_cliques
from qga.pipeline import answer_keywords
from qga.predictor import build_prediction_graph, connected_components, minimum_spanning_tree
from qga.sat import truth_table_satisfiable
from qga.sparql import StructuredQuery, Var, evaluate_bgp
from qga.store import load_triples

from conftest import MINI, gold_answers
from test_assembler import optimal_completion_cost
from test_embedding import margin_loss, margin_loss_grad
from test_lexicon import brute_force_maximal_cliques
from test_pipeline import mean_popped
from test_predictor import condensed_edge_weight, graph as component_graph, prufer_trees, table_from, triple_assembly_cost
from test_sat import random_3cnf
from test_sparql import brute_force_bgp


def report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    return ok


# -- criteria 1 and 2 share the random-instance runs ---------------------------


@pytest.fixture(scope="module")
def solver_runs():
    rng = np.random.default_rng(20240801)
    runs = []
    t0 = time.perf_counter()
    for i in range(420):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        graph = build_random_graph(rng, n, m, k)
        oracle_cost, _ = brute_force_oracle(graph)
        per_bound = {}
        states = []
        for bound in BOUND_NAMES:
            q, stats = solve_qga(graph, bound=bound, state_hook=states.append)
            per_bound[bound] = q.total_cost if q is not None else math.inf
        runs.append((graph, oracle_cost, per_bound, states))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_solver_optimality(solver_runs):
    runs, elapsed = solver_runs
    mismatches = 0
    for graph, oracle_cost, per_bound, _ in runs:
        for bound, got in per_bound.items():
            if math.isinf(oracle_cost):
                ok = math.isinf(got)
            else:
                ok = abs(got - oracle_cost) <= 1e-9 * max(1.0, abs(oracle_cost))
            mismatches += not ok
    ok = mismatches == 0 and elapsed < 30.0
    assert report(
        1,
        ok,
        f"{len(runs)} random instances x {len(BOUND_NAMES)} bounds match the "
        f"brute-force optimum (mismatches={mismatches}, {elapsed:.1f}s)",
    )


def test_criterion_2_lower_bound_admissibility(solver_runs):
    runs, _ = solver_runs
    t0 = time.perf_counter()
    audited = 0
    violations = 0
    for graph, _, _, states in runs:
        m = graph.sets.m
        for state in states:
            opt = optimal_completion_cost(graph, state, m)
            tol = 1e-9 * max(1.0, abs(opt)) if math.isfinite(opt) else 0.0
            for lb_fn in (naive_lb, km_lb, greedy_lb):
                if lb_fn(state, m) > opt + tol:
                    violations += 1
            audited += 1
    elapsed = time.perf_counter() - t0
    ok = audited >= 2000 and violations == 0
    assert report(
        2,
        ok,
        f"{audited} popped states audited against exact completion cost; "
        f"{violations} violations across naive/km/greedy ({elapsed:.1f}s)",
    )


def test_criterion_3_pruning_trend():
    t0 = time.perf_counter()
    rows = bench_lower_bounds(100, k_values=(5, 10), seed=20240802)
    elapsed = time.perf_counter() - t0
    lines = []
    ok = elapsed < 120.0
    for k in (5, 10):
        naive = mean_popped(rows, k, "naive")
        km = mean_popped(rows, k, "km")
        greedy = mean_popped(rows, k, "greedy")
        cond = naive > greedy and naive > km and km <= 1.25 * greedy
        ok = ok and cond
        lines.append(f"k={k}: naive={naive:.1f} km={km:.1f} greedy={greedy:.1f}")
    assert report(
        3,
        ok,
        "mean states popped " + "; ".join(lines) + f" ({elapsed:.1f}s)",
    )


def test_criterion_4_sat_reduction_equivalence():
    rng = np.random.default_rng(20240803)
    t0 = time.perf_counter()
    agree = 0
    total = 50
    for _ in range(total):
        p = int(rng.integers(1, 7))
        q_count = int(rng.integers(1, 9))
        clauses = random_3cnf(rng, p, q_count)
        sets, weights = reduce_3sat(p, clauses)
        graph = build_condensed_graph(sets, table_cost_source(weights))
        solved, _ = solve_qga(graph, bound="greedy")
        got = solved is not None and solved.total_cost <= 1e-9
        agree += got == truth_table_satisfiable(p, clauses)
    elapsed = time.perf_counter() - t0
    ok = agree == total and elapsed < 60.0
    assert report(
        4,
        ok,
        f"optimum==0 agreed with the truth table on {agree}/{total} random "
        f"3-CNF formulas ({elapsed:.1f}s)",
    )


def test_criterion_5_cost_properties_and_gradient():
    rng = np.random.default_rng(20240804)
    table = EmbeddingTable(
        dim=12,
        vectors=rng.normal(size=(60, 12)),
        has=np.ones(60, dtype=bool),
        items=[f"i{j}" for j in range(60)],
    )
    sym_fail = nonneg_fail = mono_fail = 0
    for _ in range(10000):
        v1, v2, p = (int(x) for x in rng.integers(0, 60, size=3))
        c1, _ = triple_assembly_cost(table, v1, v2, p)
        c2, _ = triple_assembly_cost(table, v2, v1, p)
        sym_fail += c1 != c2
        nonneg_fail += c1 < 0.0
    for _ in range(2000):
        v1, v2 = (int(x) for x in rng.integers(0, 20, size=2))
        preds = sorted(int(x) for x in rng.choice(np.arange(20, 60), size=5, replace=False))
        cond, _, _ = condensed_edge_weight(table, v1, v2, preds)
        for p in preds:
            if cond > triple_assembly_cost(table, v1, v2, p)[0] + 1e-12:
                mono_fail += 1

    grad_fail = 0
    checked = 0
    while checked < 20:
        dim = int(rng.integers(2, 9))
        vectors = rng.normal(size=(8, dim))
        pos, neg = (0, 1, 2), (3, 1, 4)
        margin = 5.0
        if margin_loss(vectors, pos, neg, margin) <= 0:
            continue
        grads = margin_loss_grad(vectors, pos, neg, margin)
        item = int(rng.choice(list(grads)))
        coord = int(rng.integers(0, dim))
        h = 1e-6
        up, down = vectors.copy(), vectors.copy()
        up[item, coord] += h
        down[item, coord] -= h
        fd = (margin_loss(up, pos, neg, margin) - margin_loss(down, pos, neg, margin)) / (2 * h)
        analytic = grads[item][coord]
        if abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8) >= 1e-4:
            grad_fail += 1
        checked += 1

    ok = sym_fail == nonneg_fail == mono_fail == grad_fail == 0
    assert report(
        5,
        ok,
        "10000 probes: symmetry/nonnegativity exact, condensation monotone "
        f"(fails {sym_fail}/{nonneg_fail}/{mono_fail}); gradient vs central "
        f"differences rel 1e-4 on 20 probes (fails {grad_fail})",
    )


def test_criterion_6_transe_desk_scale(toy_kg, toy_table):
    rng = np.random.default_rng(20240805)
    vertices = toy_kg.vertices
    tri_set = set(toy_kg.triples)
    wins = 0
    for s, p, o in toy_kg.triples:
        c_pos, _ = triple_assembly_cost(toy_table, s, o, p)
        while True:
            if rng.integers(0, 2) == 0:
                s2, o2 = int(vertices[rng.integers(0, len(vertices))]), o
            else:
                s2, o2 = s, int(vertices[rng.integers(0, len(vertices))])
            if (s2, p, o2) not in tri_set and (s2, o2) != (s, o):
                break
        c_neg, _ = triple_assembly_cost(toy_table, s2, o2, p)
        wins += c_pos < c_neg
    frac = wins / len(toy_kg.triples)
    ok = frac >= 0.8
    assert report(
        6,
        ok,
        f"{frac:.1%} of {len(toy_kg.triples)} toy-graph triples cost less "
        "than their corrupted twins (dim=32, epochs=200)",
    )


def test_criterion_7_algorithmic_sub_oracles(tmp_path):
    rng = np.random.default_rng(20240806)

    hungarian_ok = 0
    for _ in range(200):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(r, 7))
        costs = rng.random((r, c))
        _, total = hungarian_min_assignment(costs)
        best = min(
            sum(costs[i, perm[i]] for i in range(r))
            for perm in itertools.permutations(range(c), r)
        )
        hungarian_ok += abs(total - best) <= 1e-9

    clique_ok = 0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        got = sorted(enumerate_maximal_cliques(TermGraph(nodes=[None] * n, edges=edges)), key=sorted)
        clique_ok += got == sorted(brute_force_maximal_cliques(n, edges), key=sorted)

    mst_ok = 0
    mst_total = 0
    for r in (2, 3, 4):
        for _ in range(10):
            table = table_from(rng.normal(size=(r + 3, 3)))
            q = component_graph(list(range(r)), [])
            pg = build_prediction_graph(connected_components(q), table, [r, r + 1, r + 2], q)
            wmat = {pair: e.weight for pair, e in pg.items()}
            got = sum(e.weight for e in minimum_spanning_tree(pg))
            best = min(sum(wmat[(min(a, b), max(a, b))] for a, b in t) for t in prufer_trees(r))
            mst_ok += abs(got - best) <= 1e-9
            mst_total += 1

    names = [f"n{i}" for i in range(9)]
    lines = set()
    while len(lines) < 50:
        s = names[rng.integers(0, 9)]
        o = names[rng.integers(0, 9)]
        p = ("p", "q")[rng.integers(0, 2)]
        lines.add(f"{s}\t{p}\t{o}")
    path = tmp_path / "bgp.tsv"
    path.write_text("\n".join(sorted(lines)) + "\n")
    kg = load_triples(path)
    vars_ = [Var("x"), Var("y"), Var("z")]
    bgp_ok = 0
    bgp_total = 0
    for _ in range(30):
        patterns = []
        used = set()
        for _ in range(int(rng.integers(1, 4))):
            s = vars_[rng.integers(0, 3)] if rng.random() < 0.7 else names[rng.integers(0, 9)]
            o = vars_[rng.integers(0, 3)] if rng.random() < 0.7 else names[rng.integers(0, 9)]
            patterns.append((s, ("p", "q")[rng.integers(0, 2)], o))
            used.update(t.name for t in (s, o) if isinstance(t, Var))
        if not used:
            continue
        sq = StructuredQuery(select_vars=sorted(used), patterns=patterns, text="")
        bgp_ok += evaluate_bgp(sq, kg) == brute_force_bgp(sq, kg)
        bgp_total += 1

    ok = (
        hungarian_ok == 200
        and clique_ok == 100
        and mst_ok == mst_total
        and bgp_ok == bgp_total
    )
    assert report(
        7,
        ok,
        f"hungarian {hungarian_ok}/200, cliques {clique_ok}/100, "
        f"mst {mst_ok}/{mst_total}, bgp {bgp_ok}/{bgp_total} vs brute force",
    )


def test_criterion_8_store_size_independence(tmp_path, mini_kg, mini_lexicon, mini_table):
    from qga.lexicon import build_lexicon
    from test_pipeline import junk_inflated_store

    tokens = "scientist graduate from university locate USA".split()
    base = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)

    inflated = junk_inflated_store(tmp_path, factor=100)
    big_kg = load_triples(inflated)
    big_lexicon = build_lexicon(big_kg, MINI / "labels.tsv", MINI / "paraphrases.tsv")
    extra = big_kg.num_items() - mini_kg.num_items()
    big_table = EmbeddingTable(
        dim=mini_table.dim,
        vectors=np.vstack([mini_table.vectors, np.zeros((extra, mini_table.dim))]),
        has=np.concatenate([mini_table.has, np.zeros(extra, dtype=bool)]),
        items=list(big_kg.items),
    )
    big = answer_keywords(tokens, big_kg, big_lexicon, big_table)

    stats_a = [
        (c.stats.states_pushed, c.stats.states_popped, c.stats.states_pruned)
        for c in base.candidates
        if c.stats is not None
    ]
    stats_b = [
        (c.stats.states_pushed, c.stats.states_popped, c.stats.states_pruned)
        for c in big.candidates
        if c.stats is not None
    ]
    costs_a = [c.assembled_cost for c in base.candidates]
    costs_b = [c.assembled_cost for c in big.candidates]
    ratio = len(big_kg.triples) / len(mini_kg.triples)
    ok = stats_a == stats_b and costs_a == costs_b and ratio >= 100
    assert report(
        8,
        ok,
        f"solver stats bit-identical on a {ratio:.0f}x junk-inflated store "
        f"({len(mini_kg.triples)} -> {len(big_kg.triples)} triples)",
    )


def test_criterion_9_end_to_end_fixture(mini_kg, mini_lexicon, mini_table, mini_queries):
    passed = []
    failed = []
    for qid, tokens in mini_queries:
        gold = gold_answers(qid)
        try:
            result = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
            sq = result.structured_query
            if sq.entity_answer is not None:
                got = {sq.entity_answer}
            else:
                primary = sq.select_vars[0]
                got = {mini_kg.iri_of(row[primary]) for row in result.bindings}
        except Exception:  # noqa: BLE001 - a failed query counts against the score
            got = set()
        (passed if got == gold else failed).append(qid)
    ok = len(passed) >= 8
    assert report(
        9,
        ok,
        f"{len(passed)}/10 curated keyword queries matched their gold answers"
        + (f" (failed: {', '.join(failed)})" if failed else ""),
    )

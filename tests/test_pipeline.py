import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qga import kernels, pipeline
from qga.assembler import (
    BOUND_NAMES,
    SolveStats,
    brute_force_oracle,
    build_condensed_graph,
    embedding_cost_source,
    solve_qga,
)
from qga.embedding import EmbeddingTable
from qga.errors import InfeasibleAssemblyError, UninterpretableQueryError
from qga.lexicon import annotate, build_lexicon
from qga.pipeline import PipelineConfig, answer_keywords, bench_instances, bench_lower_bounds
from qga.store import load_triples

from conftest import MINI, gold_answers


def answers_of(result, kg):
    sq = result.structured_query
    if sq.entity_answer is not None:
        return {sq.entity_answer}
    primary = sq.select_vars[0]
    return {kg.iri_of(row[primary]) for row in result.bindings}


def test_running_example_returns_gold_scientists(mini_kg, mini_lexicon, mini_table):
    tokens = "scientist graduate from university locate USA".split()
    result = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
    assert answers_of(result, mini_kg) == gold_answers("q01")
    assert result.structured_query.select_vars[0] == "v0"


def test_single_entity_degenerate(mini_kg, mini_lexicon, mini_table):
    result = answer_keywords(["einstein"], mini_kg, mini_lexicon, mini_table)
    assert result.structured_query.entity_answer == "res:Albert_Einstein"


def test_gibberish_uninterpretable(mini_kg, mini_lexicon, mini_table):
    with pytest.raises(UninterpretableQueryError):
        answer_keywords(["xyzzy", "frobnicate"], mini_kg, mini_lexicon, mini_table)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k", 0, "k must be >= 1"),
        ("k", -1, "k must be >= 1"),
        ("top_n", 0, "top_n must be >= 1"),
        ("top_n", -2, "top_n must be >= 1"),
        ("bound", "exact", "unknown bound 'exact'"),
    ],
)
def test_invalid_config_is_a_value_error_before_any_work(field, value, message, mini_kg, mini_lexicon, mini_table):
    """Not an IndexError from the lexicon, "no interpretation" or an
    infeasible assembly: each of those hides a caller's mistake."""
    config = PipelineConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        answer_keywords(["einstein"], mini_kg, mini_lexicon, mini_table, config)
    with pytest.raises(ValueError, match=message):
        config.validate()


def test_no_predict_leaves_graph_disconnected(mini_kg, mini_lexicon, mini_table):
    tokens = "scientist graduate from university USA".split()
    config = PipelineConfig(predict=False)
    result = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table, config)
    assert result.query_graph.predicted_edges == []


def test_predicted_edges_fill_omitted_relation(mini_kg, mini_lexicon, mini_table):
    tokens = "scientist graduate from university USA".split()
    result = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
    assert len(result.query_graph.predicted_edges) >= 1
    assert answers_of(result, mini_kg) == gold_answers("q02")


def without_vectors(table, ids):
    has = table.has.copy()
    has[list(ids)] = False
    return EmbeddingTable(dim=table.dim, vectors=table.vectors, has=has, items=table.items)


@pytest.mark.parametrize("qid", ["q01", "q02", "q06", "q10"])
def test_losing_candidate_without_vector_is_dropped(qid, mini_kg, mini_lexicon, mini_table, mini_queries):
    """res:USA_Today loses to res:United_States in the "USA" set; without a
    vector it leaves the set and the answer stays the full table's."""
    tokens = dict(mini_queries)[qid]
    usa_today = mini_kg.id_of("res:USA_Today")
    full = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
    holed = answer_keywords(tokens, mini_kg, mini_lexicon, without_vectors(mini_table, [usa_today]))
    assert holed.structured_query.text == full.structured_query.text
    assert holed.bindings == full.bindings
    for cand in holed.candidates:
        if cand.sets is not None and cand.sets.m:
            assert all(usa_today not in s for s in cand.sets.vertex_sets)


def test_term_without_any_vectored_candidate_names_the_term(mini_kg, mini_lexicon, mini_table):
    table = without_vectors(mini_table, mini_kg.predicates)
    with pytest.raises(InfeasibleAssemblyError) as err:
        answer_keywords("university locate USA".split(), mini_kg, mini_lexicon, table)
    assert err.value.reasons == ["UnknownItemError: no candidate of relation term 'locate' has a vector"]


@pytest.mark.parametrize("residue", [0, 1, 2])
def test_pair_costs_only_sees_vectored_ids(residue, monkeypatch, mini_kg, mini_lexicon, mini_table, mini_queries):
    """The pair-cost kernel checks no id for a vector, so every caller must
    filter first: assembly drops unvectored candidates, the predictor
    unvectored endpoints and catalog predicates.  With res:USA_Today, a
    losing "USA" candidate, and a third of the predicates holed, every id
    the kernel receives has a vector: on the mini queries, and on two with
    no relation term, whose vertex sets only the predictor filters."""
    holes = [mini_kg.id_of("res:USA_Today")] + [p for p in mini_kg.predicates if p % 3 == residue]
    table = without_vectors(mini_table, holes)
    received = []
    real = kernels.pair_costs

    def spy(vec, v1, v2, preds):
        received.append(np.concatenate([np.asarray(ids, dtype=np.int64) for ids in (v1, v2, preds)]))
        return real(vec, v1, v2, preds)

    monkeypatch.setattr(kernels, "pair_costs", spy)
    predicted = 0
    for tokens in [tokens for _, tokens in mini_queries] + [["university", "USA"], ["newspaper", "USA"]]:
        try:
            result = answer_keywords(tokens, mini_kg, mini_lexicon, table)
        except InfeasibleAssemblyError:
            continue
        predicted += len(result.query_graph.predicted_edges)
    assert received and predicted
    ids = np.concatenate(received)
    assert table.has_vector(ids).all(), sorted(set(ids[~table.has_vector(ids)].tolist()))


@pytest.mark.parametrize(
    "keywords, iri",
    [
        ("einstein", "res:Albert_Einstein"),
        ("Alan Turing death date", "res:Alan_Turing"),
        ("Alan Turing death date", "dbo:deathDate"),
        ("spouse Albert Einstein", "res:Albert_Einstein"),
        ("spouse Albert Einstein", "dbo:spouse"),
    ],
)
def test_query_without_costed_edges_keeps_unvectored_candidates(
    keywords, iri, mini_kg, mini_lexicon, mini_table
):
    """No relation term, or one vertex term wired to a free variable whose
    edges cost nothing: no vector is read, so the answer stays the full
    table's."""
    tokens = keywords.split()
    full = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
    holed = answer_keywords(tokens, mini_kg, mini_lexicon, without_vectors(mini_table, [mini_kg.id_of(iri)]))
    assert holed.structured_query.text == full.structured_query.text


def test_winner_selection_scale_invariant(mini_kg, mini_lexicon, mini_table):
    """Scaling every vector scales every cost; the argmin is unchanged."""
    tokens = "scientist graduate from university locate USA".split()
    base = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
    scaled_table = EmbeddingTable(
        dim=mini_table.dim,
        vectors=mini_table.vectors * 3.0,
        has=mini_table.has.copy(),
        items=list(mini_table.items),
    )
    scaled = answer_keywords(tokens, mini_kg, mini_lexicon, scaled_table)
    assert scaled.winner_index == base.winner_index
    assert scaled.structured_query.text == base.structured_query.text


def test_equal_candidates_go_to_the_first(monkeypatch, mini_kg, mini_lexicon, mini_table):
    """Two copies of one annotated query tie on normalized cost and on
    segmentation score; the last tie break, the candidate index, picks 0."""
    tokens = "scientist graduate from university locate USA".split()
    aq = annotate(tokens, mini_lexicon)[0]
    monkeypatch.setattr(pipeline.lexicon_mod, "annotate", lambda *args, **kwargs: [aq, aq])
    result = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)
    first, second = result.candidates
    assert first.normalized_cost == second.normalized_cost
    assert result.winner_index == 0


def junk_inflated_store(tmp_path, factor=100):
    text = (MINI / "kg.tsv").read_text()
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    junk = []
    for i in range(factor * len(lines) // 3):
        junk.append(f"junkns:zzqx{3*i}\tjunkns:zzrel{i % 7}\tjunkns:zzqx{3*i+1}")
        junk.append(f"junkns:zzqx{3*i+1}\tjunkns:zzrel{i % 7}\tjunkns:zzqx{3*i+2}")
        junk.append(f"junkns:zzqx{3*i+2}\tjunkns:zzrel{i % 7}\tjunkns:zzqx{3*i}")
    path = tmp_path / "inflated.tsv"
    path.write_text(text + "\n".join(junk) + "\n")
    return path


def test_store_size_independence(tmp_path, mini_kg, mini_lexicon, mini_table):
    """Junk triples that add no lexicon matches leave solver stats identical."""
    tokens = "scientist graduate from university locate USA".split()
    base = answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)

    inflated_path = junk_inflated_store(tmp_path)
    big_kg = load_triples(inflated_path)
    assert len(big_kg.triples) >= 100 * len(mini_kg.triples)
    # original items keep their ids, so the trained table still applies
    for i in range(mini_kg.num_items()):
        assert big_kg.iri_of(i) == mini_kg.iri_of(i)
    big_lexicon = build_lexicon(big_kg, MINI / "labels.tsv", MINI / "paraphrases.tsv")
    big_table = EmbeddingTable(
        dim=mini_table.dim,
        vectors=np.vstack(
            [mini_table.vectors, np.zeros((big_kg.num_items() - mini_kg.num_items(), mini_table.dim))]
        ),
        has=np.concatenate(
            [mini_table.has, np.zeros(big_kg.num_items() - mini_kg.num_items(), dtype=bool)]
        ),
        items=list(big_kg.items),
    )
    big = answer_keywords(tokens, big_kg, big_lexicon, big_table)

    stats_a = [
        (c.stats.states_pushed, c.stats.states_popped, c.stats.states_pruned)
        for c in base.candidates
        if c.stats
    ]
    stats_b = [
        (c.stats.states_pushed, c.stats.states_popped, c.stats.states_pruned)
        for c in big.candidates
        if c.stats
    ]
    assert stats_a == stats_b
    assert [c.assembled_cost for c in base.candidates] == [
        c.assembled_cost for c in big.candidates
    ]
    assert answers_of(big, big_kg) == answers_of(base, mini_kg)


def test_all_infeasible_raises(tmp_path):
    # two relation terms but only two vertex sets: no size-2 matching exists
    path = tmp_path / "kg.tsv"
    path.write_text(
        "a\trel:one\tb\n"
        "a\trel:two\tb\n"
    )
    kg = load_triples(path)
    lex = build_lexicon(kg)
    vectors = np.ones((kg.num_items(), 2))
    table = EmbeddingTable(
        dim=2, vectors=vectors, has=np.ones(kg.num_items(), dtype=bool), items=list(kg.items)
    )
    with pytest.raises(InfeasibleAssemblyError):
        answer_keywords(["a", "one", "two", "b"], kg, lex, table)


# -- benchmark harness ----------------------------------------------------------


def test_bench_deterministic():
    a = bench_lower_bounds(1, k_values=(3,), seed=5)
    b = bench_lower_bounds(1, k_values=(3,), seed=5)
    assert a.deterministic_rows() == b.deterministic_rows()


def test_bench_cross_bound_agreement_and_trend():
    report = bench_lower_bounds(30, k_values=(3, 5), seed=11)
    by_key = {}
    for r in report.rows:
        by_key.setdefault((r.k, r.instance), {})[r.bound] = r.cost
    for costs in by_key.values():
        vals = list(costs.values())
        assert all(math.isinf(v) for v in vals) or max(vals) - min(vals) <= 1e-9

    for k in (3, 5):
        assert report.mean_popped(k, "naive") >= report.mean_popped(k, "greedy")
    # lazy sibling generation bounds no more children than eager expansion,
    # which bounds every compatible edge of each popped state with >= 2
    # unmatched relations, would have; and fewer over the whole run
    evaluations = {(r.k, r.instance, r.bound): r.bound_evaluations for r in report.rows}
    lazy_total = eager_total = 0
    for k, idx, graph in bench_instances(30, k_values=(3, 5), seed=11):
        m = graph.sets.m
        for bound in BOUND_NAMES:
            popped = []
            solve_qga(graph, bound=bound, state_hook=popped.append)
            eager = sum(len(s.compatible) for s in popped if m - len(s.matched) >= 2)
            lazy = evaluations[(k, idx, bound)]
            assert lazy <= eager
            lazy_total += lazy
            eager_total += eager
    assert lazy_total < eager_total


def test_bench_tsv_shape():
    report = bench_lower_bounds(2, k_values=(3,), seed=1)
    text = report.to_tsv()
    lines = text.splitlines()
    assert lines[0].startswith("instance\tk\t")
    assert len([l for l in lines if l and not l.startswith(("instance", "#"))]) == 6


def test_programming_error_in_cost_source_propagates(monkeypatch, mini_kg, mini_lexicon, mini_table):
    """Only rejected inputs (QgaError) mark a candidate infeasible; a bug in
    the build must surface, not become exit 3.  A ValueError is a bug too:
    the data conditions the loop can meet raise UnknownItemError."""
    tokens = "scientist graduate from university locate USA".split()
    for error in (TypeError, ValueError):

        def broken_cost_source(table):
            def source(set1, v1, set2, v2, edge_sets):
                raise error("cost source bug")

            return source

        monkeypatch.setattr("qga.pipeline.embedding_cost_source", broken_cost_source)
        with pytest.raises(error, match="cost source bug"):
            answer_keywords(tokens, mini_kg, mini_lexicon, mini_table)


# -- end-to-end oracle ------------------------------------------------------------

VERTEX_WORDS = ("bako", "dimu", "fesa", "gilo")
RELATION_WORDS = ("kavu", "lomi", "nepa")


def write_tiny_store(root, n, m, k, shared, rng):
    """A store whose vertex keyword i labels entities ``t:v{i}_{r}`` and
    relation keyword j paraphrases predicates ``t:p{j}_{r}``, r < k.  With
    ``shared``, the first relation keyword also labels k entities, so the
    query has a second reading with one more vertex term and one relation
    term fewer.  Returns (kg, lexicon, tokens)."""
    entities = [f"t:v{i}_{r}" for i in range(n) for r in range(k)]
    extra = [f"t:x_{r}" for r in range(k)] if shared else []
    triples = [(e, "rdf:type", "t:Thing") for e in entities + extra]
    for j in range(m):
        for r in range(k):
            s, o = rng.choice(len(entities), size=2, replace=False)
            triples.append((entities[s], f"t:p{j}_{r}", entities[o]))
    (root / "kg.tsv").write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples))
    labels = [(e, VERTEX_WORDS[int(e[3])]) for e in entities] + [(x, RELATION_WORDS[0]) for x in extra]
    (root / "labels.tsv").write_text("".join(f"{iri}\t{w}\n" for iri, w in labels))
    (root / "para.tsv").write_text(
        "".join(f"{RELATION_WORDS[j]}\tt:p{j}_{r}\n" for j in range(m) for r in range(k))
    )
    kg = load_triples(root / "kg.tsv")
    lexicon = build_lexicon(kg, root / "labels.tsv", root / "para.tsv")
    words = list(VERTEX_WORDS[:n] + RELATION_WORDS[:m])
    return kg, lexicon, [words[int(i)] for i in rng.permutation(len(words))]


def has_unique_optimum(graph):
    """True when one assembly is cheaper than every other: the exhaustive
    enumeration of ``brute_force_oracle``, keyed by the edges it picks."""
    sets = graph.sets
    weight = {
        (tuple(graph.left_nodes[graph.lefts[e]].tolist()), int(graph.rights[e])): float(graph.weights[e])
        for e in graph.edges
    }
    costs = {}
    pair_sets = list(itertools.combinations(range(sets.n), 2))
    for combo in itertools.product(*sets.vertex_sets):
        for assignment in itertools.permutations(pair_sets, sets.m):
            cells = tuple(((i1, combo[i1], i2, combo[i2]), j) for j, (i1, i2) in enumerate(assignment))
            costs[cells] = sum(weight[c] for c in cells)
    ranked = sorted(costs.values())
    return len(ranked) < 2 or ranked[1] - ranked[0] > 1e-9 * max(1.0, ranked[0])


def oracle_solve(graph, bound="greedy"):
    return brute_force_oracle(graph)[1], SolveStats()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    shared=st.booleans(),
    dim=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pipeline_winner_matches_the_brute_force_oracle(n, m, k, shared, dim, seed):
    """Every candidate assembled by ``brute_force_oracle`` instead of the
    branch and bound, then predicted and ranked as ``answer_keywords`` does,
    gives the pipeline's winning normalized cost; with one optimal assembly
    per candidate, the same winner and bindings."""
    if shared and n == 4:
        n = 3  # the second reading adds a vertex set; keep at most 4
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        kg, lexicon, tokens = write_tiny_store(Path(tmp), n, m, k, shared, rng)
    table = EmbeddingTable(
        dim=dim,
        vectors=rng.normal(size=(kg.num_items(), dim)),
        has=np.ones(kg.num_items(), dtype=bool),
        items=list(kg.items),
    )
    config = PipelineConfig(k=k)
    try:
        solved = answer_keywords(tokens, kg, lexicon, table, config)
    except InfeasibleAssemblyError:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "solve_qga", oracle_solve)
            with pytest.raises(InfeasibleAssemblyError):
                answer_keywords(tokens, kg, lexicon, table, config)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "solve_qga", oracle_solve)
        brute = answer_keywords(tokens, kg, lexicon, table, config)
    winner = solved.candidates[solved.winner_index]
    assert brute.candidates[brute.winner_index].normalized_cost == winner.normalized_cost
    graphs = [build_condensed_graph(c.sets, embedding_cost_source(table)) for c in solved.candidates if c.sets]
    if all(has_unique_optimum(g) for g in graphs):
        assert brute.winner_index == solved.winner_index
        assert brute.structured_query.text == solved.structured_query.text
        assert brute.bindings == solved.bindings

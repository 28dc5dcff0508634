import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qga.assembler import FREE_VAR, AssembledEdge, QueryGraph
from qga.embedding import DIR_FORWARD, DIR_REVERSE
from qga.errors import UnknownItemError
from qga.sparql import StructuredQuery, Var, emit_sparql, evaluate_bgp
from qga.store import KnowledgeGraph, load_triples


def edge(set1, set2, v1, v2, p, direction=DIR_FORWARD, predicted=False, w=0.0):
    return AssembledEdge(
        set1=set1,
        vertex1=v1,
        set2=set2,
        vertex2=v2,
        predicate=p,
        direction=direction,
        weight=w,
        predicted=predicted,
    )


# -- emission -------------------------------------------------------------------


def running_example_graph(kg):
    sci = kg.id_of("dbo:Scientist")
    uni = kg.id_of("dbo:University")
    usa = kg.id_of("res:United_States")
    alma = kg.id_of("dbo:almaMater")
    country = kg.id_of("dbo:country")
    return QueryGraph(
        vertices=[sci, uni, usa],
        edges=[
            edge(0, 1, sci, uni, alma, DIR_FORWARD, w=0.88),
            edge(1, 2, uni, usa, country, DIR_FORWARD, w=0.88),
        ],
        total_cost=1.76,
    )


def test_emit_running_example(mini_kg):
    sq = emit_sparql(running_example_graph(mini_kg), mini_kg)
    assert sq.select_vars == ["v0", "v1"]
    assert sq.text == (
        "SELECT ?v0 ?v1 WHERE {\n"
        "  ?v0 rdf:type dbo:Scientist .\n"
        "  ?v1 rdf:type dbo:University .\n"
        "  ?v0 dbo:almaMater ?v1 .\n"
        "  ?v1 dbo:country res:United_States .\n"
        "}\n"
    )


def test_emit_is_deterministic(mini_kg):
    a = emit_sparql(running_example_graph(mini_kg), mini_kg)
    b = emit_sparql(running_example_graph(mini_kg), mini_kg)
    assert a.text == b.text


def test_emit_single_entity_ask(mini_kg):
    item = mini_kg.id_of("res:Albert_Einstein")
    q = QueryGraph(vertices=[item], edges=[], total_cost=0.0)
    sq = emit_sparql(q, mini_kg)
    assert sq.is_ask
    assert sq.entity_answer == "res:Albert_Einstein"
    assert "res:Albert_Einstein" in sq.text
    assert evaluate_bgp(sq, mini_kg) == [{}]


def test_emit_predicted_edge_marker(mini_kg):
    g = running_example_graph(mini_kg)
    g.predicted_edges.append(
        edge(
            1,
            2,
            mini_kg.id_of("dbo:University"),
            mini_kg.id_of("res:United_States"),
            mini_kg.id_of("dbo:location"),
            predicted=True,
        )
    )
    sq = emit_sparql(g, mini_kg)
    assert sq.text.count("# predicted") == 1
    marked = [line for line in sq.text.splitlines() if "# predicted" in line]
    assert "dbo:location" in marked[0]


def test_emit_reverse_direction(mini_kg):
    sci = mini_kg.id_of("dbo:Scientist")
    uni = mini_kg.id_of("dbo:University")
    alma = mini_kg.id_of("dbo:almaMater")
    g = QueryGraph(
        vertices=[sci, uni],
        edges=[edge(0, 1, sci, uni, alma, DIR_REVERSE)],
        total_cost=0.0,
    )
    sq = emit_sparql(g, mini_kg)
    assert "  ?v1 dbo:almaMater ?v0 .\n" in sq.text


def test_emit_free_variable_untyped(mini_kg):
    turing = mini_kg.id_of("res:Alan_Turing")
    death = mini_kg.id_of("dbo:deathDate")
    g = QueryGraph(
        vertices=[turing, FREE_VAR],
        edges=[edge(0, 1, turing, FREE_VAR, death)],
        total_cost=0.0,
    )
    sq = emit_sparql(g, mini_kg)
    assert sq.select_vars == ["v1"]
    assert "res:Alan_Turing dbo:deathDate ?v1 ." in sq.text
    rows = evaluate_bgp(sq, mini_kg)
    assert [mini_kg.iri_of(r["v1"]) for r in rows] == ['"1954-06-07"^^xsd:date']


def test_emit_all_entities_with_edge_is_ask(mini_kg):
    nash = mini_kg.id_of("res:John_Nash")
    alicia = mini_kg.id_of("res:Alicia_Nash")
    spouse = mini_kg.id_of("dbo:spouse")
    g = QueryGraph(
        vertices=[nash, alicia],
        edges=[edge(0, 1, nash, alicia, spouse)],
        total_cost=0.0,
    )
    sq = emit_sparql(g, mini_kg)
    assert sq.is_ask and sq.select_vars == []
    assert evaluate_bgp(sq, mini_kg) == [{}]


def test_pattern_terms_have_correct_kinds(mini_kg):
    sq = emit_sparql(running_example_graph(mini_kg), mini_kg)
    from qga.store import KIND_PREDICATE

    for s, p, o in sq.patterns:
        assert mini_kg.kind_of(mini_kg.id_of(p)) == KIND_PREDICATE
        for t in (s, o):
            if not isinstance(t, Var):
                assert mini_kg.kind_of(mini_kg.id_of(t)) != KIND_PREDICATE


# -- evaluation -----------------------------------------------------------------


def small_store(tmp_path, text):
    path = tmp_path / "kg.tsv"
    path.write_text(text)
    return load_triples(path)


def test_simple_binding(tmp_path):
    kg = small_store(tmp_path, "a\tp\tb\nc\tp\tb\nb\tp\ta\n")
    sq = StructuredQuery(
        select_vars=["x"], patterns=[(Var("x"), "p", "b")], text=""
    )
    rows = evaluate_bgp(sq, kg)
    assert [kg.iri_of(r["x"]) for r in rows] == ["a", "c"]


def test_empty_join(tmp_path):
    kg = small_store(tmp_path, "a\tp\tb\nb\tq\tc\n")
    sq = StructuredQuery(
        select_vars=["x"],
        patterns=[(Var("x"), "p", "b"), (Var("x"), "q", "b")],
        text="",
    )
    assert evaluate_bgp(sq, kg) == []


def test_join_through_shared_variable(tmp_path):
    kg = small_store(tmp_path, "a\tp\tb\nb\tq\tc\nd\tp\tb\nb\tq\te\n")
    sq = StructuredQuery(
        select_vars=["x", "y"],
        patterns=[(Var("x"), "p", Var("z")), (Var("z"), "q", Var("y"))],
        text="",
    )
    rows = evaluate_bgp(sq, kg)
    got = {(kg.iri_of(r["x"]), kg.iri_of(r["y"])) for r in rows}
    assert got == {("a", "c"), ("a", "e"), ("d", "c"), ("d", "e")}


def test_repeated_variable_in_pattern(tmp_path):
    kg = small_store(tmp_path, "a\tp\ta\nb\tp\tc\n")
    sq = StructuredQuery(
        select_vars=["x"], patterns=[(Var("x"), "p", Var("x"))], text=""
    )
    rows = evaluate_bgp(sq, kg)
    assert [kg.iri_of(r["x"]) for r in rows] == ["a"]


def test_unknown_iri_errors(tmp_path):
    kg = small_store(tmp_path, "a\tp\tb\n")
    sq = StructuredQuery(
        select_vars=["x"], patterns=[(Var("x"), "nope", "b")], text=""
    )
    with pytest.raises(UnknownItemError):
        evaluate_bgp(sq, kg)


def test_unknown_iri_in_a_later_pattern_errors_after_an_empty_level(tmp_path):
    # the first pattern matches nothing, so the join stops after it; the
    # second pattern's IRI is resolved before the join all the same
    kg = small_store(tmp_path, "a\tp\tb\n")
    sq = StructuredQuery(
        select_vars=["x"], patterns=[(Var("x"), "p", "a"), (Var("x"), "nope", "b")], text=""
    )
    with pytest.raises(UnknownItemError):
        evaluate_bgp(sq, kg)


def test_a_selected_variable_no_pattern_names_is_rejected_before_any_join(monkeypatch, mini_kg):
    sq = StructuredQuery(select_vars=["x", "y"], patterns=[(Var("x"), "rdf:type", "dbo:Scientist")], text="")
    calls = []
    monkeypatch.setattr(KnowledgeGraph, "match_pattern", lambda self, *args: calls.append(args))
    with pytest.raises(ValueError, match=r"selected variable \?y appears in no pattern"):
        evaluate_bgp(sq, mini_kg)
    assert calls == []


def test_class_typed_join_plans_no_cross_product(monkeypatch, mini_kg):
    """Mini query q03.  The plan takes Princeton's alumni first (6 triples),
    filters them by the Scientist type, binds ?v2 through almaMater and
    only then filters by the University type: 22 lookups.  Joining in count
    order took the University type second, a cross product with the
    alumni, and made 115."""
    sq = StructuredQuery(
        select_vars=["v0", "v2"],
        patterns=[
            (Var("v0"), "rdf:type", "dbo:Scientist"),
            (Var("v2"), "rdf:type", "dbo:University"),
            (Var("v0"), "dbo:almaMater", Var("v2")),
            (Var("v0"), "dbo:almaMater", "res:Princeton_University"),
        ],
        text="",
    )
    calls = []
    real = KnowledgeGraph.match_pattern

    def spy(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(KnowledgeGraph, "match_pattern", spy)
    rows = evaluate_bgp(sq, mini_kg)
    assert len(calls) == 22
    monkeypatch.undo()
    assert rows == brute_force_bgp(sq, mini_kg)
    assert len(rows) == 9


def brute_force_bgp(sq, kg):
    names = sorted({t.name for pat in sq.patterns for t in pat if isinstance(t, Var)})
    domain = list(range(kg.num_items()))
    out = set()
    for combo in itertools.product(domain, repeat=len(names)):
        bind = dict(zip(names, combo))

        def val(t):
            return bind[t.name] if isinstance(t, Var) else kg.id_of(t)

        if all(kg.has_triple(val(s), val(p), val(o)) for s, p, o in sq.patterns):
            out.add(tuple(bind[v] for v in sq.select_vars))
    return [dict(zip(sq.select_vars, row)) for row in sorted(out)]


def test_random_bgps_match_exhaustive_assignment(tmp_path):
    rng = np.random.default_rng(15)
    names = [f"n{i}" for i in range(9)]
    preds = ["p", "q"]
    lines = set()
    while len(lines) < 40:
        s = names[rng.integers(0, len(names))]
        o = names[rng.integers(0, len(names))]
        p = preds[rng.integers(0, 2)]
        lines.add(f"{s}\t{p}\t{o}")
    kg = small_store(tmp_path, "\n".join(sorted(lines)) + "\n")

    vars_ = [Var("x"), Var("y"), Var("z")]
    for trial in range(25):
        patterns = []
        used = set()
        for _ in range(int(rng.integers(1, 4))):
            s = vars_[rng.integers(0, 3)] if rng.random() < 0.7 else names[rng.integers(0, len(names))]
            o = vars_[rng.integers(0, 3)] if rng.random() < 0.7 else names[rng.integers(0, len(names))]
            p = preds[rng.integers(0, 2)]
            patterns.append((s, p, o))
            for t in (s, o):
                if isinstance(t, Var):
                    used.add(t.name)
        if not used:
            continue
        sq = StructuredQuery(select_vars=sorted(used), patterns=patterns, text="")
        assert evaluate_bgp(sq, kg) == brute_force_bgp(sq, kg)


NODES = ("a", "b", "c", "d")
PREDICATES = ("p", "q")
VARS = (Var("x"), Var("y"), Var("z"))


@st.composite
def bgp_cases(draw):
    """A store of up to 10 triples over 4 nodes and 2 predicates, 1-5
    patterns with a variable or a stored constant in every position (the
    predicate included, repeats allowed), and a projection onto any subset
    of the variables: all, a strict subset, or none (an ASK).  With up to
    five patterns over three variables the join plan meets patterns that
    only filter and patterns that share no bound variable (cross products,
    joined last)."""
    triples = draw(
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(NODES)),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    nodes = sorted({t for s, _, o in triples for t in (s, o)})
    preds = sorted({p for _, p, _ in triples})
    node = st.sampled_from(VARS) | st.sampled_from(nodes)
    pattern = st.tuples(node, st.sampled_from(VARS) | st.sampled_from(preds), node)
    patterns = draw(st.lists(pattern, min_size=1, max_size=5))
    used = sorted({t.name for pat in patterns for t in pat if isinstance(t, Var)})
    select_vars = draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    return triples, patterns, select_vars


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bgp_cases())
def test_evaluator_matches_exhaustive_assignment(case):
    triples, patterns, select_vars = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "kg.tsv"
        path.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples))
        kg = load_triples(path)
    sq = StructuredQuery(select_vars=select_vars, patterns=patterns, text="", is_ask=not select_vars)
    assert evaluate_bgp(sq, kg) == brute_force_bgp(sq, kg)

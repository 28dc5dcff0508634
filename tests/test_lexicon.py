import itertools

import numpy as np
import pytest

from qga.errors import ParseError, ResourceLimitError
from qga.lexicon import (
    CandidateTerm,
    TermGraph,
    auto_surface,
    build_lexicon,
    build_term_graph,
    enumerate_maximal_cliques,
    generate_candidate_terms,
    rank_segmentations,
)


def term(start, end, character="entity", candidates=((0, 1.0),)):
    return CandidateTerm(start=start, end=end, character=character, candidates=tuple(candidates))


# -- lexicon construction ---------------------------------------------------


def test_auto_surface_splitting():
    assert auto_surface("dbo:deathDate") == "death date"
    assert auto_surface("res:United_States") == "united states"
    assert auto_surface("dbo:almaMater") == "alma mater"
    assert auto_surface("http://example.org/ns#homeTown") == "home town"
    assert auto_surface('"1954-06-07"^^xsd:date') == "1954-06-07"


def test_explicit_label_entry(tmp_path, mini_kg):
    labels = tmp_path / "labels.tsv"
    labels.write_text("dbo:almaMater\tgraduate from\n")
    lex = build_lexicon(mini_kg, labels, None)
    entries = lex.lookup("graduate from")
    assert [(mini_kg.iri_of(e.item), e.character) for e in entries] == [("dbo:almaMater", "relation")]


def test_auto_label_without_explicit_label(mini_kg):
    lex = build_lexicon(mini_kg)
    entries = lex.lookup("death date")
    assert len(entries) == 1 and mini_kg.iri_of(entries[0].item) == "dbo:deathDate"


def test_label_equal_to_auto_surface_gives_one_entry(tmp_path, mini_kg):
    labels = tmp_path / "labels.tsv"
    labels.write_text("dbo:deathDate\tDeath  Date\n")
    entries = build_lexicon(mini_kg, labels, None).lookup("death date")
    assert [(mini_kg.iri_of(e.item), e.character) for e in entries] == [("dbo:deathDate", "relation")]


def test_repeated_paraphrase_line_gives_one_entry(tmp_path, mini_kg):
    paraphrases = tmp_path / "paraphrases.tsv"
    paraphrases.write_text("studied at\tdbo:almaMater\nstudied at\tdbo:almaMater\n")
    entries = build_lexicon(mini_kg, None, paraphrases).lookup("studied at")
    assert [(mini_kg.iri_of(e.item), e.character) for e in entries] == [("dbo:almaMater", "relation")]


def test_label_unknown_iri_errors_with_line(tmp_path, mini_kg):
    labels = tmp_path / "labels.tsv"
    labels.write_text("# comment\ndbo:nonexistent\tghost\n")
    with pytest.raises(ParseError) as err:
        build_lexicon(mini_kg, labels, None)
    assert ":2:" in str(err.value)


def test_empty_paraphrase_file_keeps_auto_labels(tmp_path, mini_kg):
    para = tmp_path / "para.tsv"
    para.write_text("")
    lex = build_lexicon(mini_kg, None, para)
    assert lex.lookup("death date")
    assert lex.lookup("scientist")


def test_paraphrase_must_target_predicate(tmp_path, mini_kg):
    para = tmp_path / "para.tsv"
    para.write_text("someone\tres:Alan_Turing\n")
    with pytest.raises(ParseError):
        build_lexicon(mini_kg, None, para)


# -- candidate terms ----------------------------------------------------------


def test_usa_ambiguity(mini_kg, mini_lexicon):
    tokens = "scientist graduate from university locate USA".split()
    terms = generate_candidate_terms(tokens, mini_lexicon, k=10)
    usa = [t for t in terms if (t.start, t.end) == (5, 6) and t.character == "entity"]
    assert len(usa) == 1
    iris = {mini_kg.iri_of(item) for item, _ in usa[0].candidates}
    assert iris == {"res:USA_Today", "res:United_States"}


def test_class_match(mini_kg, mini_lexicon):
    terms = generate_candidate_terms(["scientist"], mini_lexicon, k=10)
    assert len(terms) == 1
    t = terms[0]
    assert t.character == "class"
    assert [mini_kg.iri_of(i) for i, _ in t.candidates] == ["dbo:Scientist"]


def test_no_matches_empty(mini_lexicon):
    assert generate_candidate_terms(["qwertyuiop"], mini_lexicon) == []
    assert generate_candidate_terms([], mini_lexicon) == []


def test_stopword_only_span_suppressed(mini_lexicon):
    terms = generate_candidate_terms(["from"], mini_lexicon)
    assert terms == []


def test_candidate_cap(mini_lexicon):
    tokens = "scientist graduate from university locate USA".split()
    for k in (1, 2, 10):
        for t in generate_candidate_terms(tokens, mini_lexicon, k=k):
            assert 1 <= len(t.candidates) <= k


def test_fuzzy_single_edit(mini_kg, mini_lexicon):
    exact = generate_candidate_terms(["scientsit"], mini_lexicon, fuzzy=False)
    assert exact == []
    fuzzy = generate_candidate_terms(["scientsit"], mini_lexicon, fuzzy=True)
    assert len(fuzzy) == 0  # two edits away, still rejected
    fuzzy = generate_candidate_terms(["scientis"], mini_lexicon, fuzzy=True)
    assert len(fuzzy) == 1
    assert fuzzy[0].match_score == pytest.approx(0.8)


# -- term graph and cliques ---------------------------------------------------


def test_overlapping_terms_not_adjacent():
    g = build_term_graph([term(3, 4), term(3, 6)])
    assert not g.adjacent(0, 1)


def test_disjoint_terms_adjacent():
    g = build_term_graph([term(0, 1), term(1, 2)])
    assert g.adjacent(0, 1)


def test_single_term_graph():
    g = build_term_graph([term(0, 1)])
    assert g.edges == set()
    assert enumerate_maximal_cliques(g) == [frozenset({0})]


def test_clique_examples():
    path = TermGraph(nodes=[None] * 3, edges={(0, 1), (1, 2)})
    assert enumerate_maximal_cliques(path) == [frozenset({0, 1}), frozenset({1, 2})]
    complete = TermGraph(nodes=[None] * 3, edges={(0, 1), (0, 2), (1, 2)})
    assert enumerate_maximal_cliques(complete) == [frozenset({0, 1, 2})]
    edgeless = TermGraph(nodes=[None] * 3, edges=set())
    assert enumerate_maximal_cliques(edgeless) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]


def test_node_cap(mini_lexicon):
    g = TermGraph(nodes=[None] * 5, edges=set())
    with pytest.raises(ResourceLimitError):
        enumerate_maximal_cliques(g, node_cap=4)


def brute_force_maximal_cliques(n, edges):
    adj = {(min(a, b), max(a, b)) for a, b in edges}

    def is_clique(nodes):
        return all((min(a, b), max(a, b)) in adj for a, b in itertools.combinations(nodes, 2))

    cliques = [set(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r) if is_clique(c)]
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(frozenset(c) for c in maximal)


def test_cliques_match_brute_force_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        g = TermGraph(nodes=[None] * n, edges=edges)
        got = sorted(enumerate_maximal_cliques(g), key=sorted)
        expect = sorted(brute_force_maximal_cliques(n, edges), key=sorted)
        assert got == expect


# -- segmentation ranking -----------------------------------------------------


def run_phase1(tokens, lexicon, top_n=5):
    cands = generate_candidate_terms(tokens, lexicon, k=10)
    g = build_term_graph(cands)
    cliques = enumerate_maximal_cliques(g)
    return rank_segmentations(cliques, cands, tokens, top_n=top_n)


def test_running_example_top_segmentation(mini_kg, mini_lexicon):
    tokens = "scientist graduate from university locate USA".split()
    aqs = run_phase1(tokens, mini_lexicon)
    assert aqs
    top = aqs[0]
    got = [((t.start, t.end), t.character) for t in top.terms]
    assert got == [
        ((0, 1), "class"),
        ((1, 3), "relation"),
        ((3, 4), "class"),
        ((4, 5), "relation"),
        ((5, 6), "entity"),
    ]
    assert top.n == 3 and top.m == 2


def test_single_candidate_single_aq(mini_lexicon):
    aqs = run_phase1(["scientist"], mini_lexicon)
    assert len(aqs) == 1
    assert len(aqs[0].terms) == 1


def test_coverage_dominates():
    cands = [
        term(0, 5, "entity"),  # covers 5 tokens
        term(0, 3, "entity"),  # covers 3 tokens
    ]
    tokens = ["t%d" % i for i in range(5)]
    g = build_term_graph(cands)
    cliques = enumerate_maximal_cliques(g)
    aqs = rank_segmentations(cliques, cands, tokens, top_n=1)
    assert len(aqs) == 1
    assert aqs[0].terms[0].span == (0, 5)


def test_spans_pairwise_disjoint(mini_lexicon):
    tokens = "scientist graduate from princeton university locate USA".split()
    for aq in run_phase1(tokens, mini_lexicon):
        for a, b in itertools.combinations(aq.terms, 2):
            assert not a.overlaps(b)


def test_ranking_deterministic(mini_lexicon):
    tokens = "scientist graduate from university locate USA".split()
    first = run_phase1(tokens, mini_lexicon)
    second = run_phase1(tokens, mini_lexicon)
    assert [
        [(t.span, t.character, t.candidates) for t in aq.terms] for aq in first
    ] == [[(t.span, t.character, t.candidates) for t in aq.terms] for aq in second]
    assert [aq.segmentation_score for aq in first] == [aq.segmentation_score for aq in second]

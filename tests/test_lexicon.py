import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qga.errors import ParseError, ResourceLimitError
from qga.lexicon import (
    CHAR_CLASS,
    CHAR_ENTITY,
    CHAR_RELATION,
    CHARACTERS,
    EXACT_SCORE,
    FUZZY_SCORE,
    STOPWORDS,
    CandidateTerm,
    Lexicon,
    TermGraph,
    _entries,
    _fuzzy_match,
    auto_surface,
    build_lexicon,
    build_term_graph,
    enumerate_maximal_cliques,
    generate_candidate_terms,
    normalize,
    rank_segmentations,
)
from qga.store import load_triples

from conftest import MINI


def term(start, end, character="entity", candidates=((0, 1.0),)):
    return CandidateTerm(start=start, end=end, character=character, candidates=tuple(candidates))


# -- lexicon construction ---------------------------------------------------


def test_auto_surface_splitting():
    assert auto_surface("dbo:deathDate") == "death date"
    assert auto_surface("res:United_States") == "united states"
    assert auto_surface("dbo:almaMater") == "alma mater"
    assert auto_surface("http://example.org/ns#homeTown") == "home town"
    assert auto_surface('"1954-06-07"^^xsd:date') == "1954-06-07"


def only_relation(kg, iri):
    """The ranking of a surface that names one predicate and nothing else."""
    return {CHAR_RELATION: ((kg.id_of(iri), EXACT_SCORE),)}


def test_explicit_label_entry(tmp_path, mini_kg):
    labels = tmp_path / "labels.tsv"
    labels.write_text("dbo:almaMater\tgraduate from\n")
    lex = build_lexicon(mini_kg, labels, None)
    assert lex.ranked("graduate from") == only_relation(mini_kg, "dbo:almaMater")


def test_auto_label_without_explicit_label(mini_kg):
    lex = build_lexicon(mini_kg)
    assert lex.ranked("death date") == only_relation(mini_kg, "dbo:deathDate")


def test_label_equal_to_auto_surface_gives_one_entry(tmp_path, mini_kg):
    labels = tmp_path / "labels.tsv"
    labels.write_text("dbo:deathDate\tDeath  Date\n")
    lex = build_lexicon(mini_kg, labels, None)
    assert lex.ranked("death date") == only_relation(mini_kg, "dbo:deathDate")


def test_repeated_paraphrase_line_gives_one_entry(tmp_path, mini_kg):
    paraphrases = tmp_path / "paraphrases.tsv"
    paraphrases.write_text("studied at\tdbo:almaMater\nstudied at\tdbo:almaMater\n")
    lex = build_lexicon(mini_kg, None, paraphrases)
    assert lex.ranked("studied at") == only_relation(mini_kg, "dbo:almaMater")


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
    assert lex.ranked("death date")
    assert lex.ranked("scientist")


def test_paraphrase_must_target_predicate(tmp_path, mini_kg):
    para = tmp_path / "para.tsv"
    para.write_text("someone\tres:Alan_Turing\n")
    with pytest.raises(ParseError):
        build_lexicon(mini_kg, None, para)


def test_repeated_entries_rank_once_in_id_order():
    pairs = [(5, "relation"), (9, "entity"), (2, "class"), (5, "entity"), (9, "entity"), (2, "class"), (3, "entity")]
    lex = Lexicon([("Common  Name", item, character) for item, character in pairs] + [("  ", 1, "entity")])
    ranked = lex.ranked("common name")
    assert ranked == {"entity": ((3, 1.0), (5, 1.0), (9, 1.0)), "class": ((2, 1.0),), "relation": ((5, 1.0),)}
    assert list(ranked) == list(CHARACTERS)
    assert len(lex) == 1
    assert lex.surfaces_with_word_count(2) == ["common name"]


def test_lexicon_retains_under_550_bytes_per_surface(tmp_path):
    # the fixture plus 100 x its size in junk 3-cycles, as the fuzzy
    # benchmark store is: about 10 000 one-word surfaces.  The bound holds
    # when a surface keeps its ranking and its word-count index slot only.
    kg_path = tmp_path / "kg.tsv"
    with open(kg_path, "w", encoding="utf-8") as fh:
        fh.write((MINI / "kg.tsv").read_text())
        for i in range(3400):
            a, b, c = (f"junkns:zzqx{3 * i + j}" for j in range(3))
            rel = f"junkns:zzrel{i % 7}"
            fh.write(f"{a}\t{rel}\t{b}\n{b}\t{rel}\t{c}\n{c}\t{rel}\t{a}\n")
    kg = load_triples(kg_path)
    tracemalloc.start()
    try:
        lex = build_lexicon(kg, MINI / "labels.tsv", MINI / "paraphrases.tsv")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(lex) > 10_000
    assert retained < 550 * len(lex), f"{retained} B for {len(lex)} surfaces"


# -- candidate terms ----------------------------------------------------------


def reference_candidate_terms(tokens, entries, k=10, fuzzy=False):
    """Candidate generation by record and sort, from the raw (surface,
    item, character) entries rather than a built lexicon: every entry of
    every matched surface is recorded with its score, an item keeps its
    best score, and each (span, character) bucket is sorted by (-score,
    item id) and cut to k.  The reference for ``generate_candidate_terms``."""
    if not tokens:
        return []
    by_surface = {}
    for surface, item, character in entries:
        by_surface.setdefault(normalize(surface), []).append((item, character))
    norm = [t.lower() for t in tokens]
    terms = []
    for start in range(len(norm)):
        for end in range(start + 1, len(norm) + 1):
            words = norm[start:end]
            if all(w in STOPWORDS for w in words):
                continue
            surface = normalize(" ".join(words))
            found = {}

            def record(pairs, score):
                for item, character in pairs:
                    bucket = found.setdefault(character, {})
                    if score > bucket.get(item, -1.0):
                        bucket[item] = score

            record(by_surface.get(surface, ()), EXACT_SCORE)
            if fuzzy:
                for cand_surface, pairs in by_surface.items():
                    if cand_surface != surface and _fuzzy_match(words, cand_surface):
                        record(pairs, FUZZY_SCORE)

            for character in (CHAR_ENTITY, CHAR_CLASS, CHAR_RELATION):
                bucket = found.get(character)
                if not bucket:
                    continue
                ranked = sorted(bucket.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
                terms.append(CandidateTerm(start=start, end=end, character=character, candidates=tuple(ranked)))
    return terms


# words one edit apart, so fuzzy surfaces match each other; "of" is a stopword
WORDS = ("alpha", "alphas", "alpa", "beta", "bet", "betas", "gamma", "of")


@st.composite
def lexicon_adds(draw):
    """(surface, item, character) adds over a few one- and two-word surfaces,
    each spelled in several ways that normalize alike (as a label equal to
    an auto-surface is); some adds are repeated."""
    phrases = st.lists(st.sampled_from(WORDS[:-1]), min_size=1, max_size=2)
    spellings = st.sampled_from((" ".join, "  ".join, lambda w: " ".join(w).upper()))
    adds = draw(
        st.lists(
            st.tuples(
                st.builds(lambda words, spell: spell(words), phrases, spellings),
                st.integers(0, 15),
                st.sampled_from(CHARACTERS),
            ),
            max_size=40,
        )
    )
    repeats = draw(st.lists(st.integers(0, max(len(adds) - 1, 0)), max_size=10)) if adds else []
    return adds + [adds[i] for i in repeats]


def one_surface(m, typos=0):
    """m items under "alpha", and ``typos`` lower ids under the fuzzy "alpa"."""
    return [("alpha", 100 + i, CHAR_ENTITY) for i in range(m)] + [("alpa", i, CHAR_ENTITY) for i in range(typos)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    adds=lexicon_adds(),
    tokens=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    k=st.integers(1, 6),
    fuzzy=st.booleans(),
)
@example(adds=one_surface(12, 3), tokens=["alpha"], k=5, fuzzy=True)  # M > k
@example(adds=one_surface(2, 6), tokens=["alpha"], k=5, fuzzy=True)  # M < k: fuzzy ids fill up
@example(adds=one_surface(2, 6), tokens=["alpha"], k=1, fuzzy=True)
@example(adds=one_surface(2, 6), tokens=["alpha"], k=5, fuzzy=False)
@example(adds=one_surface(2) + [("alpa", 100, CHAR_ENTITY)], tokens=["alpha"], k=5, fuzzy=True)  # exact wins
def test_candidate_terms_equal_the_record_and_sort_reference(adds, tokens, k, fuzzy):
    lex = Lexicon(adds)
    assert generate_candidate_terms(tokens, lex, k=k, fuzzy=fuzzy) == reference_candidate_terms(tokens, adds, k, fuzzy)


def test_mini_candidate_terms_equal_the_reference_with_labels_equal_to_auto_surfaces(tmp_path, mini_kg):
    labels = tmp_path / "labels.tsv"
    labels.write_text((MINI / "labels.tsv").read_text() + "dbo:deathDate\tDeath  Date\nres:Alan_Turing\talan turing\n")
    lex = build_lexicon(mini_kg, labels, MINI / "paraphrases.tsv")
    entries = list(_entries(mini_kg, labels, MINI / "paraphrases.tsv"))
    lines = (MINI / "queries.tsv").read_text().splitlines()
    queries = [line.split("\t")[1].split() for line in lines if line and not line.startswith("#")]
    assert len(queries) == 10
    for tokens in queries + [["scientis", "death", "dat"], ["alan", "turing"]]:
        for k in (1, 2, 10):
            for fuzzy in (False, True):
                assert generate_candidate_terms(tokens, lex, k=k, fuzzy=fuzzy) == reference_candidate_terms(
                    tokens, entries, k, fuzzy
                )


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
    for fuzzy in (False, True):
        with pytest.raises(ValueError, match="k must be >= 1"):
            generate_candidate_terms(tokens, mini_lexicon, k=0, fuzzy=fuzzy)


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

"""Seeded generators: determinism, id binding, typos, the ambiguous store.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import numpy as np
import pytest
from conftest import MINI

from perfbench import workloads
from perfbench.workloads import AMBIGUOUS_K, make_workload
from qga.embedding import load_table
from qga.lexicon import annotate, build_lexicon, generate_candidate_terms
from qga.store import load_triples


def _inputs(w):
    """Every generated byte and token a workload hands to the program."""
    files = {}
    for attr in ("kg_path", "labels_path", "paraphrase_path", "vectors_path"):
        path = getattr(w, attr)
        files[attr] = path.read_bytes() if path is not None else None
    return files, w.queries


def _first_round(w):
    order = w.rounds()
    return [next(order) for _ in range(len(w.queries))]


@pytest.mark.parametrize("name", ["fuzzy", "ambiguous"])
def test_same_seed_same_bytes_other_seed_other_queries(tmp_path, name):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = make_workload(name, 7, MINI, dirs[0])
    b = make_workload(name, 7, MINI, dirs[1])
    c = make_workload(name, 8, MINI, dirs[2])
    assert _inputs(a) == _inputs(b)
    assert a.queries != c.queries


def test_query_order_is_seeded():
    a = workloads.Workload("mini", 3, MINI / "kg.tsv", None, None, None, workloads.curated_queries(MINI), None)
    b = workloads.Workload("mini", 3, MINI / "kg.tsv", None, None, None, a.queries, None)
    c = workloads.Workload("mini", 4, MINI / "kg.tsv", None, None, None, a.queries, None)
    assert _first_round(a) == _first_round(b)
    assert sorted(_first_round(a)) == list(range(len(a.queries)))
    assert _first_round(a) != _first_round(c)


def test_inflated_store_keeps_mini_ids_so_mini_vectors_bind(tmp_path):
    w = make_workload("inflated", 1, MINI, tmp_path)
    mini, big = load_triples(MINI / "kg.tsv"), load_triples(w.kg_path)
    assert len(big.triples) >= workloads.INFLATED_FACTOR * len(mini.triples)
    assert big.items[: mini.num_items()] == mini.items
    table = load_table(w.vectors_path, big)
    assert table.has[: mini.num_items()].all()
    assert not table.has[mini.num_items() :].any()
    assert [q.tokens for q in w.queries] == [q.tokens for q in workloads.curated_queries(MINI)]


def _one_edit_apart(a: str, b: str) -> bool:
    """Levenshtein distance exactly 1 (substitution, insertion, deletion)."""
    if a == b or abs(len(a) - len(b)) > 1:
        return False
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) == 1
    short, long_ = sorted((a, b), key=len)
    return any(long_[:i] + long_[i + 1 :] == short for i in range(len(long_)))


@pytest.mark.parametrize("seed", range(5))
def test_each_typo_is_one_edit_in_one_content_word(seed):
    clean = workloads.curated_queries(MINI)
    typoed = workloads.typo_queries(clean, np.random.default_rng(seed))
    for c, t in zip(clean, typoed):
        assert c.gold == t.gold and len(c.tokens) == len(t.tokens)
        changed = [i for i, (x, y) in enumerate(zip(c.tokens, t.tokens)) if x != y]
        assert len(changed) == 1
        word = c.tokens[changed[0]]
        assert workloads.is_content_word(word)
        assert _one_edit_apart(word, t.tokens[changed[0]])


@pytest.fixture(scope="module")
def ambiguous(tmp_path_factory):
    w = make_workload("ambiguous", 5, MINI, tmp_path_factory.mktemp("ambiguous"))
    kg = load_triples(w.kg_path)
    return w, kg, build_lexicon(kg, w.labels_path, w.paraphrase_path)


def test_ambiguous_keywords_name_exactly_k_items(ambiguous):
    w, _, lex = ambiguous
    keywords = {t for q in w.queries for t in q.tokens}
    for word in keywords:
        terms = generate_candidate_terms([word], lex, k=w.config.k)
        assert len(terms) == 1
        assert len(terms[0].candidates) == AMBIGUOUS_K


def test_ambiguous_items_all_occur_in_triples(ambiguous):
    w, kg, _ = ambiguous
    in_triples = {x for t in kg.triples for x in t}
    assert in_triples == set(range(kg.num_items()))
    table = load_table(w.vectors_path, kg)
    assert table.has.all()
    labelled = {line.split("\t")[0] for line in w.labels_path.read_text().splitlines()}
    paraphrased = {line.split("\t")[1] for line in w.paraphrase_path.read_text().splitlines()}
    assert labelled | paraphrased <= set(kg.items)


def test_ambiguous_queries_have_one_segmentation_and_their_shape(ambiguous):
    w, kg, lex = ambiguous
    shapes = set()
    for q in w.queries:
        aqs = annotate(list(q.tokens), lex, k=w.config.k, top_n=w.config.top_n)
        assert len(aqs) == 1
        aq = aqs[0]
        classes = sum(1 for t in aq.terms if t.character == "class")
        assert classes == 1
        shapes.add((aq.n, aq.m))
    assert shapes == set(workloads.AMBIGUOUS_SHAPES)

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qga.errors import KindConflictError, ParseError, UnknownItemError
from qga.pipeline import PipelineConfig, answer_keywords
from qga.store import _LITERAL_RE, KIND_CLASS, KIND_ENTITY, KIND_PREDICATE, WILDCARD, KnowledgeGraph, load_triples

from conftest import write_junk_store


def write(tmp_path, text, name="kg.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_counts(tmp_path):
    kg = load_triples(write(tmp_path, "a\trdf:type\tC\na\tp\tb\nb\tp\ta\n"))
    assert sorted(kg.iri_of(i) for i in kg.entities) == ["a", "b"]
    assert [kg.iri_of(i) for i in kg.classes] == ["C"]
    assert sorted(kg.iri_of(i) for i in kg.predicates) == ["p", "rdf:type"]
    assert len(kg.triples) == 3


def test_load_empty_file(tmp_path):
    kg = load_triples(write(tmp_path, ""))
    assert kg.num_items() == 0
    assert kg.triples == []
    assert kg.entities == [] and kg.classes == [] and kg.predicates == []


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(ParseError, match=r":2: expected 3 tab-separated fields, got 2$") as err:
        load_triples(write(tmp_path, "a\tp\tb\nx\ty\n"))
    assert err.value.line_no == 2


def test_comments_and_blanks_skipped(tmp_path):
    kg = load_triples(write(tmp_path, "# header\n\na\tp\tb\n"))
    assert len(kg.triples) == 1


def test_duplicates_deduplicated(tmp_path):
    kg = load_triples(write(tmp_path, "a\tp\tb\na\tp\tb\n"))
    assert len(kg.triples) == 1


def test_predicate_vertex_conflict(tmp_path):
    with pytest.raises(KindConflictError):
        load_triples(write(tmp_path, "a\tp\tb\np\tq\tc\n"))


def test_custom_type_predicate(tmp_path):
    kg = load_triples(write(tmp_path, "a\tisa\tC\n"), type_predicate="isa")
    assert [kg.iri_of(i) for i in kg.classes] == ["C"]


def test_literal_objects_become_entities_with_datatype_class(tmp_path):
    kg = load_triples(write(tmp_path, 'a\tdied\t"1954-06-07"^^xsd:date\n'))
    lit = kg.id_of('"1954-06-07"^^xsd:date')
    assert kg.kind_of(lit) == KIND_ENTITY
    dtype = kg.id_of("xsd:date")
    assert kg.kind_of(dtype) == KIND_CLASS
    # the datatype is interned right after its literal, so item ids are stable
    assert kg.items == ["a", "died", '"1954-06-07"^^xsd:date', "xsd:date"]


def test_has_triple_is_directed(tmp_path):
    kg = load_triples(write(tmp_path, "a\tp\tb\n"))
    a, p, b = kg.id_of("a"), kg.id_of("p"), kg.id_of("b")
    assert kg.has_triple(a, p, b)
    assert not kg.has_triple(b, p, a)


def test_has_triple_unknown_id(tmp_path):
    kg = load_triples(write(tmp_path, "a\tp\tb\n"))
    with pytest.raises(UnknownItemError):
        kg.has_triple(999, 0, 1)
    with pytest.raises(UnknownItemError):
        kg.count_pattern(999)
    for position in range(3):  # membership needs three ids, not a WILDCARD
        ids = [kg.id_of("a"), kg.id_of("p"), kg.id_of("b")]
        ids[position] = WILDCARD
        with pytest.raises(UnknownItemError):
            kg.has_triple(*ids)


def test_match_pattern_examples(tmp_path):
    kg = load_triples(write(tmp_path, "a\tp\tb\na\tq\tc\nb\tp\ta\n"))
    a = kg.id_of("a")
    got = list(kg.match_pattern(a, None, None))
    assert got == sorted(got)
    assert {(s, p, o) for s, p, o in got} == {
        (a, kg.id_of("p"), kg.id_of("b")),
        (a, kg.id_of("q"), kg.id_of("c")),
    }
    assert list(kg.match_pattern()) == kg.triples
    full = list(kg.match_pattern(a, kg.id_of("p"), kg.id_of("b")))
    assert len(full) == 1


@st.composite
def small_stores(draw):
    """A directly built store of up to 5 items and 15 triples, some
    repeated, given in shuffled order."""
    n = draw(st.integers(1, 5))
    ids = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(ids, ids, ids), max_size=12))
    if triples:
        triples += draw(st.lists(st.sampled_from(triples), max_size=3))
    kinds = draw(st.lists(st.sampled_from((KIND_ENTITY, KIND_CLASS, KIND_PREDICATE)), min_size=n, max_size=n))
    return KnowledgeGraph(items=[f"i{i}" for i in range(n)], kinds=kinds, triples=draw(st.permutations(triples)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kg=small_stores())
def test_match_pattern_agrees_with_has_triple_exhaustively(kg):
    # every read of each of the 8 shapes against a filter over the sorted
    # triples: a read yields in (s, p, o) order whatever order they came in
    ordered = sorted(kg.triples)
    for s, p, o in itertools.product(range(kg.num_items()), repeat=3):
        assert kg.has_triple(s, p, o) == ((s, p, o) in ordered)
        for bound in itertools.product((True, False), repeat=3):
            args = [x if b else WILDCARD for x, b in zip((s, p, o), bound)]
            expect = [t for t in ordered if all(a is WILDCARD or a == x for a, x in zip(args, t))]
            if all(bound):
                expect = expect[:1]  # a repeated triple matches once
            assert list(kg.match_pattern(*args)) == expect
            assert kg.count_pattern(*args) == len(expect)


@pytest.mark.parametrize("predict", [True, False])
def test_no_mini_query_reads_the_store_with_the_predicate_unbound(
    predict, monkeypatch, mini_kg, mini_lexicon, mini_table, mini_queries
):
    # the store indexes only the predicate-bound shapes because the query
    # path reads no others
    reads = []
    for name in ("match_pattern", "count_pattern", "has_triple"):

        def spy(self, s=WILDCARD, p=WILDCARD, o=WILDCARD, _name=name, _real=getattr(KnowledgeGraph, name)):
            reads.append((_name, (s, p, o)))
            return _real(self, s, p, o)

        monkeypatch.setattr(KnowledgeGraph, name, spy)
    for _qid, tokens in mini_queries:
        answer_keywords(tokens, mini_kg, mini_lexicon, mini_table, PipelineConfig(predict=predict))
    assert {"match_pattern", "count_pattern"} <= {name for name, _ in reads}
    assert [read for read in reads if read[1][1] is WILDCARD] == []


def test_store_retains_at_most_520_bytes_per_triple(tmp_path):
    # the lexicon memory test's 10 302-triple store: the three
    # predicate-bound indexes keep about 440 B per triple, where one index
    # per bound shape (six) would keep about 840
    kg = load_triples(write_junk_store(tmp_path / "kg.tsv"))
    tracemalloc.start()
    try:
        built = KnowledgeGraph(kg.type_predicate, kg.items, kg.kinds, kg.triples)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built.triples) == 10_302
    assert retained <= 520 * len(built.triples), f"{retained} B retained for {len(built.triples)} triples"


def test_round_trip_and_catalog_partition(tmp_path):
    text = "a\tp\tb\nb\tp\tc\na\trdf:type\tT\nc\tq\ta\n"
    kg = load_triples(write(tmp_path, text))
    loaded = set(kg.triples)
    for s, p, o in itertools.product(range(kg.num_items()), repeat=3):
        assert kg.has_triple(s, p, o) == ((s, p, o) in loaded)
    ent, cls, pred = set(kg.entities), set(kg.classes), set(kg.predicates)
    assert ent | cls | pred == set(range(kg.num_items()))
    assert not (ent & cls) and not (ent & pred) and not (cls & pred)
    for kind in (KIND_ENTITY, KIND_CLASS, KIND_PREDICATE):
        expect = [i for i, k in enumerate(kg.kinds) if k == kind]
        got = kg.catalog(kind)
        assert got == expect
        got.clear()  # the caller's copy, not the store's index
        assert kg.catalog(kind) == expect


def test_directly_built_repeated_triple_matches_once():
    kinds = [KIND_ENTITY, KIND_PREDICATE, KIND_ENTITY]
    kg = KnowledgeGraph(items=["a", "p", "b"], kinds=kinds, triples=[(0, 1, 2), (0, 1, 2)])
    assert list(kg.match_pattern(0, 1, 2)) == [(0, 1, 2)]
    assert kg.count_pattern(0, 1, 2) == 1
    assert kg.has_triple(0, 1, 2) and not kg.has_triple(2, 1, 0)


def test_partial_binding_indexes(tmp_path):
    kg = load_triples(write(tmp_path, "a\tp\tb\nc\tp\tb\na\tq\tb\n"))
    p, b = kg.id_of("p"), kg.id_of("b")
    assert len(list(kg.match_pattern(None, p, b))) == 2
    assert len(list(kg.match_pattern(None, None, b))) == 3
    assert len(list(kg.match_pattern(kg.id_of("a"), None, b))) == 2


def test_blank_field_is_an_empty_field_error(tmp_path):
    with pytest.raises(ParseError, match=r":2: empty field$") as err:
        load_triples(write(tmp_path, "a\tp\tb\na\t \tb\n"))
    assert err.value.line_no == 2


# -- the one-pass loader against a two-pass reference --------------------------


def two_pass_load(path, type_predicate):
    """Reference loader: read every line, then classify all names, check
    for kind clashes, and intern and deduplicate in a second pass."""
    raw = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(path, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
            s, p, o = (f.strip() for f in fields)
            if not s or not p or not o:
                raise ParseError(path, line_no, "empty field")
            raw.append((s, p, o))

    predicates = {p for _, p, _ in raw}
    classes = {o for _, p, o in raw if p == type_predicate}
    for _, _, o in raw:
        m = _LITERAL_RE.match(o)
        if m and m.group("dtype"):
            classes.add(m.group("dtype"))
    clash = predicates & ({s for s, _, _ in raw} | {o for _, _, o in raw} | classes)
    if clash:
        raise KindConflictError(f"item used both as predicate and as vertex: {sorted(clash)[0]!r}")

    items, kinds, id_of = [], [], {}

    def intern(name, kind):
        if name not in id_of:
            id_of[name] = len(items)
            items.append(name)
            kinds.append(kind)
        return id_of[name]

    def vertex_kind(name):
        return KIND_CLASS if name in classes else KIND_ENTITY

    triples = []
    for s, p, o in raw:
        t = (intern(s, vertex_kind(s)), intern(p, KIND_PREDICATE), intern(o, vertex_kind(o)))
        if t not in triples:
            triples.append(t)
        m = _LITERAL_RE.match(o)
        if m and m.group("dtype"):
            intern(m.group("dtype"), KIND_CLASS)
    return items, kinds, sorted(triples)


# vertex names include literals with and without a datatype and a datatype
# also used as a subject; a predicate name in a vertex position, or a
# predicate as a datatype ('"z"^^q'), is a kind clash
VERTICES = ["a", " b ", "C", "xsd:int", '"x"', '"1"^^xsd:int', '"y"^^C', '"z"^^q', "p"]
PREDICATES = ["p", "q", "rdf:type", "isa"]
TRIPLE = st.tuples(st.sampled_from(VERTICES), st.sampled_from(PREDICATES), st.sampled_from(VERTICES))
FILLER = st.sampled_from(["", "   ", "# comment", "  #\ta\tp\tb", "\t\t"])
RAGGED = st.lists(st.sampled_from(["a", " a ", "p", "", "  "]), min_size=2, max_size=4)  # wrong width or a blank field
LINE = st.integers(0, 9).flatmap(
    lambda i: TRIPLE.map("\t".join) if i < 7 else FILLER if i < 9 else RAGGED.map("\t".join)
)


def outcome(load):
    try:
        return load()
    except (ParseError, KindConflictError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(LINE, max_size=8), type_predicate=st.sampled_from(["rdf:type", "isa"]))
def test_one_pass_load_equals_the_two_pass_reference(tmp_path_factory, lines, type_predicate):
    path = tmp_path_factory.mktemp("kg") / "kg.tsv"
    path.write_text("\n".join(lines) + "\n")

    def one_pass():
        kg = load_triples(path, type_predicate)
        return kg.items, kg.kinds, kg.triples

    assert outcome(one_pass) == outcome(lambda: two_pass_load(path, type_predicate))

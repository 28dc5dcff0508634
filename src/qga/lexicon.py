"""Phase-I: token segmentation and annotation.

Maps contiguous token subsequences to candidate graph items, builds the
candidate term graph (edge = spans share no token), enumerates its maximal
cliques, and ranks the resulting segmentations.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from importlib import resources

from .errors import ParseError, ResourceLimitError, UnknownItemError
from .store import KIND_CLASS, KIND_ENTITY, KIND_PREDICATE, KnowledgeGraph

CHAR_ENTITY = "entity"
CHAR_CLASS = "class"
CHAR_RELATION = "relation"

CHARACTERS = (CHAR_ENTITY, CHAR_CLASS, CHAR_RELATION)  # the order terms are emitted in

_KIND_TO_CHAR = {
    KIND_ENTITY: CHAR_ENTITY,
    KIND_CLASS: CHAR_CLASS,
    KIND_PREDICATE: CHAR_RELATION,
}

EXACT_SCORE = 1.0
FUZZY_SCORE = 0.8

DEFAULT_NODE_CAP = 64


def load_stopwords() -> frozenset[str]:
    text = resources.files("qga.data").joinpath("stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


STOPWORDS = load_stopwords()


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    item: int
    character: str


@dataclass(frozen=True)
class CandidateTerm:
    """One possible term: a token span, its character, and its candidates.

    ``candidates`` is a score-descending tuple of (item id, match score)
    pairs, capped at k.
    """

    start: int
    end: int
    character: str
    candidates: tuple[tuple[int, float], ...]

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def match_score(self) -> float:
        return self.candidates[0][1]

    def overlaps(self, other: "CandidateTerm") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class TermGraph:
    nodes: list[CandidateTerm]
    edges: set[tuple[int, int]]

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


@dataclass
class AnnotatedQuery:
    terms: list[CandidateTerm]
    segmentation_score: float

    @property
    def n(self) -> int:
        return sum(1 for t in self.terms if t.character in (CHAR_ENTITY, CHAR_CLASS))

    @property
    def m(self) -> int:
        return sum(1 for t in self.terms if t.character == CHAR_RELATION)


# -- lexicon construction ------------------------------------------------


def normalize(phrase: str) -> str:
    return " ".join(phrase.lower().split())


_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def auto_surface(iri: str) -> str:
    """Derive a searchable phrase from an IRI local name or literal."""
    lit = re.match(r'^"(?P<lex>.*)"(?:\^\^\S+)?$', iri)
    if lit:
        return normalize(lit.group("lex"))
    local = re.split(r"[/#:]", iri)[-1]
    local = local.replace("_", " ").replace("-", " ")
    local = _CAMEL_RE.sub(" ", local)
    return normalize(local)


def _read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
            yield line_no, fields[0].strip(), fields[1].strip()


class Lexicon:
    """surface phrase -> candidate graph items, plus a word-count index
    used by the bounded fuzzy matcher.  A surface lists each (item,
    character) once, in first-seen order; every entry is an exact match,
    the fuzzy discount is applied at lookup time by
    ``generate_candidate_terms``.

    ``ranked(surface)`` gives, per character, the surface's items in id
    order, each with ``EXACT_SCORE``: the exact candidates in rank order,
    so the top k are a slice.  ``build_lexicon`` ranks every surface, so
    set-up pays for it, not the first query; an add drops its surface's
    ranking, which the next read rebuilds."""

    def __init__(self):
        # per surface, an insertion-ordered set of (item, character): a
        # repeated add is a dict hit, not a scan
        self._by_surface: dict[str, dict[tuple[int, str], None]] = {}
        self._by_word_count: dict[int, list[str]] = {}
        self._ranked: dict[str, dict[str, tuple[tuple[int, float], ...]]] = {}

    def add(self, surface: str, item: int, character: str) -> None:
        surface = normalize(surface)
        if not surface:
            return
        entries = self._by_surface.get(surface)
        if entries is None:
            entries = {}
            self._by_surface[surface] = entries
            wc = len(surface.split())
            self._by_word_count.setdefault(wc, []).append(surface)
        entries[(item, character)] = None
        self._ranked.pop(surface, None)

    def lookup(self, surface: str) -> list[LexiconEntry]:
        return [LexiconEntry(surface, item, character) for item, character in self._by_surface.get(surface, ())]

    def ranked(self, surface: str) -> dict[str, tuple[tuple[int, float], ...]]:
        ranked = self._ranked.get(surface)
        if ranked is None:
            entries = self._by_surface.get(surface)
            if entries is None:
                return {}
            ranked = self._ranked[surface] = _rank(entries)
        return ranked

    def surfaces_with_word_count(self, wc: int) -> list[str]:
        return self._by_word_count.get(wc, [])

    def __contains__(self, surface: str) -> bool:
        return surface in self._by_surface

    def __len__(self) -> int:
        return len(self._by_surface)


def _rank(entries) -> dict[str, tuple[tuple[int, float], ...]]:
    """Per character, the (item, character) entries' items in id order,
    each with ``EXACT_SCORE``."""
    found: dict[str, list[tuple[int, float]]] = {}
    for item, character in entries:
        found.setdefault(character, []).append((item, EXACT_SCORE))
    ranked = {}
    for character in CHARACTERS:
        candidates = found.get(character)
        if candidates:
            candidates.sort()
            ranked[character] = tuple(candidates)
    return ranked


def build_lexicon(kg: KnowledgeGraph, labels_path=None, paraphrase_path=None) -> Lexicon:
    """Build the surface lexicon: auto-labels from IRI local names, explicit
    labels from ``labels_path``, relation paraphrases from ``paraphrase_path``.
    """
    lex = Lexicon()
    for item in range(kg.num_items()):
        character = _KIND_TO_CHAR[kg.kind_of(item)]
        lex.add(auto_surface(kg.iri_of(item)), item, character)

    if labels_path is not None:
        for line_no, iri, label in _read_tsv(labels_path):
            try:
                item = kg.id_of(iri)
            except UnknownItemError:
                raise ParseError(labels_path, line_no, f"label references unknown IRI {iri!r}")
            lex.add(label, item, _KIND_TO_CHAR[kg.kind_of(item)])

    if paraphrase_path is not None:
        for line_no, phrase, iri in _read_tsv(paraphrase_path):
            try:
                item = kg.id_of(iri)
            except UnknownItemError:
                raise ParseError(paraphrase_path, line_no, f"paraphrase references unknown IRI {iri!r}")
            if kg.kind_of(item) != KIND_PREDICATE:
                raise ParseError(paraphrase_path, line_no, f"paraphrase target {iri!r} is not a predicate")
            lex.add(phrase, item, CHAR_RELATION)

    lex._ranked = {surface: _rank(entries) for surface, entries in lex._by_surface.items()}
    return lex


# -- candidate term generation -------------------------------------------


def _edit_distance_leq1(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # one insertion turns a into b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def _fuzzy_match(words: list[str], surface: str) -> bool:
    sw = surface.split()
    if len(sw) != len(words):
        return False
    return all(_edit_distance_leq1(w, s) for w, s in zip(words, sw))


def generate_candidate_terms(
    tokens: list[str],
    lexicon: Lexicon,
    k: int = 10,
    fuzzy: bool = False,
) -> list[CandidateTerm]:
    """Emit a CandidateTerm for every (span, character) with lexicon matches.

    Every contiguous token subsequence is tried; spans made only of
    stopwords are suppressed.  Per (span, character) the top-k candidates
    are kept, score-descending with item id as the tie break: the exact
    matches first, then the fuzzy ones.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not tokens:
        return []
    norm = [t.lower() for t in tokens]
    content = [t not in STOPWORDS for t in norm]
    terms: list[CandidateTerm] = []
    for start in range(len(norm)):
        for end in range(start + 1, len(norm) + 1):
            if not any(content[start:end]):
                continue
            words = norm[start:end]
            surface = normalize(" ".join(words))
            exact = lexicon.ranked(surface)
            near = []
            if fuzzy:
                near = [
                    lexicon.ranked(cand_surface)
                    for cand_surface in lexicon.surfaces_with_word_count(len(words))
                    if cand_surface != surface and _fuzzy_match(words, cand_surface)
                ]
            # exact holds its characters in CHARACTERS order; fuzzy surfaces may add others
            for character in CHARACTERS if near else exact:
                candidates = exact.get(character, ())[:k]
                if near and len(candidates) < k:
                    candidates = _with_fuzzy(candidates, [r[character] for r in near if character in r], k)
                if candidates:
                    terms.append(CandidateTerm(start=start, end=end, character=character, candidates=candidates))
    return terms


def _with_fuzzy(exact, near, k):
    """Fill the exact candidates up to k with fuzzy ones: the ids of the
    ``near`` tuples, merged smallest first, each once and none exact, at
    ``FUZZY_SCORE``.  An item that is an exact match keeps its exact score."""
    kept = list(exact)
    seen = {item for item, _ in exact}
    for item, _ in heapq.merge(*near):
        if item not in seen:
            seen.add(item)
            kept.append((item, FUZZY_SCORE))
            if len(kept) == k:
                break
    return tuple(kept)


def build_term_graph(candidates: list[CandidateTerm]) -> TermGraph:
    """Edge between two terms iff their spans share no token."""
    edges = set()
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if not candidates[i].overlaps(candidates[j]):
                edges.add((i, j))
    return TermGraph(nodes=list(candidates), edges=edges)


def enumerate_maximal_cliques(graph: TermGraph, node_cap: int = DEFAULT_NODE_CAP) -> list[frozenset[int]]:
    """All maximal cliques of the term graph (Bron–Kerbosch with pivoting),
    returned in a deterministic order."""
    n = len(graph.nodes)
    if n > node_cap:
        raise ResourceLimitError(
            f"term graph has {n} nodes, cap is {node_cap}; "
            "tighten matching to reduce candidate terms"
        )
    neighbors = [set() for _ in range(n)]
    for i, j in graph.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)

    cliques: list[frozenset[int]] = []

    def expand(clique: list[int], cand: set[int], excluded: set[int]) -> None:
        if not cand and not excluded:
            cliques.append(frozenset(clique))
            return
        pivot = max(cand | excluded, key=lambda v: (len(cand & neighbors[v]), -v))
        for v in sorted(cand - neighbors[pivot]):
            expand(clique + [v], cand & neighbors[v], excluded & neighbors[v])
            cand = cand - {v}
            excluded = excluded | {v}

    if n:
        expand([], set(range(n)), set())
    return sorted(cliques, key=sorted)


def rank_segmentations(
    cliques: list[frozenset[int]],
    candidates: list[CandidateTerm],
    tokens: list[str],
    top_n: int = 5,
) -> list[AnnotatedQuery]:
    """Score every clique and return the top-N annotated queries.

    score = (covered non-stopword tokens / total non-stopword tokens)
          + mean(top candidate score of the chosen terms).
    Ties: more covered tokens, fewer terms, lexicographic span order.
    """
    norm = [t.lower() for t in tokens]
    content = [i for i, t in enumerate(norm) if t not in STOPWORDS]
    total_content = len(content)

    ranked: list[tuple[tuple, AnnotatedQuery]] = []
    for clique in cliques:
        terms = sorted((candidates[i] for i in clique), key=lambda t: (t.start, t.end, t.character))
        if not terms:
            continue
        covered = set()
        for t in terms:
            covered.update(range(t.start, t.end))
        covered_content = sum(1 for i in content if i in covered)
        coverage = covered_content / total_content if total_content else 0.0
        mean_match = sum(t.match_score for t in terms) / len(terms)
        score = coverage + mean_match
        aq = AnnotatedQuery(terms=terms, segmentation_score=score)
        key = (-score, -len(covered), len(terms), tuple(t.span for t in terms))
        ranked.append((key, aq))

    ranked.sort(key=lambda pair: pair[0])
    return [aq for _, aq in ranked[:top_n]]


def annotate(tokens, lexicon, k=10, top_n=5, fuzzy=False):
    """Convenience wrapper running the whole Phase-I chain."""
    candidates = generate_candidate_terms(tokens, lexicon, k=k, fuzzy=fuzzy)
    if not candidates:
        return []
    graph = build_term_graph(candidates)
    cliques = enumerate_maximal_cliques(graph)
    return rank_segmentations(cliques, candidates, tokens, top_n=top_n)

"""Seeded input generators for the four benchmark workloads.

Every workload is a deterministic function of ``(name, seed)``.  The
generators only write input files (triples, labels, paraphrases, vectors)
and token lists; the program under test sees nothing else.

* ``mini``      the curated fixture, its 10 queries in seeded order.
* ``inflated``  the fixture plus junk triples x1000 (store-size dependence).
* ``fuzzy``     the fixture plus junk x100, one seeded typo per query.
* ``ambiguous`` a generated store where every keyword names K items.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qga.embedding import EmbeddingTable, TrainConfig, save_table, train_transe
from qga.lexicon import STOPWORDS
from qga.pipeline import PipelineConfig
from qga.store import load_triples

INFLATED_FACTOR = 1000
FUZZY_FACTOR = 100
TYPO_MIN_LETTERS = 5

# the ambiguous store: K items behind every keyword
AMBIGUOUS_K = 10
AMBIGUOUS_DIM = 32
AMBIGUOUS_ENTITY_KEYWORDS = 12
AMBIGUOUS_CLASS_KEYWORDS = 4
AMBIGUOUS_RELATION_KEYWORDS = 8
AMBIGUOUS_TRIPLES_PER_PREDICATE = 2
# (vertex terms, relation terms); one vertex term of each query is a class
AMBIGUOUS_SHAPES = ((3, 2), (4, 3), (4, 2))
AMBIGUOUS_QUERIES_PER_SHAPE = 10

MINI_TRAIN = TrainConfig(dim=32, epochs=200, seed=0)


@dataclass(frozen=True)
class Query:
    qid: str
    tokens: tuple[str, ...]
    gold: frozenset[str] | None  # expected answer IRIs; None: checked by oracle


@dataclass
class Workload:
    """Generated inputs for one run.  ``vectors_path`` None means the
    vectors are trained on the store during set-up."""

    name: str
    seed: int
    kg_path: Path
    labels_path: Path | None
    paraphrase_path: Path | None
    vectors_path: Path | None
    queries: list[Query]
    config: PipelineConfig

    def rounds(self):
        """Endless query indices: each round is a seeded permutation of
        all queries, so every query runs equally often."""
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield from (int(i) for i in rng.permutation(len(self.queries)))


def _content_lines(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def curated_queries(mini_dir: Path) -> list[Query]:
    out = []
    for line in _content_lines(mini_dir / "queries.tsv"):
        qid, keywords = line.split("\t")
        gold = frozenset(g.strip() for g in _content_lines(mini_dir / "gold" / f"{qid}.txt"))
        out.append(Query(qid, tuple(keywords.split()), gold))
    return out


def write_inflated_store(mini_kg: Path, out: Path, factor: int) -> Path:
    """The fixture followed by ``factor`` x its size in junk 3-cycles.

    Junk items come after every fixture item, so fixture items keep their
    ids and a vector file trained on the fixture still binds.  Junk IRIs
    have auto-surfaces no query token matches.
    """
    text = mini_kg.read_text(encoding="utf-8")
    cycles = factor * len(_content_lines(mini_kg)) // 3
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
        for i in range(cycles):
            a, b, c = (f"junkns:zzqx{3 * i + j}" for j in range(3))
            rel = f"junkns:zzrel{i % 7}"
            fh.write(f"{a}\t{rel}\t{b}\n{b}\t{rel}\t{c}\n{c}\t{rel}\t{a}\n")
    return out


def typo(word: str, rng: np.random.Generator) -> str:
    """One substitution, deletion or insertion of a lowercase letter."""
    op = int(rng.integers(3))
    letters = string.ascii_lowercase
    if op == 0:
        pos = int(rng.integers(len(word)))
        choices = [c for c in letters if c != word[pos].lower()]
        return word[:pos] + choices[int(rng.integers(len(choices)))] + word[pos + 1 :]
    if op == 1:
        pos = int(rng.integers(len(word)))
        return word[:pos] + word[pos + 1 :]
    pos = int(rng.integers(len(word) + 1))
    return word[:pos] + letters[int(rng.integers(len(letters)))] + word[pos:]


def is_content_word(token: str) -> bool:
    return token.isalpha() and len(token) >= TYPO_MIN_LETTERS and token.lower() not in STOPWORDS


def typo_queries(queries: list[Query], rng: np.random.Generator) -> list[Query]:
    """Each query gets one typo in one content word; gold is unchanged."""
    out = []
    for q in queries:
        positions = [i for i, t in enumerate(q.tokens) if is_content_word(t)]
        pos = positions[int(rng.integers(len(positions)))]
        tokens = list(q.tokens)
        tokens[pos] = typo(tokens[pos], rng)
        out.append(Query(q.qid, tuple(tokens), q.gold))
    return out


def _pseudo_words(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct three-syllable letter words that are neither stopwords nor
    the auto-surface of any generated IRI (those all contain digits)."""
    consonants, vowels = "bdfgklmnprstvz", "aeiou"
    words: list[str] = []
    seen = set(STOPWORDS) | {"type"}
    while len(words) < count:
        w = "".join(
            consonants[int(rng.integers(len(consonants)))] + vowels[int(rng.integers(len(vowels)))]
            for _ in range(3)
        )
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def write_ambiguous(out_dir: Path, rng: np.random.Generator):
    """Write the ambiguous store, its labels, paraphrases and random unit
    vectors; return (kg, labels, paraphrases, vectors, queries).

    Entity keyword i labels entities ``amb:e{i}_{r}``, class keyword i labels
    classes ``amb:C{i}_{r}`` and relation keyword i paraphrases predicates
    ``amb:p{i}_{r}``, r < K.  Every item occurs in a triple: entities are
    typed round-robin over a shuffled class list, and every predicate links
    ``AMBIGUOUS_TRIPLES_PER_PREDICATE`` random entity pairs.
    """
    k = AMBIGUOUS_K
    words = _pseudo_words(
        rng, AMBIGUOUS_ENTITY_KEYWORDS + AMBIGUOUS_CLASS_KEYWORDS + AMBIGUOUS_RELATION_KEYWORDS
    )
    ent_kw = words[:AMBIGUOUS_ENTITY_KEYWORDS]
    cls_kw = words[AMBIGUOUS_ENTITY_KEYWORDS : AMBIGUOUS_ENTITY_KEYWORDS + AMBIGUOUS_CLASS_KEYWORDS]
    rel_kw = words[AMBIGUOUS_ENTITY_KEYWORDS + AMBIGUOUS_CLASS_KEYWORDS :]
    entities = [f"amb:e{i}_{r}" for i in range(len(ent_kw)) for r in range(k)]
    classes = [f"amb:C{i}_{r}" for i in range(len(cls_kw)) for r in range(k)]
    predicates = [f"amb:p{i}_{r}" for i in range(len(rel_kw)) for r in range(k)]

    triples = []
    shuffled_classes = [classes[int(i)] for i in rng.permutation(len(classes))]
    for idx, e in enumerate(entities[int(i)] for i in rng.permutation(len(entities))):
        triples.append((e, "rdf:type", shuffled_classes[idx % len(classes)]))
    for p in predicates:
        for _ in range(AMBIGUOUS_TRIPLES_PER_PREDICATE):
            s, o = rng.choice(len(entities), size=2, replace=False)
            triples.append((entities[int(s)], p, entities[int(o)]))

    kg_path = out_dir / "ambiguous_kg.tsv"
    kg_path.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples), encoding="utf-8")
    labels_path = out_dir / "ambiguous_labels.tsv"
    labels_path.write_text(
        "".join(
            f"amb:{kind}{i}_{r}\t{w}\n"
            for kind, kws in (("e", ent_kw), ("C", cls_kw))
            for i, w in enumerate(kws)
            for r in range(k)
        ),
        encoding="utf-8",
    )
    para_path = out_dir / "ambiguous_paraphrases.tsv"
    para_path.write_text(
        "".join(f"{w}\tamb:p{i}_{r}\n" for i, w in enumerate(rel_kw) for r in range(k)),
        encoding="utf-8",
    )

    items = entities + classes + predicates + ["rdf:type"]
    vectors = rng.normal(size=(len(items), AMBIGUOUS_DIM))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vec_path = out_dir / "ambiguous.vec"
    save_table(
        EmbeddingTable(
            dim=AMBIGUOUS_DIM, vectors=vectors, has=np.ones(len(items), dtype=bool), items=items
        ),
        vec_path,
    )

    queries = []
    for n, m in AMBIGUOUS_SHAPES:
        for j in range(AMBIGUOUS_QUERIES_PER_SHAPE):
            tokens = [cls_kw[int(rng.integers(len(cls_kw)))]]
            tokens += [ent_kw[int(i)] for i in rng.choice(len(ent_kw), size=n - 1, replace=False)]
            tokens += [rel_kw[int(i)] for i in rng.choice(len(rel_kw), size=m, replace=False)]
            tokens = [tokens[int(i)] for i in rng.permutation(len(tokens))]
            queries.append(Query(f"n{n}m{m}-{j:02d}", tuple(tokens), None))
    return kg_path, labels_path, para_path, vec_path, queries


def write_mini_vectors(mini_dir: Path, out: Path) -> Path:
    """Vectors trained on the fixture, as in the test suite's fixtures."""
    save_table(train_transe(load_triples(mini_dir / "kg.tsv"), MINI_TRAIN), out)
    return out


def make_workload(name: str, seed: int, mini_dir: Path, work_dir: Path) -> Workload:
    """Generate every input file of one workload under ``work_dir``."""
    rng = np.random.default_rng([seed, 0])
    labels, paraphrases = mini_dir / "labels.tsv", mini_dir / "paraphrases.tsv"
    curated = curated_queries(mini_dir)
    if name == "mini":
        return Workload(name, seed, mini_dir / "kg.tsv", labels, paraphrases, None, curated, PipelineConfig())
    if name in ("inflated", "fuzzy"):
        factor = INFLATED_FACTOR if name == "inflated" else FUZZY_FACTOR
        kg = write_inflated_store(mini_dir / "kg.tsv", work_dir / f"{name}_kg.tsv", factor)
        vectors = write_mini_vectors(mini_dir, work_dir / "mini.vec")
        if name == "inflated":
            return Workload(name, seed, kg, labels, paraphrases, vectors, curated, PipelineConfig())
        return Workload(
            name, seed, kg, labels, paraphrases, vectors, typo_queries(curated, rng), PipelineConfig(fuzzy=True)
        )
    if name == "ambiguous":
        kg, labels, paraphrases, vectors, queries = write_ambiguous(work_dir, rng)
        return Workload(name, seed, kg, labels, paraphrases, vectors, queries, PipelineConfig(k=AMBIGUOUS_K))
    raise ValueError(f"unknown workload {name!r}")

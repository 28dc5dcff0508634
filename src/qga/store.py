"""Dictionary-encoded in-memory triple store.

Items (IRIs and literals) are interned to dense integer ids in order of first
appearance.  Every id has exactly one kind: entity, class, or predicate.
Objects of the configured type predicate become classes, predicates become
predicates, everything else is an entity.  Literal objects are interned like
entities; their datatype (the part after ``^^``) is interned as a class.

``load_triples`` reads the file in one pass through ``read_tsv``, the one
tab-separated reader, which the lexicon's label and paraphrase files share.

Construction indexes the ids by kind and the triples by the three shapes that
bind the predicate, so a catalog read or a predicate-bound pattern read is one
lookup.  A read that binds a subject or an object but not the predicate scans
``triples``.  No keyword query makes one: every pattern that
``sparql.emit_sparql`` writes names its predicate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import KindConflictError, ParseError, UnknownItemError

KIND_ENTITY = 0
KIND_CLASS = 1
KIND_PREDICATE = 2

DEFAULT_TYPE_PREDICATE = "rdf:type"

_LITERAL_RE = re.compile(r'^"(?P<lex>.*)"(?:\^\^(?P<dtype>\S+))?$')

WILDCARD = None


@dataclass
class KnowledgeGraph:
    """Immutable after load; all reads are thread-safe."""

    type_predicate: str = DEFAULT_TYPE_PREDICATE
    items: list[str] = field(default_factory=list)
    kinds: list[int] = field(default_factory=list)
    triples: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self):
        self._id_of: dict[str, int] = {s: i for i, s in enumerate(self.items)}
        self._by_kind: dict[int, list[int]] = {}
        for i, k in enumerate(self.kinds):
            self._by_kind.setdefault(k, []).append(i)
        self._by_p: dict[int, list] = {}
        self._by_sp: dict[tuple[int, int], list] = {}
        self._by_po: dict[tuple[int, int], list] = {}
        for t in self.triples:
            s, p, o = t
            self._by_p.setdefault(p, []).append(t)
            self._by_sp.setdefault((s, p), []).append(t)
            self._by_po.setdefault((p, o), []).append(t)

    # -- catalog access -------------------------------------------------

    def id_of(self, iri: str) -> int:
        try:
            return self._id_of[iri]
        except KeyError:
            raise UnknownItemError(f"unknown item: {iri!r}")

    def iri_of(self, item: int) -> str:
        self._check_id(item)
        return self.items[item]

    def kind_of(self, item: int) -> int:
        self._check_id(item)
        return self.kinds[item]

    def catalog(self, kind: int) -> list[int]:
        return list(self._by_kind.get(kind, ()))

    @property
    def entities(self) -> list[int]:
        return self.catalog(KIND_ENTITY)

    @property
    def classes(self) -> list[int]:
        return self.catalog(KIND_CLASS)

    @property
    def predicates(self) -> list[int]:
        return self.catalog(KIND_PREDICATE)

    @property
    def vertices(self) -> list[int]:
        """Entity and class ids, i.e. everything a variable may bind to."""
        return [i for i, k in enumerate(self.kinds) if k != KIND_PREDICATE]

    def num_items(self) -> int:
        return len(self.items)

    def _check_id(self, item) -> None:
        if not isinstance(item, int) or not 0 <= item < len(self.items):
            raise UnknownItemError(f"unknown item id: {item!r}")

    # -- triple access ---------------------------------------------------

    def has_triple(self, s: int, p: int, o: int) -> bool:
        for x in (s, p, o):
            self._check_id(x)  # rejects WILDCARD: membership needs three ids
        return bool(self._lookup(s, p, o))

    def match_pattern(self, s=WILDCARD, p=WILDCARD, o=WILDCARD):
        """Yield triples matching the bound positions, in sorted (s,p,o) order."""
        yield from self._lookup(s, p, o)

    def count_pattern(self, s=WILDCARD, p=WILDCARD, o=WILDCARD) -> int:
        return len(self._lookup(s, p, o))

    def _lookup(self, s, p, o) -> list:
        """The stored triples matching the bound (non-WILDCARD) positions."""
        for x in (s, p, o):
            if x is not WILDCARD:
                self._check_id(x)
        if p is WILDCARD:
            if s is WILDCARD and o is WILDCARD:
                return self.triples
            return [t for t in self.triples if (s is WILDCARD or t[0] == s) and (o is WILDCARD or t[2] == o)]
        if s is not WILDCARD:
            pool = self._by_sp.get((s, p), [])
            if o is WILDCARD:
                return pool
            return [(s, p, o)] if (s, p, o) in pool else []  # a repeated triple matches once
        return self._by_p.get(p, []) if o is WILDCARD else self._by_po.get((p, o), [])


def read_tsv(path, width: int):
    """Yield ``(line_no, fields)`` for each data line of a tab-separated file.

    Blank lines and lines starting with ``#`` are skipped; each field is
    stripped; a line without exactly ``width`` fields raises ParseError.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(path, line_no, f"expected {width} tab-separated fields, got {len(fields)}")
            yield line_no, [f.strip() for f in fields]


def load_triples(path, type_predicate: str = DEFAULT_TYPE_PREDICATE) -> KnowledgeGraph:
    """Load a tab-separated triple file into a fully indexed store, in one pass.

    Lines are ``subject<TAB>predicate<TAB>object``; blank lines and lines
    starting with ``#`` are skipped.  Duplicate triples are dropped.  Names
    are interned as read (subject, predicate, object, then a literal's
    datatype); kinds are assigned once the file is read, because a name's
    kind can depend on a later line.
    """
    id_of: dict[str, int] = {}
    predicates: set[int] = set()
    vertices: set[int] = set()
    classes: set[int] = set()
    triples: set[tuple[int, int, int]] = set()
    for line_no, (s, p, o) in read_tsv(path, 3):
        if not s or not p or not o:
            raise ParseError(path, line_no, "empty field")
        si = id_of.setdefault(s, len(id_of))
        pi = id_of.setdefault(p, len(id_of))
        oi = id_of.setdefault(o, len(id_of))
        triples.add((si, pi, oi))
        predicates.add(pi)
        vertices.add(si)
        vertices.add(oi)
        if p == type_predicate:
            classes.add(oi)
        lit = _LITERAL_RE.match(o)
        if lit and lit.group("dtype"):
            classes.add(id_of.setdefault(lit.group("dtype"), len(id_of)))

    items = list(id_of)
    clash = predicates & (vertices | classes)
    if clash:
        name = min(items[i] for i in clash)
        raise KindConflictError(f"item used both as predicate and as vertex: {name!r}")
    kinds = [
        KIND_PREDICATE if i in predicates else KIND_CLASS if i in classes else KIND_ENTITY for i in range(len(items))
    ]
    return KnowledgeGraph(type_predicate=type_predicate, items=items, kinds=kinds, triples=sorted(triples))

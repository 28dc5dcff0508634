"""Structured query emission and a minimal basic-graph-pattern evaluator."""

from __future__ import annotations

from dataclasses import dataclass

from .assembler import FREE_VAR, QueryGraph
from .embedding import DIR_FORWARD
from .store import KIND_CLASS, KnowledgeGraph, WILDCARD


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return "?" + self.name


@dataclass
class StructuredQuery:
    select_vars: list[str]
    patterns: list[tuple]  # (subject, predicate, object), each Var or IRI string
    text: str
    is_ask: bool = False
    entity_answer: str | None = None


def emit_sparql(q: QueryGraph, kg: KnowledgeGraph) -> StructuredQuery:
    """Serialize a query graph.

    Class vertices become typed variables (``?v<i>`` plus a type pattern),
    entity vertices become their IRIs, free variables stay untyped; each
    edge becomes one pattern in its stored direction, predicted ones marked
    with a trailing ``# predicted`` comment.  A single fixed entity with no
    edges degenerates to an ASK with the entity named in a comment.
    """
    if not q.vertices:
        raise ValueError("empty query graph")
    terms: list = []
    rows: list[tuple[tuple, bool]] = []  # (pattern, predicted)
    select_vars: list[str] = []
    for i, item in enumerate(q.vertices):
        is_class = item != FREE_VAR and kg.kind_of(item) == KIND_CLASS
        term = Var(f"v{i}") if item == FREE_VAR or is_class else kg.iri_of(item)
        terms.append(term)
        if isinstance(term, Var):
            select_vars.append(term.name)
        if is_class:
            rows.append(((term, kg.type_predicate, kg.iri_of(item)), False))

    for e in q.all_edges:
        s_term, o_term = terms[e.set1], terms[e.set2]
        if e.direction != DIR_FORWARD:
            s_term, o_term = o_term, s_term
        rows.append(((s_term, kg.iri_of(e.predicate), o_term), e.predicted))

    is_ask = not select_vars
    entity_answer = kg.iri_of(q.vertices[0]) if is_ask and not rows else None
    if not is_ask:
        head = "SELECT " + " ".join("?" + v for v in select_vars) + " WHERE {"
    elif entity_answer is not None:
        head = "ASK {  # entity: %s" % entity_answer
    else:
        head = "ASK {"
    body = [
        "  %s %s %s ." % tuple(map(str, pat)) + ("  # predicted" if predicted else "")
        for pat, predicted in rows
    ]
    return StructuredQuery(
        select_vars=select_vars,
        patterns=[pat for pat, _ in rows],
        text="\n".join([head, *body, "}"]) + "\n",
        is_ask=is_ask,
        entity_answer=entity_answer,
    )


def evaluate_bgp(sq: StructuredQuery, kg: KnowledgeGraph) -> list[dict[str, int]]:
    """All variable bindings satisfying every pattern, deterministically
    ordered.

    A breadth-first join, most selective pattern first (ties in pattern
    order): each pattern extends every binding found so far by the triples
    it matches, so the join holds one level of partial bindings instead of
    a recursion stack.  Rows are projected to ``select_vars``, deduplicated
    and sorted by bound ids.  A query with no projection (an ASK) gives one
    empty row when the pattern set is satisfiable, none otherwise.
    """
    # id_of raises UnknownItemError on an unknown IRI
    resolved = [tuple(t if isinstance(t, Var) else kg.id_of(t) for t in pat) for pat in sq.patterns]
    if not resolved:
        return [{}]

    def selectivity(pat):
        return kg.count_pattern(*(WILDCARD if isinstance(t, Var) else t for t in pat))

    bindings: list[dict[str, int]] = [{}]
    for pat in sorted(resolved, key=selectivity):
        extended = []
        for binding in bindings:
            args = [binding.get(t.name, WILDCARD) if isinstance(t, Var) else t for t in pat]
            for triple in kg.match_pattern(*args):
                new = dict(binding)
                # setdefault binds a new variable and checks a repeated one
                if all(new.setdefault(t.name, v) == v for t, v in zip(pat, triple) if isinstance(t, Var)):
                    extended.append(new)
        bindings = extended

    rows = {tuple(b[v] for v in sq.select_vars) for b in bindings}
    return [dict(zip(sq.select_vars, row)) for row in sorted(rows)]


def bindings_to_tsv(sq: StructuredQuery, bindings, kg: KnowledgeGraph) -> str:
    """Render bindings as TSV with a header of variable names."""
    if sq.is_ask:
        lines = ["ask", "true" if bindings else "false"]
        return "\n".join(lines) + "\n"
    lines = ["\t".join("?" + v for v in sq.select_vars)]
    for row in bindings:
        lines.append("\t".join(kg.iri_of(row[v]) for v in sq.select_vars))
    return "\n".join(lines) + "\n"

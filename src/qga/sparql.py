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
    patterns: list[tuple] = []
    flags: list[bool] = []
    select_vars: list[str] = []
    for i, item in enumerate(q.vertices):
        if item == FREE_VAR:
            v = Var(f"v{i}")
            terms.append(v)
            select_vars.append(v.name)
        elif kg.kind_of(item) == KIND_CLASS:
            v = Var(f"v{i}")
            terms.append(v)
            select_vars.append(v.name)
            patterns.append((v, kg.type_predicate, kg.iri_of(item)))
            flags.append(False)
        else:
            terms.append(kg.iri_of(item))

    for e in q.all_edges:
        s_term, o_term = terms[e.set1], terms[e.set2]
        if e.direction != DIR_FORWARD:
            s_term, o_term = o_term, s_term
        patterns.append((s_term, kg.iri_of(e.predicate), o_term))
        flags.append(e.predicted)

    lines = []
    body = []
    for pat, predicted in zip(patterns, flags):
        row = "  %s %s %s ." % tuple(str(t) for t in pat)
        if predicted:
            row += "  # predicted"
        body.append(row)

    entity_answer = None
    if select_vars:
        lines.append("SELECT " + " ".join("?" + v for v in select_vars) + " WHERE {")
        lines.extend(body)
        lines.append("}")
        is_ask = False
    else:
        if not patterns:
            entity_answer = kg.iri_of(q.vertices[0])
            lines.append("ASK {  # entity: %s" % entity_answer)
        else:
            lines.append("ASK {")
        lines.extend(body)
        lines.append("}")
        is_ask = True

    return StructuredQuery(
        select_vars=select_vars,
        patterns=patterns,
        text="\n".join(lines) + "\n",
        is_ask=is_ask,
        entity_answer=entity_answer,
    )


def _resolve(kg: KnowledgeGraph, term):
    if isinstance(term, Var):
        return term
    return kg.id_of(term)  # raises UnknownItemError on unknown IRIs


def evaluate_bgp(sq: StructuredQuery, kg: KnowledgeGraph) -> list[dict[str, int]]:
    """All variable bindings satisfying every pattern, deterministically
    ordered.

    Backtracking join, most selective pattern first.  Rows are projected to
    ``select_vars`` (full bindings for queries without a projection), sorted
    by bound ids.  For ASK queries the result is one empty row when the
    pattern set is satisfiable, none otherwise.
    """
    resolved = [tuple(_resolve(kg, t) for t in pat) for pat in sq.patterns]
    if not resolved:
        return [{}]

    def selectivity(pat):
        args = [t if not isinstance(t, Var) else WILDCARD for t in pat]
        return kg.count_pattern(*args)

    order = sorted(range(len(resolved)), key=lambda i: (selectivity(resolved[i]), i))
    ordered = [resolved[i] for i in order]

    rows: set[tuple] = set()
    binding: dict[str, int] = {}

    def match(pat):
        args = []
        for t in pat:
            if isinstance(t, Var):
                args.append(binding.get(t.name, WILDCARD))
            else:
                args.append(t)
        for s, p, o in kg.match_pattern(*args):
            got = {}
            ok = True
            for t, val in zip(pat, (s, p, o)):
                if isinstance(t, Var) and t.name not in binding:
                    if t.name in got and got[t.name] != val:
                        ok = False
                        break
                    got[t.name] = val
            if ok:
                yield got

    def walk(i):
        if i == len(ordered):
            if sq.select_vars:
                rows.add(tuple(binding[v] for v in sq.select_vars))
            else:
                rows.add(())
            return
        for got in match(ordered[i]):
            binding.update(got)
            walk(i + 1)
            for k in got:
                del binding[k]

    walk(0)
    if sq.select_vars:
        return [dict(zip(sq.select_vars, row)) for row in sorted(rows)]
    return [{} for _ in rows]


def bindings_to_tsv(sq: StructuredQuery, bindings, kg: KnowledgeGraph) -> str:
    """Render bindings as TSV with a header of variable names."""
    if sq.is_ask:
        lines = ["ask", "true" if bindings else "false"]
        return "\n".join(lines) + "\n"
    lines = ["\t".join("?" + v for v in sq.select_vars)]
    for row in bindings:
        lines.append("\t".join(kg.iri_of(row[v]) for v in sq.select_vars))
    return "\n".join(lines) + "\n"

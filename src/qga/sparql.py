"""Structured query emission and a minimal basic-graph-pattern evaluator."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

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
    entity_answer = kg.iri_of(q.vertices[0]) if is_ask and len(q.vertices) == 1 else None
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


def _picker(indices):
    """A function from a sequence to the tuple of its items at ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


def _step(pat, column: dict):
    """How the join reads and extends a row at pattern ``pat``, given the
    row position of every variable bound so far; ``column`` gains the
    pattern's new variables.

    Returns ``(consts, args, values, repeats)``: ``args(row + consts)`` gives
    the ``match_pattern`` arguments, ``values(triple)`` the values of the
    pattern's new variables, and ``repeats`` the position pairs of a new
    variable repeated inside the pattern, whose values must agree.
    """
    width = len(column)
    consts = tuple([t for t in pat if not isinstance(t, Var)]) + (WILDCARD,)
    source, new, repeats = [], [], []
    for pos, t in enumerate(pat):
        if not isinstance(t, Var):
            source.append(width + consts.index(t))
            continue
        at = column.setdefault(t.name, width + len(new))
        if at < width:
            source.append(at)
            continue
        source.append(width + len(consts) - 1)  # WILDCARD
        if at == width + len(new):
            new.append(pos)
        else:
            repeats.append((new[at - width], pos))
    return consts, itemgetter(*source), _picker(new), repeats


def _plan(patterns, kg, column: dict):
    """The join steps (see ``_step``), in join order.

    The most selective pattern (``count_pattern`` with variables as
    wildcards) goes first; then, at each step, a pattern whose variables are
    all bound, else one that shares a bound variable, else one that shares
    none, which makes a cross product and so goes last.  Ties go by
    selectivity, then pattern order.  Every row at one step binds the same
    variables, so the order depends on no row.  Steps are yielded one by
    one, so a join that stops early plans no further.
    """
    remaining = list(range(len(patterns)))
    if len(remaining) > 1:
        remaining.sort(key=lambda i: kg.count_pattern(*[WILDCARD if isinstance(t, Var) else t for t in patterns[i]]))
    yield _step(patterns[remaining.pop(0)], column)
    names = [{t.name for t in pat if isinstance(t, Var)} for pat in patterns]
    while remaining:
        # remaining is in (selectivity, pattern) order, so min keeps the first tie
        nxt = min(
            remaining,
            key=lambda i: 0 if column.keys() >= names[i] else 1 if not names[i].isdisjoint(column) else 2,
        )
        remaining.remove(nxt)
        yield _step(patterns[nxt], column)


def evaluate_bgp(sq: StructuredQuery, kg: KnowledgeGraph) -> list[dict[str, int]]:
    """All variable bindings satisfying every pattern, deterministically
    ordered.

    The join is planned once (``_plan``: most selective pattern first, then
    patterns that only filter, then ones that share a bound variable, cross
    products last) and then runs breadth first over tuple rows: each step
    extends every row by the values of the triples its pattern matches.
    ``match_pattern`` is called once per row per pattern, and the join stops
    at the first step that leaves no rows.  Rows are projected to
    ``select_vars``, deduplicated and sorted by bound ids.  A query with no
    projection (an ASK) gives one empty row when the pattern set is
    satisfiable, none otherwise.
    """
    # id_of raises UnknownItemError on an unknown IRI, before any join work
    resolved = [tuple([t if isinstance(t, Var) else kg.id_of(t) for t in pat]) for pat in sq.patterns]
    if not resolved:
        return [{}]

    column: dict[str, int] = {}  # variable name -> row position
    match = kg.match_pattern
    rows: list[tuple] = [()]
    for consts, args, values, repeats in _plan(resolved, kg, column):
        if repeats:
            rows = [
                row + values(t)
                for row in rows
                for t in match(*args(row + consts))
                if all(t[i] == t[j] for i, j in repeats)
            ]
        else:
            rows = [row + values(t) for row in rows for t in match(*args(row + consts))]
        if not rows:
            return []

    project = _picker([column[v] for v in sq.select_vars])
    return [dict(zip(sq.select_vars, row)) for row in sorted({project(row) for row in rows})]


def bindings_to_tsv(sq: StructuredQuery, bindings, kg: KnowledgeGraph) -> str:
    """Render bindings as TSV with a header of variable names."""
    if sq.is_ask:
        lines = ["ask", "true" if bindings else "false"]
        return "\n".join(lines) + "\n"
    lines = ["\t".join("?" + v for v in sq.select_vars)]
    for row in bindings:
        lines.append("\t".join(kg.iri_of(row[v]) for v in sq.select_vars))
    return "\n".join(lines) + "\n"

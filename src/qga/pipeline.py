"""End-to-end orchestration: keywords -> annotated queries -> assembly ->
prediction -> winner selection -> SPARQL -> answers."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import lexicon as lexicon_mod
from .assembler import (
    BOUND_NAMES,
    build_candidate_sets,
    build_condensed_graph,
    embedding_cost_source,
    solve_qga,
)
from .errors import InfeasibleAssemblyError, QgaError, UninterpretableQueryError, UnknownItemError
from .predictor import predict_missing_relations
from .sparql import emit_sparql, evaluate_bgp


@dataclass
class PipelineConfig:
    k: int = 10
    top_n: int = 5
    bound: str = "greedy"
    predict: bool = True
    fuzzy: bool = False

    def validate(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.bound not in BOUND_NAMES:
            raise ValueError(f"unknown bound {self.bound!r}, expected one of {BOUND_NAMES}")


@dataclass
class CandidateResult:
    """Diagnostics for one annotated query's assembly attempt."""

    aq: object
    sets: object = None
    query_graph: object = None
    stats: object = None
    normalized_cost: float = math.inf
    assembled_cost: float = math.inf
    predicted_cost: float = 0.0
    infeasible_reason: str | None = None


@dataclass
class PipelineResult:
    query_graph: object
    structured_query: object
    bindings: list
    winner_index: int
    candidates: list[CandidateResult]


def _normalized_cost(q) -> float:
    edge_count = len(q.edges) + len(q.predicted_edges)
    if edge_count == 0:
        return 0.0
    return (q.total_cost + q.predicted_cost) / edge_count


def _vectored_query(aq, tokens, table):
    """``aq`` without the candidates that have no vector, which no edge cost
    can score.  A term whose every candidate lacks a vector raises
    UnknownItemError naming the term."""
    vectored = table.has_vector([item for term in aq.terms for item in term.candidates])
    if vectored.all():
        return aq
    flags = iter(vectored.tolist())  # one flag per candidate, in term order
    terms = []
    for term in aq.terms:
        kept = tuple(c for c in term.candidates if next(flags))
        if not kept:
            words = " ".join(tokens[term.start : term.end])
            raise UnknownItemError(f"no candidate of {term.character} term {words!r} has a vector")
        terms.append(replace(term, candidates=kept))
    return replace(aq, terms=terms)


def answer_keywords(tokens, kg, lexicon, table, config: PipelineConfig | None = None) -> PipelineResult:
    """Interpret a keyword token list against the store and answer it.

    Produces the top-N annotated queries, assembles each, optionally
    predicts omitted relations, picks the winner by per-edge normalized
    cost (ties: higher segmentation score, then rank), and evaluates the
    emitted query.  Raises UninterpretableQueryError when Phase-I yields
    nothing and InfeasibleAssemblyError when every candidate fails, and
    ValueError, before any work, for an invalid ``config``.
    """
    config = config or PipelineConfig()
    config.validate()
    aqs = lexicon_mod.annotate(
        tokens, lexicon, k=config.k, top_n=config.top_n, fuzzy=config.fuzzy
    )
    if not aqs:
        raise UninterpretableQueryError(f"no interpretation for tokens {tokens!r}")

    # class membership is carried by the class vertices themselves, so the
    # type predicate is never a sensible implicit relation; the catalog's ids
    # index kg.items directly
    catalog, iris = kg.predicates, kg.items
    predictable = [p for p in catalog if iris[p] != kg.type_predicate] or catalog

    candidates: list[CandidateResult] = []
    for aq in aqs:
        cand = CandidateResult(aq=aq)
        candidates.append(cand)
        try:
            # edge costs need a vector for every candidate, but are computed
            # only between annotated vertices: with fewer than two, the
            # relations are wired to free variables, whose edges read none
            relations = sum(term.character == "relation" for term in aq.terms)
            costed = relations and len(aq.terms) - relations >= 2
            sets = build_candidate_sets(_vectored_query(aq, tokens, table) if costed else aq)
            cand.sets = sets
            graph = build_condensed_graph(sets, embedding_cost_source(table))
            q, stats = solve_qga(graph, bound=config.bound)
            cand.stats = stats
            if q is None:
                cand.infeasible_reason = "no conflict-free matching"
                continue
            if config.predict:
                q = predict_missing_relations(q, table, predictable)
            cand.query_graph = q
            cand.assembled_cost = q.total_cost
            cand.predicted_cost = q.predicted_cost
            cand.normalized_cost = _normalized_cost(q)
        except QgaError as exc:  # a rejected input, reported per candidate
            cand.infeasible_reason = f"{type(exc).__name__}: {exc}"

    viable = [(i, c) for i, c in enumerate(candidates) if c.query_graph is not None]
    if not viable:
        raise InfeasibleAssemblyError(
            [c.infeasible_reason or "unknown" for c in candidates]
        )
    winner_index, winner = min(
        viable, key=lambda ic: (ic[1].normalized_cost, -ic[1].aq.segmentation_score, ic[0])
    )
    sq = emit_sparql(winner.query_graph, kg)
    bindings = evaluate_bgp(sq, kg)
    return PipelineResult(
        query_graph=winner.query_graph,
        structured_query=sq,
        bindings=bindings,
        winner_index=winner_index,
        candidates=candidates,
    )

"""End-to-end orchestration: keywords -> annotated queries -> assembly ->
prediction -> winner selection -> SPARQL -> answers, plus the lower-bound
benchmark harness."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lexicon as lexicon_mod
from .assembler import (
    BOUND_NAMES,
    build_candidate_sets,
    build_condensed_graph,
    embedding_cost_source,
    solve_qga,
)
from .errors import InfeasibleAssemblyError, QgaError, UninterpretableQueryError, UnknownItemError
from .instances import build_random_graph
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
    vectored = table.has_vector([item for term in aq.terms for item, _ in term.candidates])
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


# -- lower-bound benchmark ----------------------------------------------------


@dataclass
class BenchRow:
    instance: int
    k: int
    n: int
    m: int
    bound: str
    cost: float
    states_pushed: int
    states_popped: int
    states_pruned: int
    bound_evaluations: int
    wall_seconds: float


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def mean_popped(self, k: int, bound: str) -> float:
        vals = [r.states_popped for r in self.rows if r.k == k and r.bound == bound]
        return sum(vals) / len(vals) if vals else math.nan

    def mean_wall(self, k: int, bound: str) -> float:
        vals = [r.wall_seconds for r in self.rows if r.k == k and r.bound == bound]
        return sum(vals) / len(vals) if vals else math.nan

    def k_values(self) -> list[int]:
        return sorted({r.k for r in self.rows})

    def deterministic_rows(self):
        """Rows minus wall clock, for reproducibility comparisons."""
        return [
            (r.instance, r.k, r.n, r.m, r.bound, round(r.cost, 12),
             r.states_pushed, r.states_popped, r.states_pruned, r.bound_evaluations)
            for r in self.rows
        ]

    def to_tsv(self) -> str:
        header = (
            "instance\tk\tn\tm\tbound\tcost\tstates_pushed\tstates_popped\tstates_pruned"
            "\tbound_evaluations\twall_seconds"
        )
        lines = [header]
        for r in self.rows:
            cost = "inf" if math.isinf(r.cost) else f"{r.cost:.6f}"
            lines.append(
                f"{r.instance}\t{r.k}\t{r.n}\t{r.m}\t{r.bound}\t{cost}"
                f"\t{r.states_pushed}\t{r.states_popped}\t{r.states_pruned}"
                f"\t{r.bound_evaluations}\t{r.wall_seconds:.6f}"
            )
        lines.append("")
        for k in self.k_values():
            for bound in BOUND_NAMES:
                lines.append(
                    f"# mean k={k} {bound}: popped={self.mean_popped(k, bound):.2f}"
                    f" wall={self.mean_wall(k, bound):.4f}s"
                )
        return "\n".join(lines) + "\n"


BENCH_N_RANGE = (3, 4)  # vertex sets per bench instance, inclusive
BENCH_M_RANGE = (2, 3)  # edge sets per bench instance, inclusive


def bench_instances(instance_count: int, k_values=(5, 10), seed: int = 7):
    """The random graphs ``bench_lower_bounds`` solves, as (k, index, graph);
    every set has exactly k candidates."""
    if instance_count < 1:
        raise ValueError("instance_count must be positive")
    for k in k_values:
        rng = np.random.default_rng(seed + k)
        for idx in range(instance_count):
            n = int(rng.integers(BENCH_N_RANGE[0], BENCH_N_RANGE[1] + 1))
            m = int(rng.integers(BENCH_M_RANGE[0], BENCH_M_RANGE[1] + 1))
            yield k, idx, build_random_graph(rng, n, m, k, exact_sizes=True)


def bench_lower_bounds(instance_count: int, k_values=(5, 10), seed: int = 7) -> BenchReport:
    """Run the solver under every bound on the same random instances.

    Optimal costs must agree across bounds on every instance; disagreement
    raises immediately since it means an optimality bug.
    """
    report = BenchReport()
    for k, idx, graph in bench_instances(instance_count, k_values, seed):
        costs = {}
        for bound in BOUND_NAMES:
            t0 = time.perf_counter()
            q, stats = solve_qga(graph, bound=bound)
            wall = time.perf_counter() - t0
            cost = q.total_cost if q is not None else math.inf
            costs[bound] = cost
            report.rows.append(
                BenchRow(
                    instance=idx,
                    k=k,
                    n=graph.sets.n,
                    m=graph.sets.m,
                    bound=bound,
                    cost=cost,
                    states_pushed=stats.states_pushed,
                    states_popped=stats.states_popped,
                    states_pruned=stats.states_pruned,
                    bound_evaluations=stats.bound_evaluations,
                    wall_seconds=wall,
                )
            )
        lo, hi = min(costs.values()), max(costs.values())
        if math.isinf(lo) != math.isinf(hi) or (
            math.isfinite(lo) and hi - lo > 1e-9 * max(1.0, abs(lo))
        ):
            raise AssertionError(
                f"optimal cost disagreement on instance {idx} (k={k}): {costs}"
            )
    return report

"""Answer correctness checks that feed ``failed``.

Workloads over the curated fixture compare answers with the gold sets in
``fixtures/mini/gold/``.  The ambiguous workload has no gold: the winner's
condensed graph is rebuilt from ``CandidateResult.sets`` and its assembled
cost compared with ``brute_force_oracle`` where the oracle's search space
fits ``ORACLE_CAP``, and with the optimum under every lower bound
elsewhere.  That reference check runs once per distinct query, outside the
timed loop; timed repeats must then reproduce the checked result exactly.
"""

from __future__ import annotations

import math

from qga.assembler import BOUND_NAMES, brute_force_oracle, build_condensed_graph, embedding_cost_source, solve_qga
from qga.errors import QgaError, ResourceLimitError

ORACLE_CAP = 400_000
COST_TOL = 1e-9


def answers_of(result, kg) -> frozenset[str]:
    sq = result.structured_query
    if sq.entity_answer is not None:
        return frozenset({sq.entity_answer})
    primary = sq.select_vars[0]
    return frozenset(kg.iri_of(row[primary]) for row in result.bindings)


def _same_cost(a: float, b: float) -> bool:
    return abs(a - b) <= COST_TOL * max(1.0, abs(a))


def winner_is_optimal(result, table, solved_with: str) -> str | None:
    """Recheck the winner's assembly, solved under bound ``solved_with``;
    returns the method that confirmed it ("oracle" or "bounds", the optimum
    under every other bound), or None when the check fails."""
    winner = result.candidates[result.winner_index]
    graph = build_condensed_graph(winner.sets, embedding_cost_source(table))
    try:
        cost, _ = brute_force_oracle(graph, cap=ORACLE_CAP)
        return "oracle" if _same_cost(cost, winner.assembled_cost) else None
    except ResourceLimitError:
        pass
    for bound in (b for b in BOUND_NAMES if b != solved_with):
        q, _ = solve_qga(graph, bound=bound)
        cost = q.total_cost if q is not None else math.inf
        if not _same_cost(cost, winner.assembled_cost):
            return None
    return "bounds"


def error_class(exc: BaseException) -> str:
    """``qga:<Name>`` for the program's own errors, ``bug:<Name>`` for
    anything else (a programming error, not a rejected input)."""
    kind = "qga" if isinstance(exc, QgaError) else "bug"
    return f"{kind}:{type(exc).__name__}"


class Checker:
    """Checks every answer; ``reference`` runs once per distinct query."""

    def __init__(self, kg, table, bound: str):
        self.kg = kg
        self.table = table
        self.bound = bound
        self.expected: dict[str, object] = {}
        self.methods: dict[str, str] = {}

    def reference(self, query, result) -> bool:
        if query.gold is not None:
            self.expected[query.qid] = query.gold
            self.methods[query.qid] = "gold"
            return answers_of(result, self.kg) == query.gold
        method = winner_is_optimal(result, self.table, self.bound)
        if method is None:
            return False
        self.methods[query.qid] = method
        self.expected[query.qid] = self._signature(result)
        return True

    def check(self, query, result) -> bool:
        expected = self.expected.get(query.qid)
        if expected is None:
            return False
        if query.gold is not None:
            return answers_of(result, self.kg) == expected
        return self._signature(result) == expected

    @staticmethod
    def _signature(result):
        winner = result.candidates[result.winner_index]
        return (result.structured_query.text, winner.assembled_cost)

"""Per-layer tracing by wrapping qga's public functions from outside.

``Tracer.install()`` replaces module and class attributes (for example
``qga.pipeline.build_condensed_graph`` and ``qga.kernels.pair_costs``) with
wrappers that record spans and counts, and ``uninstall()`` puts the
originals back.  No file of the program changes.

Spans are kept in memory as ``(query, name, start, end, parent)`` rows and
written out, tab-separated, when the run ends.  Leaf calls that run thousands of times per
query (``kernels.pair_costs`` and the lower bounds) are timed like spans
but aggregated per query instead of stored one row each.  A span's self
time is its duration minus the time of the spans and leaves inside it;
the self time of the root span (``answer_keywords``) is
``pipeline.other_ms``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from qga import assembler, kernels, lexicon, pipeline, store

ROOT_SPAN = "pipeline.other"

# span name -> per-layer metric that reports its mean self time per query
SPAN_METRICS = {
    "store.catalog": "store.catalog_ms",
    "lexicon.annotate": "lexicon.annotate_ms",
    "kernels.pair_costs": "kernels.pair_costs_ms",
    "assembler.condense": "assembler.condense_ms",
    "assembler.solve": "assembler.solve_ms",
    "assembler.bound": "assembler.bound_ms",
    "predictor.predict": "predictor.predict_ms",
    "sparql.emit": "sparql.emit_ms",
    "sparql.evaluate": "sparql.evaluate_ms",
    ROOT_SPAN: "pipeline.other_ms",
}
LEAF_SPANS = ("kernels.pair_costs", "assembler.bound")

# counters reported per query (mean over one round of the workload's queries)
PER_QUERY_COUNTS = (
    "store.catalog_calls",
    "store.match_calls",
    "store.triples_scanned",
    "lexicon.fuzzy_surfaces_scanned",
    "lexicon.candidate_terms",
    "lexicon.cliques",
    "lexicon.aqs",
    "kernels.pair_costs_calls",
    "kernels.pair_costs_rows",
    "assembler.crossing_edges",
    "assembler.cost_source_calls",
    "assembler.states_pushed",
    "assembler.states_popped",
    "assembler.states_pruned",
    "assembler.bound_evals",
    "predictor.predicted_edges",
    "sparql.rows",
)
# counters reported as totals over one round
ROUND_TOTALS = ("predictor.unvectored_predicate_edges", "pipeline.candidate_errors")
# counters reported as the largest value seen
ROUND_MAXIMA = ("assembler.graph_bytes",)

_PLAIN_REASONS = ("no conflict-free matching",)


class QueryRecord:
    """Self time per span name and counts for one traced query."""

    def __init__(self, number: int, qid: str):
        self.number = number
        self.qid = qid
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf_totals: dict = defaultdict(lambda: [0, 0.0])  # (query, name) -> [calls, s]
        self.records: list[QueryRecord] = []
        self._open: list[list] = []  # [start, child seconds, span row index or -1]
        self._query: QueryRecord | None = None
        self._saved: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------

    def begin_query(self, qid: str) -> None:
        self._query = QueryRecord(len(self.records), qid)

    def end_query(self) -> QueryRecord:
        rec, self._query = self._query, None
        self.records.append(rec)
        return rec

    def count(self, name: str, n=1) -> None:
        if self._query is not None:
            self._query.counts[name] += n

    def _timed(self, name: str, fn, args, kwargs, after=None):
        if self._query is None:
            return fn(*args, **kwargs)
        leaf = name in LEAF_SPANS
        parent = self._open[-1][2] if self._open else -1
        row = -1
        if not leaf:
            row = len(self.spans)
            self.spans.append(None)
        frame = [perf_counter(), 0.0, row]
        self._open.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            duration = end - frame[0]
            self._query.self_s[name] += duration - frame[1]
            if self._open:
                self._open[-1][1] += duration
            if leaf:
                tot = self.leaf_totals[(self._query.number, name)]
                tot[0] += 1
                tot[1] += duration
            else:
                self.spans[row] = (self._query.number, name, frame[0], end, parent)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _wrap_timed(self, owner, attr, name, after=None) -> None:
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self._timed(name, fn, args, kwargs, after)

        self._patch(owner, attr, wrapper)

    def _wrap_counted(self, owner, attr, on_result) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, *args, **kwargs)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        count = self.count

        def after_answer(result, *args, **kwargs):
            count(
                "pipeline.candidate_errors",
                sum(
                    1
                    for c in result.candidates
                    if c.infeasible_reason and c.infeasible_reason not in _PLAIN_REASONS
                ),
            )

        self._wrap_timed(pipeline, "answer_keywords", ROOT_SPAN, after_answer)

        self._wrap_timed(lexicon, "annotate", "lexicon.annotate", lambda r, *a, **k: count("lexicon.aqs", len(r)))
        self._wrap_counted(
            lexicon, "generate_candidate_terms", lambda r, *a, **k: count("lexicon.candidate_terms", len(r))
        )
        self._wrap_counted(
            lexicon, "enumerate_maximal_cliques", lambda r, *a, **k: count("lexicon.cliques", len(r))
        )
        self._wrap_counted(
            lexicon.Lexicon,
            "surfaces_with_word_count",
            lambda r, *a, **k: count("lexicon.fuzzy_surfaces_scanned", len(r)),
        )

        self._wrap_timed(
            store.KnowledgeGraph, "catalog", "store.catalog", lambda r, *a, **k: count("store.catalog_calls")
        )
        match = store.KnowledgeGraph.match_pattern

        def match_pattern(*args, **kwargs):
            count("store.match_calls")
            for t in match(*args, **kwargs):
                count("store.triples_scanned")
                yield t

        self._patch(store.KnowledgeGraph, "match_pattern", match_pattern)

        def after_condense(graph, *args, **kwargs):
            count("assembler.crossing_edges", len(graph.edges))
            nbytes = sum(v.nbytes for v in vars(graph).values() if isinstance(v, np.ndarray))
            q = self._query
            if q is not None:
                q.counts["assembler.graph_bytes"] = max(q.counts["assembler.graph_bytes"], nbytes)

        self._wrap_timed(pipeline, "build_condensed_graph", "assembler.condense", after_condense)
        cost_source_factory = pipeline.embedding_cost_source

        def embedding_cost_source(*args, **kwargs):
            source = cost_source_factory(*args, **kwargs)

            def counted(*a, **k):
                count("assembler.cost_source_calls")
                return source(*a, **k)

            return counted

        self._patch(pipeline, "embedding_cost_source", embedding_cost_source)
        self._wrap_timed(
            kernels,
            "pair_costs",
            "kernels.pair_costs",
            lambda r, vec, v1, *a, **k: (count("kernels.pair_costs_calls"), count("kernels.pair_costs_rows", len(v1))),
        )

        def after_solve(result, *args, **kwargs):
            stats = result[1]
            count("assembler.states_pushed", stats.states_pushed)
            count("assembler.states_popped", stats.states_popped)
            count("assembler.states_pruned", stats.states_pruned)

        self._wrap_timed(pipeline, "solve_qga", "assembler.solve", after_solve)
        for bound in list(assembler.LOWER_BOUNDS):
            self._wrap_timed(
                assembler.LOWER_BOUNDS, bound, "assembler.bound", lambda r, *a, **k: count("assembler.bound_evals")
            )

        def after_predict(q, _q, table, *args, **kwargs):
            count("predictor.predicted_edges", len(q.predicted_edges))
            count(
                "predictor.unvectored_predicate_edges",
                sum(1 for e in q.predicted_edges if not table.has[e.predicate]),
            )

        self._wrap_timed(pipeline, "predict_missing_relations", "predictor.predict", after_predict)
        self._wrap_timed(pipeline, "emit_sparql", "sparql.emit")
        self._wrap_timed(pipeline, "evaluate_bgp", "sparql.evaluate", lambda r, *a, **k: count("sparql.rows", len(r)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Tab-separated rows: spans (with start, end and parent row), then
        one row per (query, leaf name) with its call count and seconds."""
        qids = {r.number: r.qid for r in self.records}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kind\trow\tquery\tqid\tname\tstart_s\tend_s\tparent_row\tcalls\tseconds\n")
            for i, (q, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"span\t{i}\t{q}\t{qids.get(q)}\t{name}\t{start!r}\t{end!r}\t{parent}\t\t\n")
            for (q, name), (calls, seconds) in self.leaf_totals.items():
                fh.write(f"leaf\t\t{q}\t{qids.get(q)}\t{name}\t\t\t\t{calls}\t{seconds!r}\n")


def round_counts(records: list[QueryRecord]) -> dict:
    """Deterministic counts over one round: per-query means, totals, maxima."""
    n = len(records)
    totals: Counter = Counter()
    for r in records:
        totals.update(r.counts)
    out = {name: totals[name] / n for name in PER_QUERY_COUNTS}
    out.update({name: totals[name] for name in ROUND_TOTALS})
    out.update({name: max(r.counts[name] for r in records) for name in ROUND_MAXIMA})
    return out


def self_times_ms(records: list[QueryRecord]) -> dict:
    """Mean self time per query, in ms, for every span name."""
    n = len(records)
    totals: Counter = Counter()
    for r in records:
        totals.update(r.self_s)
    return {SPAN_METRICS[name]: totals[name] * 1e3 / n for name in SPAN_METRICS}

"""One workload, one process, one client: set up, check, measure, report.

The loop is closed: each query is sent only after the previous
``answer_keywords`` call returned.  An untimed reference pass over every
distinct query runs first; it warms the process and checks the answers.
With ``trace`` off the run reports the end-to-end metrics.  With ``trace``
on it measures untraced latency for half the time, then installs the
tracer for at least two whole rounds of queries and reports the per-layer
metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qga
from qga import embedding, kernels, lexicon, pipeline, store

from perfbench.checks import Checker, error_class
from perfbench.tracing import SPAN_METRICS, Tracer, round_counts, self_times_ms
from perfbench.workloads import MINI_TRAIN, Workload, make_workload

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 50
# p90 then has at least ten samples beyond it
MIN_TIMED_QUERIES = 100
TRACED_MIN_ROUNDS = 2
# layer self times plus pipeline.other_ms may miss the traced wall time by this share
ATTRIBUTION_TOL = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "store.load_s": "s",
    "store.catalog_calls": "count/query",
    "store.catalog_ms": "ms",
    "store.match_calls": "count/query",
    "store.triples_scanned": "count/query",
    "lexicon.build_s": "s",
    "lexicon.surfaces": "count",
    "lexicon.annotate_ms": "ms",
    "lexicon.fuzzy_surfaces_scanned": "count/query",
    "lexicon.candidate_terms": "count/query",
    "lexicon.cliques": "count/query",
    "lexicon.aqs": "count/query",
    "embedding.train_s": "s",
    "embedding.train_triples_per_s": "1/s",
    "embedding.load_table_s": "s",
    "kernels.pair_costs_calls": "count/query",
    "kernels.pair_costs_rows": "count/query",
    "kernels.pair_costs_ms": "ms",
    "assembler.condense_ms": "ms",
    "assembler.crossing_edges": "count/query",
    "assembler.cost_source_calls": "count/query",
    "assembler.graph_bytes": "bytes",
    "assembler.solve_ms": "ms",
    "assembler.states_pushed": "count/query",
    "assembler.states_popped": "count/query",
    "assembler.states_pruned": "count/query",
    "assembler.bound_evals": "count/query",
    "assembler.bound_ms": "ms",
    "predictor.predict_ms": "ms",
    "predictor.predicted_edges": "count/query",
    "predictor.unvectored_predicate_edges": "count",
    "sparql.emit_ms": "ms",
    "sparql.evaluate_ms": "ms",
    "sparql.rows": "count/query",
    "pipeline.other_ms": "ms",
    "pipeline.candidate_errors": "count",
    "pipeline.traced_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Honesty guard: per-layer metrics that must read > 0 (every wrapped
# function fired) or exactly 0 on each workload.
MUST_FIRE_EVERYWHERE = (
    "store.load_s",
    "store.catalog_calls",
    "store.match_calls",
    "lexicon.build_s",
    "lexicon.annotate_ms",
    "lexicon.candidate_terms",
    "lexicon.cliques",
    "lexicon.aqs",
    "kernels.pair_costs_calls",
    "assembler.condense_ms",
    "assembler.cost_source_calls",
    "assembler.crossing_edges",
    "assembler.solve_ms",
    "assembler.bound_evals",
    "predictor.predict_ms",
    "predictor.predicted_edges",
    "sparql.emit_ms",
    "sparql.evaluate_ms",
)
MUST_FIRE = {
    "mini": ("embedding.train_s",),
    "inflated": ("embedding.load_table_s",),
    "fuzzy": ("embedding.load_table_s", "lexicon.fuzzy_surfaces_scanned"),
    "ambiguous": ("embedding.load_table_s",),
}
MUST_BE_ZERO = {
    "mini": ("lexicon.fuzzy_surfaces_scanned", "embedding.load_table_s"),
    "inflated": ("lexicon.fuzzy_surfaces_scanned", "embedding.train_s"),
    "fuzzy": ("embedding.train_s",),
    "ambiguous": ("lexicon.fuzzy_surfaces_scanned", "embedding.train_s"),
}

# counts that two traced rounds of the same queries must reproduce exactly
EXACT_REPEAT = (
    "assembler.crossing_edges",
    "assembler.states_pushed",
    "assembler.states_popped",
    "assembler.states_pruned",
    "assembler.bound_evals",
    "kernels.pair_costs_rows",
    "lexicon.fuzzy_surfaces_scanned",
    "store.triples_scanned",
)


class GuardError(Exception):
    """The trace no longer measures what the benchmark says it does."""


@dataclass
class Ready:
    kg: object
    lexicon: object
    table: object


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    ends: list = field(default_factory=list)  # perf_counter() after each query
    start: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    tracebacks: dict = field(default_factory=dict)


def set_up(w: Workload) -> tuple[Ready, dict]:
    """Nothing to ready-to-answer: store, lexicon, vectors; phase times."""
    t0 = perf_counter()
    kg = store.load_triples(w.kg_path)
    t1 = perf_counter()
    lex = lexicon.build_lexicon(kg, w.labels_path, w.paraphrase_path)
    t2 = perf_counter()
    if w.vectors_path is None:
        table = embedding.train_transe(kg, MINI_TRAIN)
    else:
        table = embedding.load_table(w.vectors_path, kg)
    t3 = perf_counter()
    phases = {"setup_s": t3 - t0, "store.load_s": t1 - t0, "lexicon.build_s": t2 - t1}
    phases["embedding.train_s" if w.vectors_path is None else "embedding.load_table_s"] = t3 - t2
    return Ready(kg, lex, table), phases


def repeated_set_up(w: Workload) -> tuple[Ready, dict]:
    """Set up several times (freeing the previous store first); report the
    median of every phase and keep the last set-up for the queries."""
    samples: list[dict] = []
    ready = None
    while len(samples) < SETUP_MIN_REPEATS or (
        sum(s["setup_s"] for s in samples) < SETUP_MIN_SECONDS and len(samples) < SETUP_MAX_REPEATS
    ):
        ready = None
        gc.collect()
        ready, phases = set_up(w)
        samples.append(phases)
    medians = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    medians["setup_repeats"] = len(samples)
    return ready, medians


def reference_pass(w: Workload, ready: Ready, checker: Checker) -> Counter:
    """Answer every distinct query once, untimed, and check it."""
    methods: Counter = Counter()
    for q in w.queries:
        try:
            result = pipeline.answer_keywords(list(q.tokens), ready.kg, ready.lexicon, ready.table, w.config)
        except Exception as exc:  # reported as a failed check; timed repeats fail too
            methods[f"raised {error_class(exc)}"] += 1
            continue
        methods["ok" if checker.reference(q, result) else "wrong"] += 1
    methods.update(checker.methods.values())
    return methods


def closed_loop(w, ready, checker, seconds, tracer=None, min_rounds=1) -> LoopResult:
    """Send queries one after another until ``seconds`` passed, at least
    ``MIN_TIMED_QUERIES`` and ``min_rounds`` rounds ran, and the last round
    is whole, so every query has the same weight in the samples."""
    out = LoopResult()
    per_round = len(w.queries)
    order = w.rounds()
    out.start = perf_counter()
    while True:
        done = out.attempted
        if (
            perf_counter() - out.start >= seconds
            and done >= MIN_TIMED_QUERIES
            and done >= min_rounds * per_round
            and done % per_round == 0
        ):
            break
        q = w.queries[next(order)]
        tokens = list(q.tokens)
        if tracer is not None:
            tracer.begin_query(q.qid)
        t0 = perf_counter()
        try:
            result = pipeline.answer_keywords(tokens, ready.kg, ready.lexicon, ready.table, w.config)
        except Exception as exc:  # the loop must keep running; the failure is counted
            t1 = perf_counter()
            name = error_class(exc)
            out.errors[name] += 1
            out.tracebacks.setdefault(name, traceback.format_exc())
            ok = False
        else:
            t1 = perf_counter()
            ok = checker.check(q, result)
        if tracer is not None:
            tracer.end_query()
        out.latencies.append(t1 - t0)
        out.ends.append(t1)
        out.attempted += 1
        out.failed += not ok
    return out


def end_to_end(setup: dict, loop: LoopResult) -> dict:
    """Latency percentiles over every timed sample, and completed queries
    over the wall time of the whole loop.  The loop is made of whole
    rounds, so every query has the same weight in the samples."""
    lat_ms = np.asarray(loop.latencies) * 1e3
    return {
        "setup_s": setup["setup_s"],
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p90_ms": float(np.percentile(lat_ms, 90)),
        "queries_per_s": loop.attempted / (loop.ends[-1] - loop.start),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(w: Workload, ready: Ready, setup: dict, untraced: LoopResult, traced: LoopResult, tracer: Tracer):
    """Per-layer metrics from the traced loop, after the three guards."""
    per_round = len(w.queries)
    first = round_counts(tracer.records[:per_round])
    second = round_counts(tracer.records[per_round : 2 * per_round])
    differ = [name for name in EXACT_REPEAT if first[name] != second[name]]
    if differ:
        raise GuardError(f"counts differ between two traced rounds: {differ}")

    metrics = dict(first)
    metrics.update(self_times_ms(tracer.records))
    metrics["pipeline.traced_ms"] = statistics.fmean(traced.latencies) * 1e3
    for name in ("store.load_s", "lexicon.build_s", "embedding.train_s", "embedding.load_table_s"):
        metrics[name] = setup.get(name, 0.0)
    metrics["lexicon.surfaces"] = len(ready.lexicon)
    train_s = setup.get("embedding.train_s", 0.0)
    metrics["embedding.train_triples_per_s"] = (
        len(ready.kg.triples) * MINI_TRAIN.epochs / train_s if train_s else 0.0
    )
    metrics["trace.overhead_frac"] = statistics.median(traced.latencies) / statistics.median(untraced.latencies) - 1.0

    silent = [n for n in MUST_FIRE_EVERYWHERE + MUST_FIRE[w.name] if not metrics[n] > 0]
    if silent:
        raise GuardError(f"wrapped functions never fired on {w.name}: {silent}")
    nonzero = [n for n in MUST_BE_ZERO[w.name] if metrics[n] != 0]
    if nonzero:
        raise GuardError(f"metrics must read 0 on {w.name}: {nonzero}")
    covered = sum(metrics[m] for m in SPAN_METRICS.values())
    wall = metrics["pipeline.traced_ms"]
    negative = [m for m in SPAN_METRICS.values() if metrics[m] < -1e-6]
    if negative or abs(covered - wall) > ATTRIBUTION_TOL * wall:
        raise GuardError(
            f"layer self times sum to {covered:.4f} ms against {wall:.4f} ms traced wall "
            f"(tolerance {ATTRIBUTION_TOL:.0%}); negative: {negative}"
        )
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def _git_rev(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_probe_ms() -> float:
    """Best of five runs of a fixed pure-Python loop: how fast this machine
    runs interpreted code right now, to tell a slow machine from a slow
    program when comparing runs.  It is recorded, never used to scale."""
    best = math.inf
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best * 1e3


def environment(root: Path) -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": _git_rev(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qga": qga.__version__,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "kernel_path": "numba" if kernels.NUMBA_ENABLED else "numpy fallback (numba absent or disabled)",
        "QGA_PURE_NUMPY": os.environ.get("QGA_PURE_NUMPY"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "cpu_probe_ms_start": cpu_probe_ms(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(root)
    out_dir = root / ".perfbench"
    work_dir = out_dir / "work" / f"{name}-{os.getpid()}"
    results_dir = out_dir / "results"
    work_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        w = make_workload(name, seed, root / "fixtures" / "mini", work_dir)
        ready, setup = repeated_set_up(w)
        checker = Checker(ready.kg, ready.table, w.config.bound)
        reference = reference_pass(w, ready, checker)
        if not trace:
            loop = closed_loop(w, ready, checker, seconds)
            metrics = end_to_end(setup, loop)
            units = END_TO_END_UNITS
            loops = [loop]
        else:
            untraced = closed_loop(w, ready, checker, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = closed_loop(w, ready, checker, seconds / 2, tracer, min_rounds=TRACED_MIN_ROUNDS)
            finally:
                tracer.uninstall()
            tracer.write_spans(results_dir / f"{name}-spans.tsv")
            try:
                metrics = traced_metrics(w, ready, setup, untraced, traced, tracer)
            except GuardError as exc:
                print(f"trace guard failed: {exc}", file=sys.stderr)
                return 1
            units = PER_LAYER_UNITS
            loops = [untraced, traced]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    errors = sum((lp.errors for lp in loops), Counter())
    env["loadavg_end"] = os.getloadavg()
    env["cpu_probe_ms_end"] = cpu_probe_ms()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client",
        "samples": [lp.attempted for lp in loops],
        "setup": setup,
        "reference_pass": dict(reference),
        "errors": dict(errors),
        "tracebacks": {k: v for lp in loops for k, v in lp.tracebacks.items()},
        "metrics": metrics,
        "environment": env,
    }
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(
        f"workload={name} seed={seed} trace={int(trace)} loop=closed,1-client "
        f"samples={record['samples']}"
    )
    print(f"  reference pass: {dict(reference)}; setup repeats: {setup['setup_repeats']}")
    for metric, unit in units.items():
        print(f"  {metric:40s} {_fmt(metrics[metric]):>14s} {unit}")
    share = _fmt(failed / attempted)
    print(f"  {'failed_frac':40s} {share:>14s} ratio ({failed} of {attempted}; errors {dict(errors)})")
    if trace:
        layers = {m: metrics[m] for m in SPAN_METRICS.values()}
        top = max(layers, key=layers.get)
        print(f"  largest self time: {top} = {layers[top] / metrics['pipeline.traced_ms']:.1%} of traced wall")
    print("env: " + json.dumps(env))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
            }
        )
    )
    return 0

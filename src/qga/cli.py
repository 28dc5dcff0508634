"""Command-line interface.

Exit codes: 0 success, 1 usage/data error, 2 uninterpretable query,
3 infeasible assembly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .assembler import BOUND_NAMES, brute_force_oracle, build_condensed_graph, solve_qga
from .embedding import TrainConfig, load_table, save_table, train_transe
from .errors import InfeasibleAssemblyError, QgaError, UninterpretableQueryError
from .instances import bench_lower_bounds, build_random_graph, load_instance, reduce_3sat, table_cost_source
from .lexicon import build_lexicon
from .pipeline import PipelineConfig, answer_keywords
from .sat import parse_dimacs, truth_table_satisfiable
from .sparql import bindings_to_tsv
from .store import DEFAULT_TYPE_PREDICATE, load_triples

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNINTERPRETABLE = 2
EXIT_INFEASIBLE = 3


def _add_kb_args(p):
    p.add_argument("--kb", required=True, help="triple file (S\\tP\\tO per line)")
    p.add_argument("--type-predicate", default=DEFAULT_TYPE_PREDICATE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qga", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qga {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train translation embeddings over a triple file")
    _add_kb_args(p)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="vector file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve a dumped assembly instance")
    p.add_argument("--instance", required=True, help="instance dump file")
    p.add_argument("--bound", choices=BOUND_NAMES, default="greedy")
    p.add_argument("--stats", action="store_true", help="print search statistics")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle-check", help="random instances: solver vs brute force")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("sat-check", help="decide a 3-CNF file via the assembly reduction")
    p.add_argument("--cnf", required=True, help="DIMACS CNF, 3 literals per clause")
    p.add_argument("--verify", action="store_true", help="cross-check with a truth table")
    p.set_defaults(func=cmd_sat_check)

    p = sub.add_parser("query", help="answer a keyword query against a triple file")
    p.add_argument("keywords", help="keyword string, e.g. 'scientist graduate from ...'")
    _add_kb_args(p)
    p.add_argument("--labels", default=None, help="item label TSV")
    p.add_argument("--paraphrases", default=None, help="relation paraphrase TSV")
    p.add_argument("--vectors", required=True, help="trained vector file")
    p.add_argument("--bound", choices=BOUND_NAMES, default="greedy")
    p.add_argument("--top-n", type=int, default=5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--fuzzy", type=int, choices=(0, 1), default=0)
    p.add_argument("--no-predict", action="store_true")
    p.add_argument("--explain", action="store_true", help="print per-AQ diagnostics")
    p.add_argument("--out", default=None, help="write the SPARQL text to a file")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="lower-bound pruning benchmark")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--k", default="5,10", help="comma-separated k values")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None, help="write the TSV report to a file")
    p.set_defaults(func=cmd_bench)

    return parser


def cmd_train(args) -> int:
    kg = load_triples(args.kb, type_predicate=args.type_predicate)
    config = TrainConfig(
        dim=args.dim,
        epochs=args.epochs,
        learning_rate=args.lr,
        margin=args.margin,
        seed=args.seed,
    )
    start = time.perf_counter()
    table = train_transe(kg, config)
    train_s = time.perf_counter() - start
    save_table(table, args.out)
    # the same rate as perfbench's embedding.train_triples_per_s
    rate = len(kg.triples) * config.epochs / train_s
    print(
        f"trained {kg.num_items()} items over {len(kg.triples)} triples "
        f"(dim={config.dim}, epochs={config.epochs}) in {train_s:.2f} s "
        f"({rate:.0f} triples/s); final mean loss "
        f"{table.final_loss:.4f}; wrote {args.out}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    sets, weights = load_instance(args.instance)
    graph = build_condensed_graph(sets, table_cost_source(weights))
    q, stats = solve_qga(graph, bound=args.bound)
    if args.stats:
        print(
            f"states pushed={stats.states_pushed} popped={stats.states_popped} "
            f"pruned={stats.states_pruned} bound_evaluations={stats.bound_evaluations} "
            f"edges_costed={stats.edges_costed} of {len(graph.edges)}"
        )
    if q is None:
        print("infeasible: no conflict-free size-m matching")
        return EXIT_INFEASIBLE
    print(f"optimal cost {q.total_cost:.6f}")
    for i, v in enumerate(q.vertices):
        print(f"vertex set {i}: {v}")
    for e in q.edges:
        arrow = "->" if e.direction == 0 else "<-"
        print(
            f"predicate {e.predicate}: ({e.set1}:{e.vertex1}) {arrow} "
            f"({e.set2}:{e.vertex2}) weight {e.weight:.6f}"
        )
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    for flag, value, low in (
        ("--instances", args.instances, 1),
        ("--n-max", args.n_max, 2),
        ("--m-max", args.m_max, 1),
        ("--k-max", args.k_max, 1),
    ):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}")
    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.instances):
        n = int(rng.integers(2, args.n_max + 1))
        m = int(rng.integers(1, args.m_max + 1))
        k = int(rng.integers(1, args.k_max + 1))
        graph = build_random_graph(rng, n, m, k)
        oracle_cost, _ = brute_force_oracle(graph)
        for bound in BOUND_NAMES:
            q, _ = solve_qga(graph, bound=bound)
            got = q.total_cost if q is not None else math.inf
            if not math.isclose(got, oracle_cost, rel_tol=1e-9, abs_tol=1e-9):
                failures += 1
                print(f"MISMATCH instance {i} bound {bound}: {got} vs oracle {oracle_cost}")
    print(f"checked {args.instances} instances x {len(BOUND_NAMES)} bounds: "
          f"{'all optimal' if failures == 0 else f'{failures} failures'}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def cmd_sat_check(args) -> int:
    num_vars, clauses = parse_dimacs(args.cnf)
    sets, weights = reduce_3sat(num_vars, clauses)
    graph = build_condensed_graph(sets, table_cost_source(weights))
    q, stats = solve_qga(graph, bound="greedy")
    optimum = q.total_cost if q is not None else math.inf
    sat = optimum <= 1e-9
    print(f"p={num_vars} q={len(clauses)} optimum={optimum:.1f} -> "
          f"{'SATISFIABLE' if sat else 'UNSATISFIABLE'}")
    if args.verify:
        expect = truth_table_satisfiable(num_vars, clauses)
        print(f"truth table says: {'SATISFIABLE' if expect else 'UNSATISFIABLE'}")
        if expect != sat:
            print("DISAGREEMENT: reduction bug")
            return EXIT_ERROR
    return EXIT_OK


def cmd_query(args) -> int:
    kg = load_triples(args.kb, type_predicate=args.type_predicate)
    lexicon = build_lexicon(kg, args.labels, args.paraphrases)
    table = load_table(args.vectors, kg)
    config = PipelineConfig(
        k=args.k,
        top_n=args.top_n,
        bound=args.bound,
        predict=not args.no_predict,
        fuzzy=bool(args.fuzzy),
    )
    tokens = args.keywords.split()
    result = answer_keywords(tokens, kg, lexicon, table, config)

    if args.explain:
        for i, cand in enumerate(result.candidates):
            marker = "*" if i == result.winner_index else " "
            aq = cand.aq
            terms = ", ".join(
                f"{' '.join(tokens[term.start:term.end])}:{term.character}"
                for term in aq.terms
            )
            print(f"{marker} AQ[{i}] score={aq.segmentation_score:.3f} spans=[{terms}]")
            if cand.sets is not None:
                for s, items in enumerate(cand.sets.vertex_sets):
                    names = ["?free" if v < 0 else kg.iri_of(v) for v in items]
                    print(f"    vertex set {s}: {{{', '.join(names)}}}")
                for j, items in enumerate(cand.sets.edge_sets):
                    names = [kg.iri_of(p) for p in items]
                    print(f"    edge set {j}: {{{', '.join(names)}}}")
            if cand.infeasible_reason:
                print(f"    infeasible: {cand.infeasible_reason}")
                continue
            for s, items in enumerate(cand.sets.vertex_sets):
                if len(items) > 1:
                    chosen = cand.query_graph.vertices[s]
                    losers = ", ".join(kg.iri_of(v) for v in items if v != chosen)
                    print(f"    resolved set {s} := {kg.iri_of(chosen)} (over {losers})")
            print(
                f"    cost={cand.assembled_cost:.4f} predicted={cand.predicted_cost:.4f} "
                f"normalized={cand.normalized_cost:.4f} "
                f"states popped={cand.stats.states_popped} "
                f"edges costed={cand.stats.edges_costed}"
            )
            for e in cand.query_graph.all_edges:
                tag = " (predicted)" if e.predicted else ""
                print(
                    f"    edge {kg.iri_of(e.predicate)} between set{e.set1}"
                    f" and set{e.set2}{tag} weight {e.weight:.4f}"
                )

    sys.stdout.write(result.structured_query.text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.structured_query.text)
    sys.stdout.write(bindings_to_tsv(result.structured_query, result.bindings, kg))
    if result.structured_query.entity_answer:
        print(f"answer: {result.structured_query.entity_answer}")
    return EXIT_OK


def cmd_bench(args) -> int:
    k_values = tuple(int(x) for x in args.k.split(","))
    if len(set(k_values)) < len(k_values):
        raise ValueError(f"--k repeats a value: {args.k}")
    rows = bench_lower_bounds(args.instances, k_values=k_values, seed=args.seed)
    lines = [
        "instance\tk\tn\tm\tbound\tcost\tstates_pushed\tstates_popped\tstates_pruned"
        "\tbound_evaluations\twall_seconds"
    ]
    for r in rows:
        s = r.stats
        lines.append(
            f"{r.instance}\t{r.k}\t{r.n}\t{r.m}\t{r.bound}\t{r.cost:.6f}"
            f"\t{s.states_pushed}\t{s.states_popped}\t{s.states_pruned}"
            f"\t{s.bound_evaluations}\t{r.wall_seconds:.6f}"
        )
    lines.append("")
    for k in sorted(set(k_values)):
        for bound in BOUND_NAMES:
            group = [r for r in rows if r.k == k and r.bound == bound]
            popped = sum(r.stats.states_popped for r in group) / len(group)
            wall = sum(r.wall_seconds for r in group) / len(group)
            lines.append(f"# mean k={k} {bound}: popped={popped:.2f} wall={wall:.4f}s")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        for line in text.splitlines():
            if line.startswith("#"):
                print(line)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UninterpretableQueryError as exc:
        print(f"uninterpretable query: {exc}", file=sys.stderr)
        return EXIT_UNINTERPRETABLE
    except InfeasibleAssemblyError as exc:
        print(f"infeasible assembly: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (QgaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

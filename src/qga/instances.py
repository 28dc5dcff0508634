"""Synthetic assembly instances: random generation, the 3-SAT reduction,
the weight-table cost source, a replay format and the lower-bound sweep of
``qga bench``.

An instance is a ``CandidateSets`` plus a weight table: a dict keyed
(set1, v1, set2, v2, j) whose values are (weight, best_p, direction) for
that vertex pair and edge set.  The dump format is line-oriented text:

    n 3
    m 2
    V 0 10 11
    E 0 40 41
    W <set1> <v1> <set2> <v2> <j> <weight> <best_p> <dir>

with one W line per key of ``instance_keys``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .assembler import BOUND_NAMES, CandidateSets, SolveStats, build_condensed_graph, solve_qga
from .embedding import DIR_FORWARD
from .errors import ParseError


def instance_keys(sets: CandidateSets):
    """Yield the weight-table key (set1, v1, set2, v2, j) of every vertex
    pair and edge set: set pairs in order, then the two vertices, then j."""
    for i1, i2 in itertools.combinations(range(sets.n), 2):
        for v1 in sets.vertex_sets[i1]:
            for v2 in sets.vertex_sets[i2]:
                for j in range(sets.m):
                    yield i1, v1, i2, v2, j


def random_instance(rng: np.random.Generator, n: int, m: int, k: int, exact_sizes: bool = False):
    """Draw candidate sets with fresh ids and uniform [0,1) pair weights.

    Returns (CandidateSets, weight table dict).  ``exact_sizes`` makes every
    set carry exactly k candidates instead of 1..k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2 and m >= 1:
        raise ValueError("need n >= 2 when m >= 1")
    next_id = 0

    def fresh(count):
        nonlocal next_id
        ids = tuple(range(next_id, next_id + count))
        next_id += count
        return ids

    def size():
        return k if exact_sizes else int(rng.integers(1, k + 1))

    vertex_sets = [fresh(size()) for _ in range(n)]
    edge_sets = [fresh(size()) for _ in range(m)]
    sets = CandidateSets(vertex_sets, edge_sets)
    weights: dict = {}
    for key in instance_keys(sets):
        w = float(rng.random())
        preds = edge_sets[key[4]]
        best_p = preds[int(rng.integers(0, len(preds)))]
        direction = int(rng.integers(0, 2))
        weights[key] = (w, best_p, direction)
    return sets, weights


def reduce_3sat(num_vars: int, clauses):
    """Encode a 3-CNF formula as an assembly instance (CandidateSets,
    weight table).

    One vertex set {x, not-x} per variable, one singleton vertex set per
    clause, one singleton edge set per clause.  Wiring a clause's edge to
    (one of its literal vertices, clause vertex) costs 0; every other wiring
    costs 1.  The optimum is 0 iff the formula is satisfiable.
    """
    clauses = [tuple(c) for c in clauses]
    if num_vars < 1:
        raise ValueError("formula needs at least one variable")
    for c in clauses:
        if len(c) != 3:
            raise ValueError(f"clause {c!r} does not have exactly 3 literals")
        for lit in c:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range in clause {c!r}")

    q = len(clauses)
    # variable i: vertices 2(i-1) for x_i and 2(i-1)+1 for not-x_i; clause j:
    # vertex 2p+j and predicate 2p+q+j.  A literal's vertex is its pair's v1.
    vertex_sets = [(v, v + 1) for v in range(0, 2 * num_vars, 2)] + [(2 * num_vars + j,) for j in range(q)]
    edge_sets = [(2 * num_vars + q + j,) for j in range(q)]
    zero = {(2 * abs(lit) - 2 + (lit < 0), 2 * num_vars + j, j) for j, c in enumerate(clauses) for lit in c}
    sets = CandidateSets(vertex_sets, edge_sets)
    weights = {
        (i1, v1, i2, v2, j): (0.0 if (v1, v2, j) in zero else 1.0, edge_sets[j][0], DIR_FORWARD)
        for i1, v1, i2, v2, j in instance_keys(sets)
    }
    return sets, weights


def exact_costs(weights, best_p, direction):
    """A cost source's ``(bounds, exact)`` for (m, R) grids of costs already
    known exactly: each interval is its cost alone."""
    weights = np.asarray(weights, dtype=np.float64)
    best_p = np.asarray(best_p, dtype=np.int64)
    direction = np.asarray(direction, dtype=np.int8)
    return (lambda: (weights, weights)), (lambda j, rows: (weights[j, rows], best_p[j, rows], direction[j, rows]))


def table_cost_source(weight_table: dict):
    """Cost source backed by a weight table keyed (set1, v1, set2, v2, j)."""

    def source(set1, v1, set2, v2, edge_sets):
        keys = list(zip(set1.tolist(), v1.tolist(), set2.tolist(), v2.tolist()))
        cells = ([weight_table[(i1, a, i2, b, j)] for i1, a, i2, b in keys] for j in range(len(edge_sets)))
        # per edge set, its row of (weight, best_p, direction) triples split in three
        return exact_costs(*zip(*(zip(*row) for row in cells)))

    return source


def build_random_graph(rng, n, m, k, exact_sizes=False):
    sets, weights = random_instance(rng, n, m, k, exact_sizes=exact_sizes)
    return build_condensed_graph(sets, table_cost_source(weights))


def dump_instance(sets: CandidateSets, weights: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {sets.n}\n")
        fh.write(f"m {sets.m}\n")
        for i, vs in enumerate(sets.vertex_sets):
            fh.write("V " + " ".join([str(i)] + [str(v) for v in vs]) + "\n")
        for j, es in enumerate(sets.edge_sets):
            fh.write("E " + " ".join([str(j)] + [str(p) for p in es]) + "\n")
        for (i1, v1, i2, v2, j), (w, best_p, direction) in sorted(weights.items()):
            fh.write(f"W {i1} {v1} {i2} {v2} {j} {w!r} {best_p} {direction}\n")


def load_instance(path):
    """Inverse of dump_instance; returns (CandidateSets, weight table).

    The n and m lines appear once with one value each, and W lines have
    eight values.  A V/E set is non-empty, its item ids non-negative and
    unique; every V/E index and W key appears once, and the W keys are
    exactly ``instance_keys``.  A W line's weight is finite, its predicate
    belongs to its edge set and its direction is 0 or 1.
    """
    header: dict[str, int] = {}
    sets_by_tag: dict[str, dict[int, tuple[int, ...]]] = {"V": {}, "E": {}}
    weights: dict = {}
    weight_lines: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            tag = fields[0]
            try:
                want = {"n": 1, "m": 1, "W": 8}.get(tag)  # values after the tag
                if want is not None and len(fields) - 1 != want:
                    raise ValueError(f"{tag} line has {len(fields) - 1} values, expected {want}")
                if tag in ("n", "m"):
                    if tag in header:
                        raise ValueError(f"repeated {tag} line")
                    header[tag] = int(fields[1])
                elif tag in sets_by_tag:
                    index = int(fields[1])
                    items = tuple(int(x) for x in fields[2:])
                    if not items:
                        raise ValueError(f"empty {tag} set {index}")
                    if index in sets_by_tag[tag]:
                        raise ValueError(f"repeated {tag} index {index}")
                    if any(x < 0 for x in items):
                        raise ValueError(f"negative item id in {tag} {index}")
                    if len(set(items)) != len(items):
                        raise ValueError(f"repeated item in {tag} {index}")
                    sets_by_tag[tag][index] = items
                elif tag == "W":
                    key = tuple(int(x) for x in fields[1:6])
                    if key in weights:
                        raise ValueError(f"repeated W key {key}")
                    weight, best_p, direction = float(fields[6]), int(fields[7]), int(fields[8])
                    if not math.isfinite(weight):
                        raise ValueError(f"non-finite weight {fields[6]}")
                    if direction not in (0, 1):
                        raise ValueError(f"direction {direction} is neither 0 nor 1")
                    weights[key] = (weight, best_p, direction)
                    weight_lines[key] = line_no
                else:
                    raise ValueError(f"unknown tag {tag!r}")
            except (IndexError, ValueError) as exc:
                raise ParseError(path, line_no, str(exc))
    if len(header) < 2:
        raise ParseError(path, 0, "missing n/m header")
    n, m = header["n"], header["m"]
    vertex_sets, edge_sets = sets_by_tag["V"], sets_by_tag["E"]
    if sorted(vertex_sets) != list(range(n)) or sorted(edge_sets) != list(range(m)):
        raise ParseError(path, 0, "vertex/edge set indices do not match n/m")
    sets = CandidateSets([vertex_sets[i] for i in range(n)], [edge_sets[j] for j in range(m)])
    expected = list(instance_keys(sets))
    missing = [key for key in expected if key not in weights]
    if missing:
        raise ParseError(path, 0, f"weight table incomplete, e.g. missing {missing[0]}")
    # every expected key is present and unique, so any further key is stray
    if len(weights) > len(expected):
        stray = min(weights.keys() - set(expected), key=weight_lines.get)
        raise ParseError(path, weight_lines[stray], f"W key {stray} names no vertex pair and edge set")
    for key, (_, best_p, _) in weights.items():  # in line order
        if best_p not in sets.edge_sets[key[4]]:
            raise ParseError(path, weight_lines[key], f"predicate {best_p} is not in edge set {key[4]}")
    return sets, weights


# -- lower-bound sweep ----------------------------------------------------------


@dataclass
class BenchRow:
    instance: int
    k: int
    n: int
    m: int
    bound: str
    cost: float
    stats: SolveStats
    wall_seconds: float


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


def bench_lower_bounds(instance_count: int, k_values=(5, 10), seed: int = 7) -> list[BenchRow]:
    """Run the solver under every bound on the same random instances; one
    row per instance and bound.

    Optimal costs must agree across bounds on every instance; disagreement
    raises immediately since it means an optimality bug.
    """
    rows = []
    for k, idx, graph in bench_instances(instance_count, k_values, seed):
        costs = {}
        for bound in BOUND_NAMES:
            t0 = time.perf_counter()
            q, stats = solve_qga(graph, bound=bound)
            wall = time.perf_counter() - t0
            costs[bound] = q.total_cost if q is not None else math.inf
            rows.append(BenchRow(idx, k, graph.sets.n, graph.sets.m, bound, costs[bound], stats, wall))
        if not math.isclose(min(costs.values()), max(costs.values()), rel_tol=1e-9, abs_tol=1e-9):
            raise AssertionError(f"optimal cost disagreement on instance {idx} (k={k}): {costs}")
    return rows

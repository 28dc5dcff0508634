"""Synthetic assembly instances: random generation, the weight-table cost
source, a replay format and the lower-bound sweep of ``qga bench``.

An instance is a ``CandidateSets`` plus a weight table: a dict keyed
(set1, v1, set2, v2, j) whose values are (weight, best_p, direction) for
that vertex pair and edge set.  The dump format is line-oriented text:

    n 3
    m 2
    V 0 10 11
    E 0 40 41
    W <set1> <v1> <set2> <v2> <j> <weight> <best_p> <dir>

with one W line per (vertex pair, edge set) combination.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .assembler import BOUND_NAMES, CandidateSets, SolveStats, build_condensed_graph, exact_costs, solve_qga
from .errors import ParseError


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
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for v1 in vertex_sets[i1]:
                for v2 in vertex_sets[i2]:
                    for j, preds in enumerate(edge_sets):
                        w = float(rng.random())
                        best_p = preds[int(rng.integers(0, len(preds)))]
                        direction = int(rng.integers(0, 2))
                        weights[(i1, v1, i2, v2, j)] = (w, best_p, direction)
    return sets, weights


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

    A V/E set is non-empty, its item ids non-negative and unique; every
    V/E index and W key appears once, and the W keys are exactly the
    instance's (vertex pair, edge set) combinations.  A W line's weight is finite, its
    predicate belongs to its edge set and its direction is 0 or 1.
    """
    n = m = None
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
                if tag == "n":
                    n = int(fields[1])
                elif tag == "m":
                    m = int(fields[1])
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
                    i1, v1, i2, v2, j = (int(x) for x in fields[1:6])
                    key = (i1, v1, i2, v2, j)
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
    if n is None or m is None:
        raise ParseError(path, 0, "missing n/m header")
    vertex_sets, edge_sets = sets_by_tag["V"], sets_by_tag["E"]
    if sorted(vertex_sets) != list(range(n)) or sorted(edge_sets) != list(range(m)):
        raise ParseError(path, 0, "vertex/edge set indices do not match n/m")
    sets = CandidateSets([vertex_sets[i] for i in range(n)], [edge_sets[j] for j in range(m)])
    expected = [
        (i1, v1, i2, v2, j)
        for i1 in range(n)
        for i2 in range(i1 + 1, n)
        for v1 in sets.vertex_sets[i1]
        for v2 in sets.vertex_sets[i2]
        for j in range(m)
    ]
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

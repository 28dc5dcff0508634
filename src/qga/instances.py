"""Synthetic assembly instances: random generation and a replay format.

The dump format is line-oriented text:

    n 3
    m 2
    V 0 10 11
    E 0 40 41
    W <set1> <v1> <set2> <v2> <j> <weight> <best_p> <dir>

with one W line per (vertex pair, edge set) combination.
"""

from __future__ import annotations

import math

import numpy as np

from .assembler import CandidateSets, build_condensed_graph, table_cost_source
from .errors import ParseError


def random_instance(rng: np.random.Generator, n: int, m: int, k: int, exact_sizes: bool = False):
    """Draw candidate sets with fresh ids and uniform [0,1) pair weights.

    Returns (CandidateSets, weight table dict).  ``exact_sizes`` makes every
    set carry exactly k candidates instead of 1..k.
    """
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

    Item ids are non-negative and unique within a set; every V/E index and
    W key appears once, and the W keys are exactly the instance's (vertex
    pair, edge set) combinations.  A W line's weight is finite, its
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

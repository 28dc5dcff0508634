"""Implicit relation prediction.

When the assembled query graph is disconnected (a relation keyword was
omitted), every pair of connected components gets a candidate edge labeled
with the cheapest (vertex, vertex, predicate) triple across the component
boundary, and a minimum spanning tree over the components supplies the
predicted edges.

Vertex sets that no assembled edge touched never had their candidate chosen
by cost; for those, prediction scans the whole candidate set and fixes the
vertex to the argmin of the first spanning-tree edge that reaches it.

An item without a vector cannot be scored.  Candidate vertices and catalog
predicates without one are left out of the search; a vertex pinned by
assembly must have one (``UnknownItemError`` otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembler import FREE_VAR, AssembledEdge, QueryGraph
from .embedding import condensed_edge_weights


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way; callers join two
    roots by pointing the larger at the smaller."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def connected_components(q: QueryGraph) -> list[list[int]]:
    """Partition of vertex-set indices by undirected edge reachability,
    ordered by smallest member."""
    n = len(q.vertices)
    parent = list(range(n))
    for e in q.all_edges:
        a, b = _find(parent, e.set1), _find(parent, e.set2)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(_find(parent, i), []).append(i)
    return [sorted(groups[r]) for r in sorted(groups)]


@dataclass
class PredictionEdge:
    comp1: int
    comp2: int
    weight: float
    set1: int
    vertex1: int
    set2: int
    vertex2: int
    predicate: int
    direction: int


@dataclass
class PredictionGraph:
    components: list[list[int]]
    edges: list[PredictionEdge]  # complete graph: r(r-1)/2 edges

    @property
    def r(self) -> int:
        return len(self.components)


def _candidate_vertices(q: QueryGraph, set_idx: int, table) -> list[int]:
    """Vertices prediction may use for one set: the chosen vertex when an
    assembled edge pinned it, otherwise the candidates that have a vector."""
    chosen = q.vertices[set_idx]
    constrained = any(set_idx in (e.set1, e.set2) for e in q.edges)
    if constrained or q.sets is None:
        if chosen == FREE_VAR:
            return []
        table.require(chosen)
        return [chosen]
    has, size = table.has, len(table.has)
    # the range test also drops FREE_VAR, which is negative
    return [v for v in q.sets.vertex_sets[set_idx] if 0 <= v < size and has[v]]


def _component_vertices(q: QueryGraph, comp: list[int], table) -> list[tuple[int, int]]:
    """(item id, set index) pairs usable as prediction endpoints, sorted by
    item id for deterministic tie breaks.  Free variables are skipped."""
    pairs = sorted(
        (v, i) for i in comp for v in _candidate_vertices(q, i, table)
    )
    if not pairs:
        raise ValueError("component has no concrete vertex with a vector to predict from")
    return pairs


def _best_bridge(table, predicates: np.ndarray, left, right):
    """Cheapest (v_i, v_j, p) over left x right x predicates.

    left/right are (item, set) pair lists sorted by item id, so the pairs
    run in (v_i, v_j) order and each pair's best predicate is the first
    minimum by id; taking the first minimum over the pairs realizes the
    (vertex id, vertex id, predicate id) tie break.
    """
    pairs = [(a, b) for a in left for b in right]
    v1 = np.array([a[0] for a, _ in pairs], dtype=np.int64)
    v2 = np.array([b[0] for _, b in pairs], dtype=np.int64)
    costs, best_p, dirs = condensed_edge_weights(table, v1, v2, predicates)
    k = int(np.argmin(costs))
    (vi, si), (vj, sj) = pairs[k]
    return float(costs[k]), int(si), int(vi), int(sj), int(vj), int(best_p[k]), int(dirs[k])


def _vectored_predicates(table, predicates) -> np.ndarray:
    """The catalog predicates that have a vector, sorted by id."""
    preds = np.array(sorted(predicates), dtype=np.int64)
    preds = preds[table.has_vector(preds)]
    if len(preds) == 0:
        raise ValueError("no predicate in the catalog has a vector")
    return preds


def build_prediction_graph(components, table, predicates, q: QueryGraph) -> PredictionGraph:
    """Weight every component pair with its cheapest cross-boundary triple.

    Ties break by (vertex id, vertex id, predicate id).
    """
    if len(components) < 2:
        raise ValueError("prediction needs at least two components")
    preds = _vectored_predicates(table, predicates)
    edges: list[PredictionEdge] = []
    for ci in range(len(components)):
        for cj in range(ci + 1, len(components)):
            w, s1, v1, s2, v2, p, direction = _best_bridge(
                table,
                preds,
                _component_vertices(q, components[ci], table),
                _component_vertices(q, components[cj], table),
            )
            edges.append(
                PredictionEdge(
                    comp1=ci,
                    comp2=cj,
                    weight=w,
                    set1=s1,
                    vertex1=v1,
                    set2=s2,
                    vertex2=v2,
                    predicate=p,
                    direction=direction,
                )
            )
    return PredictionGraph(components=components, edges=edges)


def minimum_spanning_tree(p: PredictionGraph) -> list[PredictionEdge]:
    """Kruskal over the component graph; ties by (weight, comp1, comp2)."""
    parent = list(range(p.r))
    tree = []
    for e in sorted(p.edges, key=lambda e: (e.weight, e.comp1, e.comp2)):
        a, b = _find(parent, e.comp1), _find(parent, e.comp2)
        if a != b:
            parent[max(a, b)] = min(a, b)
            tree.append(e)
    return tree


def mst_connect(p: PredictionGraph, q: QueryGraph, table, predicates) -> QueryGraph:
    """Add the spanning tree's labels to q.predicted_edges; q ends connected.

    Tree edges are realized in acceptance order.  The first edge reaching a
    set whose vertex was not pinned by assembly fixes that set's vertex to
    the edge's argmin; later tree edges must respect earlier fixes, so their
    labels are recomputed with the fixed endpoints when the precomputed
    label disagrees (possible only when a component bridges two others).
    """
    fixed: dict[int, int] = {}
    for e in q.edges:
        fixed[e.set1] = e.vertex1
        fixed[e.set2] = e.vertex2

    def realize(e: PredictionEdge) -> PredictionEdge:
        clash = (e.set1 in fixed and fixed[e.set1] != e.vertex1) or (
            e.set2 in fixed and fixed[e.set2] != e.vertex2
        )
        if not clash:
            return e
        preds = _vectored_predicates(table, predicates)
        left = [(fixed[e.set1], e.set1)] if e.set1 in fixed else [
            (v, e.set1) for v in sorted(_candidate_vertices(q, e.set1, table))
        ]
        right = [(fixed[e.set2], e.set2)] if e.set2 in fixed else [
            (v, e.set2) for v in sorted(_candidate_vertices(q, e.set2, table))
        ]
        w, s1, v1, s2, v2, pp, direction = _best_bridge(table, preds, left, right)
        return PredictionEdge(e.comp1, e.comp2, w, s1, v1, s2, v2, pp, direction)

    for edge in minimum_spanning_tree(p):
        edge = realize(edge)
        fixed.setdefault(edge.set1, edge.vertex1)
        fixed.setdefault(edge.set2, edge.vertex2)
        q.vertices[edge.set1] = fixed[edge.set1]
        q.vertices[edge.set2] = fixed[edge.set2]
        q.predicted_edges.append(
            AssembledEdge(
                set1=edge.set1,
                vertex1=fixed[edge.set1],
                set2=edge.set2,
                vertex2=fixed[edge.set2],
                predicate=edge.predicate,
                direction=edge.direction,
                weight=edge.weight,
                predicted=True,
            )
        )
    return q


def predict_missing_relations(q: QueryGraph, table, predicates) -> QueryGraph:
    """Connect q if needed; a no-op on already-connected graphs."""
    components = connected_components(q)
    if len(components) < 2:
        return q
    graph = build_prediction_graph(components, table, predicates, q)
    return mst_connect(graph, q, table, predicates)

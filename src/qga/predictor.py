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

import itertools

import numpy as np

from .assembler import FREE_VAR, AssembledEdge, QueryGraph
from .embedding import condensed_edge_weights
from .errors import QgaError, UnknownItemError


def _find(parent, x: int) -> int:
    """Union-find root of x in ``parent`` (a list or a dict), halving the
    path on the way; callers join two roots by pointing the larger at the
    smaller."""
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


def _pinned(q: QueryGraph) -> dict[int, int]:
    """Set index -> vertex for every set an assembled edge touches; every
    set when q carries no candidate sets to choose from."""
    if q.sets is None:
        return dict(enumerate(q.vertices))
    return {s: q.vertices[s] for e in q.edges for s in (e.set1, e.set2)}


def _endpoints(q: QueryGraph, s: int, fixed: dict, table) -> list[tuple[int, int]]:
    """(item id, set index) pairs prediction may bind set ``s`` to: its
    fixed vertex, or else its candidates that have a vector, sorted by id.
    A free variable gives none."""
    if s in fixed:
        if fixed[s] == FREE_VAR:
            return []
        table.require(fixed[s])
        return [(fixed[s], s)]
    has, size = table.has, len(table.has)
    # the range test also drops FREE_VAR, which is negative
    return sorted((v, s) for v in q.sets.vertex_sets[s] if 0 <= v < size and has[v])


def _best_bridge(table, predicates: list[int], left, right) -> AssembledEdge:
    """Cheapest (v_i, v_j, p) over left x right x predicates, as a predicted
    edge.

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
    return AssembledEdge(
        set1=int(si),
        vertex1=int(vi),
        set2=int(sj),
        vertex2=int(vj),
        predicate=int(best_p[k]),
        direction=int(dirs[k]),
        weight=float(costs[k]),
        predicted=True,
    )


def _vectored_predicates(table, predicates) -> list[int]:
    """The catalog predicates that have a vector, sorted by id, as Python
    ints: ``condensed_edge_weights`` sorts them again on every call, and
    ``sorted`` compares ints faster than numpy scalars."""
    preds = np.array(sorted(predicates), dtype=np.int64)
    if len(preds) == 0:
        raise QgaError("no predicate to predict a relation with: the catalog holds only the type predicate")
    preds = preds[table.has_vector(preds)]
    if len(preds) == 0:
        raise UnknownItemError("no predicate in the catalog has a vector")
    return preds.tolist()


def build_prediction_graph(components, table, predicates, q: QueryGraph) -> dict:
    """Label every component pair ``(ci, cj)``, ``ci < cj``, with its
    cheapest cross-boundary triple: ``{(ci, cj): AssembledEdge}``.

    Ties break by (vertex id, vertex id, predicate id).
    """
    if len(components) < 2:
        raise ValueError("prediction needs at least two components")
    preds = _vectored_predicates(table, predicates)
    fixed = _pinned(q)
    ends = [sorted(pair for s in comp for pair in _endpoints(q, s, fixed, table)) for comp in components]
    if not all(ends):
        raise UnknownItemError("component has no concrete vertex with a vector to predict from")
    return {
        (ci, cj): _best_bridge(table, preds, ends[ci], ends[cj])
        for ci, cj in itertools.combinations(range(len(components)), 2)
    }


def minimum_spanning_tree(edges: dict) -> list[AssembledEdge]:
    """Kruskal over build_prediction_graph's component pairs; ties by
    (weight, ci, cj)."""
    parent = {c: c for pair in edges for c in pair}
    tree = []
    for (ci, cj), e in sorted(edges.items(), key=lambda item: (item[1].weight, item[0])):
        a, b = _find(parent, ci), _find(parent, cj)
        if a != b:
            parent[max(a, b)] = min(a, b)
            tree.append(e)
    return tree


def mst_connect(edges: dict, q: QueryGraph, table, predicates) -> QueryGraph:
    """Add the spanning tree's labels to q.predicted_edges; q ends connected.

    Tree edges are realized in acceptance order.  The first edge reaching a
    set whose vertex was not pinned by assembly fixes that set's vertex to
    the edge's argmin; later tree edges must respect earlier fixes, so their
    labels are recomputed with the fixed endpoints when the precomputed
    label disagrees (possible only when a component bridges two others).
    """
    fixed = _pinned(q)
    for edge in minimum_spanning_tree(edges):
        if any(fixed.get(s, v) != v for s, v in ((edge.set1, edge.vertex1), (edge.set2, edge.vertex2))):
            preds = _vectored_predicates(table, predicates)
            ends = [_endpoints(q, s, fixed, table) for s in (edge.set1, edge.set2)]
            edge = _best_bridge(table, preds, *ends)
        fixed.setdefault(edge.set1, edge.vertex1)
        fixed.setdefault(edge.set2, edge.vertex2)
        q.vertices[edge.set1] = edge.vertex1
        q.vertices[edge.set2] = edge.vertex2
        q.predicted_edges.append(edge)
    return q


def predict_missing_relations(q: QueryGraph, table, predicates) -> QueryGraph:
    """Connect q if needed; a no-op on already-connected graphs."""
    components = connected_components(q)
    if len(components) < 2:
        return q
    edges = build_prediction_graph(components, table, predicates, q)
    return mst_connect(edges, q, table, predicates)

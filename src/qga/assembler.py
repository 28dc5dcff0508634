"""Query graph assembly: the condensed bipartite graph and its solver.

Assembling a query graph means choosing one vertex per candidate vertex set
and one predicate per candidate edge set, and wiring each chosen predicate to
a pair of chosen vertices at minimum total cost.  That is equivalent to a
minimum-cost size-m conflict-free matching on a bipartite graph whose left
nodes are vertex pairs and whose right nodes are the (condensed) edge sets.

The graph is held as flat arrays sorted by weight, so one query costs O(E)
memory; two crossing edges conflict when ``compatible_with`` says so, not
through a stored E x E matrix.  A large graph is sorted by proven intervals
around its edge costs and costs an edge only when the solver reads it
(``ensure_exact``); the order and every cost read are those of a graph
costed in full.  The solver is a best-first branch and bound
over partial matchings that generates each state's children lazily, with a
pluggable admissible lower bound (naive / km / greedy).  Edge costs come
from a cost source: ``embedding_cost_source`` on the query path, and
``instances.table_cost_source`` for every synthetic instance.  A
brute-force oracle, the solver's reference, lives here as well.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import kernels
from .embedding import DIR_FORWARD, condensed_edge_weights
from .errors import ResourceLimitError

FREE_VAR = -1  # synthetic vertex standing for an untyped variable


@dataclass
class CandidateSets:
    """Candidate vertex sets and predicate edge sets, in term order.

    Items inside a set are unique and ordered best-first (as produced by
    Phase-I); a synthetic free-variable set is ``(FREE_VAR,)``.
    """

    vertex_sets: list[tuple[int, ...]]
    edge_sets: list[tuple[int, ...]]

    @property
    def n(self) -> int:
        return len(self.vertex_sets)

    @property
    def m(self) -> int:
        return len(self.edge_sets)


def build_candidate_sets(aq) -> CandidateSets:
    """Split an annotated query into vertex sets and edge sets.

    When relation terms are present but fewer than two vertex sets exist,
    synthetic free-variable sets are appended so the relations have a pair
    of endpoints to bind; a free variable costs nothing to wire.
    """
    if not aq.terms:
        raise ValueError("annotated query has no terms")
    vertex_sets: list[tuple[int, ...]] = []
    edge_sets: list[tuple[int, ...]] = []
    for term in aq.terms:
        if term.character == "relation":
            edge_sets.append(term.candidates)
        else:
            vertex_sets.append(term.candidates)
    if edge_sets:
        while len(vertex_sets) < 2:
            vertex_sets.append((FREE_VAR,))
    return CandidateSets(vertex_sets, edge_sets)


UNBOUND = -2  # slot value for a set the left node does not touch; never an item id or FREE_VAR

# A graph with at most this many crossing edges is costed in full at build,
# with no bound kernel call: below it the kernel, the interval sort and the
# refine rounds cost more than the edges they leave uncosted.  Measured on
# the ambiguous workload's graphs cut to k candidates per vertex set (32
# dimensions, greedy bound, build plus solve): the lazy build loses 20-100 us
# per graph up to about 300 edges, is mixed between 300 and 500, and wins by
# 30-330 us from 600 edges on.  Every mini fixture graph has at most 10 edges.
EAGER_EDGES = 400
# A refine round scans at least this many positions: each round costs one
# ``exact`` call per edge set, whose fixed cost (about 10 us) is that of
# some 40 rows; 16, 32, 64 and 128 measured within 5% of each other.
REFINE_MIN_EDGES = 64


@dataclass
class _LazyCosts:
    """What a graph needs to cost its remaining edges: the cost source's
    ``exact(j, rows)``, whose rows are the left nodes, and per edge set the
    position before which every edge of the set is costed."""

    exact: object
    costed_to: list


@dataclass
class CondensedBipartiteGraph:
    """The condensed bipartite graph as a struct of arrays.

    Left node ``l`` wires the vertex pair ``left_nodes[l] = (set1, vertex1,
    set2, vertex2)``; ``slots[l, i]`` is its vertex in set ``i``, or UNBOUND
    for the n - 2 sets it does not touch.  Crossing edge ``e`` joins left
    node ``lefts[e]`` to edge set ``rights[e]``; edges are sorted by
    (weight, left, right).  Memory is O(E + L·n): conflicts are tested on
    demand by ``compatible_with``, through one cached mask over the left
    nodes per (set, vertex) it has met, at most L·Σ|V_i| bytes.

    Edge costs may be computed lazily: ``edge_weights`` holds NaN (and
    ``edge_best_p``/``edge_direction`` -1) for an edge not costed yet, and
    every edge before ``exact_upto`` is costed.  The solver calls
    ``ensure_exact`` before it reads an edge; ``weights``, ``best_p`` and
    ``direction`` cost every edge first, so any other reader sees exact,
    complete arrays.
    """

    sets: CandidateSets
    left_nodes: np.ndarray  # (L, 4) int64
    slots: np.ndarray  # (L, n) int64
    lefts: np.ndarray  # (E,) int64
    rights: np.ndarray  # (E,) int64
    edge_weights: np.ndarray  # (E,) float64, nondecreasing where costed
    edge_best_p: np.ndarray  # (E,) int64
    edge_direction: np.ndarray  # (E,) int8
    exact_upto: int = 0
    edges_costed: int = 0  # crossing edges whose cost source computed an exact cost
    lazy: _LazyCosts | None = None  # None once every edge is costed
    # (set, vertex) -> (L,) bool: the left nodes that do not clash with
    # vertex in set, filled by ``compatible_with`` as the search asks
    fits: dict = field(default_factory=dict, repr=False)

    @property
    def edges(self) -> range:
        """The crossing edge indices, in weight order."""
        return range(len(self.lefts))

    @property
    def weights(self) -> np.ndarray:
        ensure_exact(self, len(self.lefts))
        return self.edge_weights

    @property
    def best_p(self) -> np.ndarray:
        ensure_exact(self, len(self.lefts))
        return self.edge_best_p

    @property
    def direction(self) -> np.ndarray:
        ensure_exact(self, len(self.lefts))
        return self.edge_direction


def ensure_exact(graph: CondensedBipartiteGraph, upto: int, right: int | None = None) -> None:
    """Cost every edge before position ``upto``, or only those of edge set
    ``right`` when it is given.

    The solver calls it before it reads ``edge_weights``, ``edge_best_p``
    or ``edge_direction`` at a position below ``upto``.  Each edge set
    keeps a costed prefix of the weight order; one that must grow grows to
    at least twice its length and ``REFINE_MIN_EDGES``, so a graph takes
    O(m log E) ``exact`` calls.
    """
    if upto <= graph.exact_upto:
        return
    lazy = graph.lazy
    for r in range(graph.sets.m) if right is None else (right,):
        done = lazy.costed_to[r]
        if done < upto:
            grown = min(len(graph.lefts), max(upto, 2 * done, REFINE_MIN_EDGES))
            _cost_edges(graph, done + np.flatnonzero(graph.rights[done:grown] == r), r)
            lazy.costed_to[r] = grown
    graph.exact_upto = min(lazy.costed_to)
    if graph.exact_upto == len(graph.lefts):
        graph.lazy = None


def _cost_edges(graph: CondensedBipartiteGraph, at: np.ndarray, right: int) -> None:
    """Cost the edges of edge set ``right`` at positions ``at`` that have no cost yet."""
    at = at[np.isnan(graph.edge_weights[at])]
    if len(at):
        costs = graph.lazy.exact(right, graph.lefts[at])
        graph.edge_weights[at], graph.edge_best_p[at], graph.edge_direction[at] = costs
        graph.edges_costed += len(at)


def compatible_with(graph: CondensedBipartiteGraph, e: int, rest: np.ndarray) -> np.ndarray:
    """Mask over the edge indices ``rest``: True where the edge can join a
    matching that holds edge ``e``.  It needs another right node, another
    left node, and the same vertex wherever the two left nodes share a set."""
    left = graph.lefts[e]
    set1, vertex1, set2, vertex2 = graph.left_nodes[left].tolist()
    rest_lefts = graph.lefts[rest]
    ok = (_fits(graph, set1, vertex1) & _fits(graph, set2, vertex2))[rest_lefts]
    ok &= graph.rights[rest] != graph.rights[e]
    ok &= rest_lefts != left
    return ok


def _fits(graph: CondensedBipartiteGraph, s: int, v: int) -> np.ndarray:
    """Mask over the left nodes: True where set ``s`` is unbound or bound
    to vertex ``v``, i.e. no clash with a left node that binds v in s.
    Built on first use and kept for the graph's later searches."""
    fits = graph.fits.get((s, v))
    if fits is None:
        col = graph.slots[:, s]
        fits = graph.fits[(s, v)] = (col == UNBOUND) | (col == v)
    return fits


def build_condensed_graph(sets: CandidateSets, cost_source) -> CondensedBipartiteGraph:
    """Materialize every vertex pair, bound or cost every crossing edge, and sort.

    ``cost_source(set1, v1, set2, v2, edge_sets)`` is called once per
    graph, when it has an edge set and a left node that binds no free
    variable; its first four arguments are int64 arrays over the R such
    left nodes.  It returns ``(bounds, exact)``: ``bounds()`` gives
    ``(lower, upper)`` as (m, R) arrays, each cost proven to lie between
    them, and ``exact(j, rows)`` gives ``(weights, best_p, direction)``
    for edge set ``j`` on the rows that the numpy index ``rows`` (an int64
    array or a slice) selects.  Pairs involving a synthetic free variable
    are wired at zero cost with the smallest candidate predicate.

    A graph with a free-variable set or at most ``EAGER_EDGES`` edges is
    costed in full, and one stable argsort of the (L, m) weight grid, whose
    flat index is ``left * m + right``, gives the (weight, left, right)
    order.  Any other graph (whose R rows are then its L left nodes) is
    sorted by lower bound; wherever an edge's interval overlaps one before
    it, that run of edges is costed now and reordered by (weight, flat
    index).  Every other edge's interval lies strictly between its
    neighbours' costs, so the order is the same (weight, left, right)
    order, and the remaining edges are costed on demand by ``ensure_exact``.
    """
    n, m = sets.n, sets.m
    if m >= 1 and n < 2:
        raise ValueError("need at least two vertex sets to place predicate edges")
    vertex_sets = sets.vertex_sets
    # (i1, v1, i2, v2) for every vertex of set i1 against every vertex of
    # set i2, set pair by set pair: one outer product per set pair for the
    # kernel.  Each set pair fills a |V_i1| x |V_i2| block of the left nodes
    # and of the slots with broadcast column writes.
    pairs = list(itertools.combinations(range(n), 2))
    sizes = [len(vs) for vs in vertex_sets]
    num_left = sum(sizes[i1] * sizes[i2] for i1, i2 in pairs)
    vertices = [np.array(vs, dtype=np.int64) for vs in vertex_sets]
    left_nodes = np.empty((num_left, 4), dtype=np.int64)
    # empty + fill: on the few-node graphs of short queries, np.full's
    # Python wrapper costs more than the fill
    slots = np.empty((num_left, n), dtype=np.int64)
    slots.fill(UNBOUND)
    at = 0
    for i1, i2 in pairs:
        n1, n2 = sizes[i1], sizes[i2]
        end = at + n1 * n2
        nodes = left_nodes[at:end].reshape(n1, n2, 4)
        nodes[:, :, 0] = i1
        nodes[:, :, 1] = column = vertices[i1][:, None]
        nodes[:, :, 2] = i2
        nodes[:, :, 3] = vertices[i2]
        bound = slots[at:end].reshape(n1, n2, n)
        bound[:, :, i1] = column
        bound[:, :, i2] = vertices[i2]
        at = end
    set1, vertex1, set2, vertex2 = left_nodes.T

    weights = np.zeros((num_left, m))
    best_p = np.empty((num_left, m), dtype=np.int64)
    direction = np.empty((num_left, m), dtype=np.int8)
    direction.fill(DIR_FORWARD)
    free = None
    costed = slice(None)
    if any(FREE_VAR in vs for vs in vertex_sets):
        free = (vertex1 == FREE_VAR) | (vertex2 == FREE_VAR)
        costed = ~free
        for j, predicates in enumerate(sets.edge_sets):
            best_p[free, j] = min(predicates)
    costed_nodes = (set1[costed], vertex1[costed], set2[costed], vertex2[costed])
    lazy = free is None and num_left * m > EAGER_EDGES
    if m and len(costed_nodes[0]):
        bounds, exact = cost_source(*costed_nodes, sets.edge_sets)
        for j in range(0 if lazy else m):
            weights[costed, j], best_p[costed, j], direction[costed, j] = exact(j, slice(None))

    if lazy:
        lower, upper = (grid.T.ravel() for grid in bounds())
        weights.fill(np.nan)
        best_p.fill(-1)
        direction.fill(-1)
        order = np.argsort(lower)
    else:
        order = np.argsort(weights.ravel(), kind="stable")
    lefts, rights = np.divmod(order, max(m, 1))
    graph = CondensedBipartiteGraph(
        sets=sets,
        left_nodes=left_nodes,
        slots=slots,
        lefts=lefts,
        rights=rights,
        edge_weights=weights.ravel()[order],
        edge_best_p=best_p.ravel()[order],
        edge_direction=direction.ravel()[order],
        exact_upto=0 if lazy else len(order),
        edges_costed=0 if lazy else len(costed_nodes[0]) * m,
    )
    if lazy:
        graph.lazy = _LazyCosts(exact, [0] * m)
        _settle_overlaps(graph, order, lower[order], upper[order])
    return graph


def _settle_overlaps(graph: CondensedBipartiteGraph, order, lower, upper) -> None:
    """Cost and reorder the runs of edges whose intervals overlap.

    Edges are in lower-bound order.  Edge i + 1 joins the run of edge i
    when its lower bound is at most the largest upper bound so far; a run
    is costed and sorted by (weight, flat index).  Between runs every cost
    is strictly ordered by the intervals, so no edge needs to move across.
    """
    joined = lower[1:] <= np.maximum.accumulate(upper)[:-1]
    at = np.flatnonzero(joined)
    if not len(at):
        return
    members = np.union1d(at, at + 1)
    rights = graph.rights[members]
    for r in range(graph.sets.m):
        _cost_edges(graph, members[rights == r], r)
    starts = np.ones(len(members), dtype=bool)
    starts[1:] = ~joined[members[1:] - 1]
    perm = np.lexsort((order[members], graph.edge_weights[members], np.cumsum(starts)))
    for array in (graph.lefts, graph.rights, graph.edge_weights, graph.edge_best_p, graph.edge_direction):
        array[members] = array[members[perm]]


def embedding_cost_source(table):
    """Edge weights from translation embeddings: per left node and edge
    set, the cheapest predicate of the set and its direction.

    ``bounds`` is one ``kernels.pair_cost_bounds`` call over every edge
    set; ``exact`` is ``condensed_edge_weights`` on the rows asked for.
    """

    def source(set1, v1, set2, v2, edge_sets):
        if not all(map(len, edge_sets)):
            raise ValueError("empty predicate set")
        return (
            lambda: kernels.pair_cost_bounds(table.vectors, v1, v2, edge_sets),
            lambda j, rows: condensed_edge_weights(table, v1[rows], v2[rows], edge_sets[j]),
        )

    return source


# -- search states and lower bounds ----------------------------------------


@dataclass
class SearchState:
    """A partial matching plus the weight-sorted edges still compatible
    with it.  ``compatible`` only holds edges beyond the last matched one in
    the global sort order, so every matching is enumerated exactly once."""

    graph: CondensedBipartiteGraph
    matched: tuple[int, ...]
    compatible: np.ndarray
    cost: float


def naive_lb(state: SearchState, m: int) -> float:
    """cost(M) plus the (m - |M|) smallest compatible weights."""
    need = m - len(state.matched)
    if need <= 0:
        return state.cost
    z = state.compatible
    if len(z) < need:
        return math.inf
    ensure_exact(state.graph, int(z[need - 1]) + 1)
    return state.cost + float(state.graph.edge_weights[z[:need]].sum())


def greedy_lb(state: SearchState, m: int) -> float:
    """cost(M) plus a greedy per-relation completion estimate.

    Scans the compatible edges in nondecreasing weight order keeping the
    first (cheapest) edge seen for each unmatched right node.  Every
    completion must spend at least that much per relation, so the bound is
    admissible; all vertex-side constraints are ignored, keeping it a
    single cheap pass.
    """
    need = m - len(state.matched)
    if need <= 0:
        return state.cost
    z = state.compatible
    if len(z) < need:
        return math.inf
    graph = state.graph
    rights = graph.rights[z]
    first = {}  # per right node, in increasing order: its first compatible edge
    for r in range(m):
        hit = rights == r
        i = int(hit.argmax())
        if hit[i]:
            first[r] = i
    if len(first) < need:
        return math.inf
    for r, i in first.items():
        # right r alone: its first edge may lie deep in the weight order
        ensure_exact(graph, int(z[i]) + 1, r)
    return state.cost + float(graph.edge_weights[z[list(first.values())]].sum())


def km_lb(state: SearchState, m: int) -> float:
    """cost(M) plus the exact min-weight assignment of unmatched right nodes
    to distinct left nodes, ignoring vertex-set exclusivity."""
    need = m - len(state.matched)
    if need <= 0:
        return state.cost
    z = state.compatible
    if len(z) < need:
        return math.inf
    graph = state.graph
    ensure_exact(graph, int(z[-1]) + 1)
    zr = graph.rights[z]
    zl = graph.lefts[z]
    zw = graph.edge_weights[z]
    rows = np.unique(zr)
    if len(rows) < need:
        return math.inf
    cols = np.unique(zl)
    matrix = np.full((len(rows), len(cols)), math.inf)
    ri = np.searchsorted(rows, zr)
    ci = np.searchsorted(cols, zl)
    matrix[ri, ci] = zw
    _, total = hungarian_min_assignment(matrix)
    if total is None:
        return math.inf
    return state.cost + total


LOWER_BOUNDS = {"naive": naive_lb, "km": km_lb, "greedy": greedy_lb}
BOUND_NAMES = tuple(LOWER_BOUNDS)


def hungarian_min_assignment(costs):
    """Exact minimum assignment of each row to a distinct column.

    Entries may be +inf (forbidden).  Returns (columns by row, total) or
    (None, None) when no feasible full-row assignment exists (including
    r > c matrices).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    r, c = costs.shape
    if r == 0:
        return [], 0.0
    if r > c:
        return None, None
    try:
        rows, cols = linear_sum_assignment(costs)
    except ValueError:
        return None, None
    total = float(costs[rows, cols].sum())
    if not math.isfinite(total):
        return None, None
    order = np.argsort(rows)
    return [int(x) for x in cols[order]], total


# -- query graphs ------------------------------------------------------------


@dataclass
class AssembledEdge:
    set1: int
    vertex1: int
    set2: int
    vertex2: int
    predicate: int
    direction: int
    weight: float
    predicted: bool = False


@dataclass
class QueryGraph:
    """One chosen vertex per set plus the assembled (and later predicted)
    predicate edges."""

    vertices: list[int]
    edges: list[AssembledEdge]
    total_cost: float
    predicted_edges: list[AssembledEdge] = field(default_factory=list)
    sets: CandidateSets | None = None

    @property
    def all_edges(self) -> list[AssembledEdge]:
        return self.edges + self.predicted_edges

    @property
    def predicted_cost(self) -> float:
        return sum(e.weight for e in self.predicted_edges)


@dataclass
class SolveStats:
    """Search counters.  A search state is a partial matching.

    states_pushed: states put on the queue, the root included.  A child is
    put there when its sibling stream reaches it and its bound is finite.
    states_popped: states taken off the queue, i.e. expanded partial
    matchings; the pop that meets the incumbent and stops the search counts.
    states_pruned: children whose bound is infinite, plus states still
    queued when the search stops.  Siblings that a stream never reached are
    not counted.
    bound_evaluations: lower-bound calls, one per child materialized.
    Sibling-stream entries share the queue but are not states: no counter
    includes them.
    edges_costed: crossing edges of the graph whose exact cost the cost
    source has computed when the search ends, at build or on demand; the
    other edges were only ordered by their bounds.
    """

    states_pushed: int = 0
    states_popped: int = 0
    states_pruned: int = 0
    bound_evaluations: int = 0
    edges_costed: int = 0


def _graph_from_matched(graph: CondensedBipartiteGraph, matched: tuple[int, ...]) -> QueryGraph:
    sets = graph.sets
    chosen: list[int | None] = [None] * sets.n
    edges = []
    total = 0.0
    for idx in matched:
        ensure_exact(graph, idx + 1, int(graph.rights[idx]))
        set1, vertex1, set2, vertex2 = graph.left_nodes[graph.lefts[idx]].tolist()
        weight = float(graph.edge_weights[idx])
        chosen[set1] = vertex1
        chosen[set2] = vertex2
        total = total + weight
        edges.append(
            AssembledEdge(
                set1=set1,
                vertex1=vertex1,
                set2=set2,
                vertex2=vertex2,
                predicate=int(graph.edge_best_p[idx]),
                direction=int(graph.edge_direction[idx]),
                weight=weight,
            )
        )
    for i in range(sets.n):
        if chosen[i] is None:
            chosen[i] = sets.vertex_sets[i][0]
    edges.sort(key=lambda e: (e.set1, e.set2, e.predicate))
    return QueryGraph(vertices=chosen, edges=edges, total_cost=total, sets=sets)


def solve_qga(
    graph: CondensedBipartiteGraph,
    bound: str = "greedy",
    state_hook=None,
):
    """Best-first branch and bound for the minimum-cost size-m matching.

    Returns ``(QueryGraph, stats)`` or ``(None, stats)`` when no size-m
    matching exists.  Children are generated lazily (Lawler 1972): popping a
    state with ``need`` >= 2 unmatched relations queues one sibling stream
    over its compatible edges ``z``.  Stream entry ``t`` is keyed by
    ``cost + sum(w[z[t : t+need]])``, the naive bound with conflicts
    ignored, which is admissible for every child ``t' >= t`` and
    nondecreasing in ``t``.  Popping it materializes and bounds child ``t``
    and queues entry ``t + 1``.  A state with one unmatched relation
    completes with ``z[0]``, its cheapest compatible edge.

    The queue orders entries by key (ties: cost, then more matched edges,
    then insertion order — deeper first, so plateaus of equal bounds are
    explored depth-first); the search stops when the head's key reaches the
    incumbent.  ``state_hook`` is called with every popped state (used by
    the admissibility audit).  Every read of an edge's cost is preceded by
    ``ensure_exact`` for it, so a lazily costed graph costs only the edges
    the search reads.
    """
    if bound not in LOWER_BOUNDS:
        raise ValueError(f"unknown bound {bound!r}, expected one of {BOUND_NAMES}")
    lb_fn = LOWER_BOUNDS[bound]
    m = graph.sets.m
    stats = SolveStats()
    if m == 0:
        return _graph_from_matched(graph, ()), stats

    weights = graph.edge_weights
    root = SearchState(
        graph=graph,
        matched=(),
        compatible=np.arange(len(graph.lefts), dtype=np.int64),
        cost=0.0,
    )
    # entries: (key, cost, -depth, seq, state, t); t < 0 marks a state,
    # t >= 0 the sibling stream of the state's children t, t + 1, ...
    heap = [(0.0, 0.0, 0, 0, root, -1)]
    seq = itertools.count(1)
    stats.states_pushed = 1
    theta = math.inf
    best: tuple[int, ...] | None = None

    def push_siblings(state: SearchState, t: int) -> None:
        z = state.compatible
        need = m - len(state.matched)
        if t + need > len(z):
            return
        ensure_exact(graph, int(z[t + need - 1]) + 1)
        # summed as naive_lb sums child t's bound, so the key never exceeds it
        cost = state.cost + float(weights[z[t]])
        key = cost + float(weights[z[t + 1 : t + need]].sum())
        if key < theta:
            heapq.heappush(heap, (key, cost, -len(state.matched) - 1, next(seq), state, t))

    while heap:
        key, _, _, _, state, t = heapq.heappop(heap)
        if t < 0:
            stats.states_popped += 1
            if state_hook is not None:
                state_hook(state)
        if key >= theta:
            break
        z = state.compatible
        if t < 0:
            if m - len(state.matched) > 1:
                push_siblings(state, 0)
            elif len(z):
                ensure_exact(graph, int(z[0]) + 1, int(graph.rights[z[0]]))
                cost = state.cost + float(weights[z[0]])
                if cost < theta:
                    theta = cost
                    best = state.matched + (int(z[0]),)
            continue
        e = int(z[t])  # costed when entry t was keyed
        rest = z[t + 1 :]
        child = SearchState(
            graph=graph,
            matched=state.matched + (e,),
            compatible=rest[compatible_with(graph, e, rest)],
            cost=state.cost + float(weights[e]),
        )
        lower_bound = lb_fn(child, m)
        stats.bound_evaluations += 1
        if math.isinf(lower_bound):
            stats.states_pruned += 1
        else:
            heapq.heappush(
                heap,
                (lower_bound, child.cost, -len(child.matched), next(seq), child, -1),
            )
            stats.states_pushed += 1
        push_siblings(state, t + 1)

    stats.states_pruned += sum(1 for entry in heap if entry[5] < 0)
    query_graph = None if best is None else _graph_from_matched(graph, best)
    stats.edges_costed = graph.edges_costed
    return query_graph, stats


def brute_force_oracle(graph: CondensedBipartiteGraph, cap: int = 10_000_000):
    """Exhaustive optimum over vertex choices x injective pair assignments.

    Returns (cost, QueryGraph) or (math.inf, None) when infeasible.  Raises
    ResourceLimitError when the enumeration would exceed ``cap`` states.
    """
    sets = graph.sets
    n, m = sets.n, sets.m
    if m == 0:
        return 0.0, _graph_from_matched(graph, ())
    pair_sets = list(itertools.combinations(range(n), 2))
    space = 1
    for vs in sets.vertex_sets:
        space *= len(vs)
    perm_count = 1
    for i in range(m):
        perm_count *= max(len(pair_sets) - i, 0)
    space *= perm_count
    if space > cap:
        raise ResourceLimitError(f"oracle search space {space} exceeds cap {cap}")
    if m > len(pair_sets):
        return math.inf, None

    # the left node of each vertex pair, and the edge index of each flat
    # cell left * m + right: the inverse of the build's sort order
    left_of = {tuple(node): left for left, node in enumerate(graph.left_nodes.tolist())}
    edge_of = np.argsort(graph.lefts * m + graph.rights).tolist()
    weights = graph.weights.tolist()

    best_cost = math.inf
    best_edges: list[int] | None = None
    for combo in itertools.product(*sets.vertex_sets):
        for assignment in itertools.permutations(pair_sets, m):
            cost = 0.0
            edges = []
            for j, (i1, i2) in enumerate(assignment):
                e = edge_of[left_of[(i1, combo[i1], i2, combo[i2])] * m + j]
                cost += weights[e]
                edges.append(e)
            if cost < best_cost:
                best_cost = cost
                best_edges = edges

    if best_edges is None:
        return math.inf, None
    return best_cost, _graph_from_matched(graph, tuple(sorted(best_edges)))


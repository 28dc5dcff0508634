"""Translation embeddings and the triple assembly cost.

Training follows the classic margin-ranking recipe: for each stored triple,
corrupt the subject or the object (uniformly, skipping accidental positives),
and push the true triple's translation residual below the corrupted one's by
at least the margin.  Entity/class vectors are renormalized to unit length
after every epoch; predicate vectors are normalized once at initialization.

The assembly cost of wiring vertices v1, v2 with predicate p is the smaller
of the two directed L2 residuals |v1 + p - v2| and |v2 + p - v1|, together
with the direction that attained it; ties go to the forward direction, so
the cost is exactly symmetric in v1 and v2.  A condensed edge weight is the
minimum of that cost over a predicate set, the predicate ties broken by id.
``condensed_edge_weights`` computes it for many vertex pairs with one call
to ``kernels.pair_costs``, which scores the whole pairs x predicates grid.
Scoring computes each residual as ``(v1 - v2) + p`` forward and
``(v1 - v2) - p`` reverse, training as ``(s + p) - o``; both sum a
residual's squares left to right, so a pair costs the same bits alone as
inside a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import QgaError, UnknownItemError, VectorFormatError
from .store import KIND_PREDICATE, KnowledgeGraph

DIR_FORWARD = 0  # triple reads (v1, p, v2)
DIR_REVERSE = 1  # triple reads (v2, p, v1)

NEGATIVE_TRIES = 100  # draws per corrupted triple before the last one stands


@dataclass
class TrainConfig:
    dim: int = 32
    epochs: int = 200
    learning_rate: float = 0.01
    margin: float = 1.0
    seed: int = 0

    def validate(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        # nan passes a "<= 0" test, and nan or inf poisons every vector
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValueError("margin must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class EmbeddingTable:
    """Vectors for every item id; rows without a vector have ``has[i]=False``."""

    dim: int
    vectors: np.ndarray
    has: np.ndarray
    final_loss: float = 0.0
    items: list[str] = field(default_factory=list)

    def vector(self, item: int) -> np.ndarray:
        if not (0 <= item < self.vectors.shape[0]) or not self.has[item]:
            raise UnknownItemError(f"no vector for item id {item!r}")
        return self.vectors[item]

    def has_vector(self, ids) -> np.ndarray:
        """Boolean mask over a 1-d id array: True where the item has a vector."""
        ids = np.asarray(ids, dtype=np.int64)
        ok = (ids >= 0) & (ids < self.vectors.shape[0])
        ok[ok] = self.has[ids[ok]]
        return ok

    def require(self, *ids):
        """Raise UnknownItemError for the first item id, in argument order,
        that has no vector."""
        for i in ids:
            self.vector(i)


def _init_table(kg: KnowledgeGraph, config: TrainConfig) -> tuple[EmbeddingTable, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    n = kg.num_items()
    bound = 6.0 / np.sqrt(config.dim)
    vectors = rng.uniform(-bound, bound, size=(n, config.dim))
    pred_mask = np.array([k == KIND_PREDICATE for k in kg.kinds])
    _renormalize(vectors, pred_mask)
    table = EmbeddingTable(
        dim=config.dim,
        vectors=vectors,
        has=np.ones(n, dtype=bool),
        items=list(kg.items),
    )
    return table, ~pred_mask


def _renormalize(vectors: np.ndarray, mask: np.ndarray) -> None:
    norms = np.linalg.norm(vectors[mask], axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    vectors[mask] = vectors[mask] / norms


def _sample_negatives(rng, pos, vertex_ids, positive_set):
    """Corrupt subject or object of each triple, avoiding stored positives.

    vertex_ids is a list.  The replacement indices come in blocks:
    ``rng.integers(0, n, size=k)`` yields the same values and leaves the
    generator in the same state as k scalar ``rng.integers(0, n)`` calls.
    A block is drawn when the last one is used up at row i, and it holds
    ``len(rows) - i`` draws: every row from i on takes at least one, so a
    block never overdraws, and the epoch leaves the generator where one
    scalar draw per try would.
    """
    rows = pos.tolist()
    # 0: corrupt subject, 1: corrupt object
    sides = rng.integers(0, 2, size=len(rows)).tolist()
    block = iter(())
    for i, (row, side) in enumerate(zip(rows, sides)):
        col = 0 if side == 0 else 2
        orig = row[col]
        for _ in range(NEGATIVE_TRIES):
            j = next(block, None)
            if j is None:
                block = iter(rng.integers(0, len(vertex_ids), size=len(rows) - i).tolist())
                j = next(block)
            repl = vertex_ids[j]
            if repl == orig:
                continue
            row[col] = repl
            if tuple(row) not in positive_set:
                break
        # on exhaustion the last draw stands, filtered or not
    return np.array(rows, dtype=np.int64)


def train_transe(kg: KnowledgeGraph, config: TrainConfig | None = None) -> EmbeddingTable:
    """Train translation embeddings over the whole store.

    Deterministic for a fixed seed: single-threaded SGD, all randomness from
    one seeded generator.  ``epochs=0`` returns the seeded initialization
    unchanged.  The mean hinge loss of the last epoch is stored on the table.
    """
    config = config or TrainConfig()
    config.validate()
    if not kg.triples:
        raise QgaError("cannot train on an empty graph")

    table, vertex_mask = _init_table(kg, config)
    rng = np.random.default_rng(config.seed + 1)
    pos_all = np.array(kg.triples, dtype=np.int64)
    vertex_ids = kg.vertices
    positive_set = set(kg.triples)

    loss = 0.0
    for _ in range(config.epochs):
        order = rng.permutation(pos_all.shape[0])
        pos = pos_all[order]
        neg = _sample_negatives(rng, pos, vertex_ids, positive_set)
        loss = kernels.sgd_epoch(
            table.vectors, pos, neg, config.learning_rate, config.margin
        )
        _renormalize(table.vectors, vertex_mask)
    table.final_loss = float(loss)
    return table


# -- persistence ------------------------------------------------------------


def save_table(table: EmbeddingTable, path) -> None:
    """Write ``dim=<d>`` then one ``iri<TAB>f1 f2 ... fd`` row per item,
    using shortest round-trip float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={table.dim}\n")
        for item, iri in enumerate(table.items):
            if not table.has[item]:
                continue
            row = " ".join(repr(float(x)) for x in table.vectors[item])
            fh.write(f"{iri}\t{row}\n")


def load_table(path, kg: KnowledgeGraph) -> EmbeddingTable:
    """Load a vector file, binding rows to the store's item ids."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("dim="):
            raise VectorFormatError(f"{path}: missing dim= header")
        try:
            dim = int(header[4:])
        except ValueError:
            raise VectorFormatError(f"{path}: bad dim header {header!r}")
        if dim < 1:
            raise VectorFormatError(f"{path}: bad dim {dim}")
        vectors = np.zeros((kg.num_items(), dim))
        has = np.zeros(kg.num_items(), dtype=bool)
        for line_no, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise VectorFormatError(f"{path}:{line_no}: expected iri<TAB>floats")
            iri, row = fields
            try:
                item = kg.id_of(iri)
            except UnknownItemError:
                raise UnknownItemError(f"{path}:{line_no}: unknown IRI {iri!r}")
            if has[item]:  # a second row would silently replace the first
                raise VectorFormatError(f"{path}:{line_no}: repeated IRI {iri!r}")
            values = row.split()
            if len(values) != dim:
                raise VectorFormatError(
                    f"{path}:{line_no}: expected {dim} floats, got {len(values)}"
                )
            try:
                row_values = [float(v) for v in values]
            except ValueError as exc:
                raise VectorFormatError(f"{path}:{line_no}: {exc}")
            # nan or inf would poison every cost the item takes part in
            if not all(map(math.isfinite, row_values)):
                raise VectorFormatError(f"{path}:{line_no}: nan or inf in vector")
            vectors[item] = row_values
            has[item] = True
    return EmbeddingTable(dim=dim, vectors=vectors, has=has, items=list(kg.items))


# -- assembly cost ----------------------------------------------------------


def condensed_edge_weights(table: EmbeddingTable, v1, v2, predicates):
    """The condensed edge weight of each vertex pair over ``predicates``.

    One kernel call covers the pairs x predicates grid; the argmin runs per
    pair over the id-sorted predicates, so predicate ties break by id.
    Returns (costs, best predicates, directions) arrays aligned with
    ``v1``/``v2``.

    No id is checked for a vector: every caller has already dropped the
    ids without one (``answer_keywords`` its unvectored candidates, the
    predictor its unvectored endpoints and predicates), and an id without
    one would be scored as a zero vector.
    """
    preds = np.array(sorted(predicates), dtype=np.int64)
    if not len(preds):
        raise ValueError("empty predicate set")
    costs, dirs = kernels.pair_costs(table.vectors, v1, v2, preds)
    best = costs.argmin(axis=1)
    pairs = np.arange(len(best))
    return costs[pairs, best], preds[best], dirs[pairs, best]

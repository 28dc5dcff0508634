"""Keyword search over RDF-style knowledge graphs via query graph assembly."""

from .assembler import (
    BOUND_NAMES,
    CandidateSets,
    CondensedBipartiteGraph,
    QueryGraph,
    SearchState,
    SolveStats,
    brute_force_oracle,
    build_candidate_sets,
    build_condensed_graph,
    greedy_lb,
    hungarian_min_assignment,
    km_lb,
    naive_lb,
    reduce_3sat,
    solve_qga,
)
from .embedding import (
    EmbeddingTable,
    TrainConfig,
    condensed_edge_weight,
    load_table,
    save_table,
    train_transe,
    triple_assembly_cost,
)
from .errors import QgaError
from .lexicon import (
    AnnotatedQuery,
    CandidateTerm,
    Lexicon,
    build_lexicon,
    build_term_graph,
    enumerate_maximal_cliques,
    generate_candidate_terms,
    rank_segmentations,
)
from .instances import bench_lower_bounds
from .pipeline import PipelineConfig, answer_keywords
from .predictor import build_prediction_graph, connected_components, mst_connect
from .sparql import StructuredQuery, emit_sparql, evaluate_bgp
from .store import KnowledgeGraph, load_triples

__version__ = "0.1.0"

__all__ = [
    "BOUND_NAMES",
    "AnnotatedQuery",
    "CandidateSets",
    "CandidateTerm",
    "CondensedBipartiteGraph",
    "EmbeddingTable",
    "KnowledgeGraph",
    "Lexicon",
    "PipelineConfig",
    "QgaError",
    "QueryGraph",
    "SearchState",
    "SolveStats",
    "StructuredQuery",
    "TrainConfig",
    "answer_keywords",
    "bench_lower_bounds",
    "brute_force_oracle",
    "build_candidate_sets",
    "build_condensed_graph",
    "build_lexicon",
    "build_prediction_graph",
    "build_term_graph",
    "condensed_edge_weight",
    "connected_components",
    "emit_sparql",
    "enumerate_maximal_cliques",
    "evaluate_bgp",
    "generate_candidate_terms",
    "greedy_lb",
    "hungarian_min_assignment",
    "km_lb",
    "load_table",
    "load_triples",
    "mst_connect",
    "naive_lb",
    "rank_segmentations",
    "reduce_3sat",
    "save_table",
    "solve_qga",
    "train_transe",
    "triple_assembly_cost",
]

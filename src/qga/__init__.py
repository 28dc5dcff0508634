"""Keyword search over RDF-style knowledge graphs via query graph assembly."""

from .embedding import EmbeddingTable, TrainConfig, load_table, save_table, train_transe
from .errors import QgaError
from .lexicon import Lexicon, build_lexicon
from .pipeline import CandidateResult, PipelineConfig, PipelineResult, answer_keywords
from .sparql import StructuredQuery, emit_sparql, evaluate_bgp
from .store import KnowledgeGraph, load_triples

__version__ = "0.1.0"

__all__ = [
    "load_triples",
    "KnowledgeGraph",
    "build_lexicon",
    "Lexicon",
    "train_transe",
    "TrainConfig",
    "load_table",
    "save_table",
    "EmbeddingTable",
    "PipelineConfig",
    "answer_keywords",
    "PipelineResult",
    "CandidateResult",
    "emit_sparql",
    "evaluate_bgp",
    "StructuredQuery",
    "QgaError",
]

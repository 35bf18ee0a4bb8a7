"""Pipeline engine and CLI for cleaning, enriching and splitting
heterogeneous biomedical knowledge graphs."""

__version__ = "0.1.0"

from .model import EntityRef, KnowledgeGraph, RelationRef, StageLog

__all__ = [
    "EntityRef",
    "KnowledgeGraph",
    "RelationRef",
    "StageLog",
    "__version__",
]

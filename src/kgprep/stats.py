"""Graph statistics: node counts per (type, source), edge counts per
(directed type signature, origin), and the stage-log sequence."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat

from .model import KnowledgeGraph, StageLog, scatter


@dataclass
class StatsReport:
    node_total: int
    edge_total: int
    nodes_by_type_source: list[dict]
    edges_by_signature_origin: list[dict]
    stages: list[StageLog] = field(default_factory=list)
    wall_time_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "nodes": {
                "total": self.node_total,
                "by_type_source": self.nodes_by_type_source,
            },
            "edges": {
                "total": self.edge_total,
                "by_signature_origin": self.edges_by_signature_origin,
            },
            "stages": [s.to_dict() for s in self.stages],
            "wall_time_seconds": self.wall_time_seconds,
        }


def compute_stats(g: KnowledgeGraph) -> StatsReport:
    """Breakdown tables with deterministic row order (lexicographic keys);
    totals always equal the sums of their breakdowns."""
    # 1 for each entity id that is a row endpoint: no node-id set is built to count
    endpoint = bytearray(len(g.vocab.entities))
    for column in (g.heads, g.tails):
        scatter(endpoint, column, repeat(1))
    node_counter = Counter((n.entity_type, n.source) for n in compress(g.vocab.entities, endpoint))
    relations = g.vocab.relations
    edge_counter: Counter = Counter()
    for r, count in Counter(g.relations).items():
        rel = relations[r]
        edge_counter[(f"{rel.head_type}:{rel.tail_type}", rel.origin)] += count
    nodes = [
        {"type": etype, "source": source, "count": count}
        for (etype, source), count in sorted(node_counter.items())
    ]
    edges = [
        {"signature": signature, "origin": origin, "count": count}
        for (signature, origin), count in sorted(edge_counter.items())
    ]
    return StatsReport(
        node_total=endpoint.count(1),
        edge_total=len(g),
        nodes_by_type_source=nodes,
        edges_by_signature_origin=edges,
    )

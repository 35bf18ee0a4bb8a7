"""Format-defect filtering, relation harmonization and non-human pruning.

Each operation is an independently toggleable row-local stage: it takes
the graph and its tables, decides once per distinct entity or relation id,
applies the decisions to the graph's id columns, and returns the new graph
with its per-defect counters.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from importlib import resources
from pathlib import Path

from .config import DEFAULT_BANNED_LABELS, DEFAULT_DROP_TYPES
from .errors import ParseError, StageError
from .ingest import HARMONIZATION_SCHEMA, parse_entity, read_rows
from .model import ENTITY_TYPE_ALIASES, KnowledgeGraph, RelationRef, marks

log = logging.getLogger(__name__)

# Canonical labels introduced by the enrichment stages; harmonization must
# leave them untouched when re-run on an enriched graph.
ENRICHMENT_LABELS = frozenset({"GENE_PATHWAY", "SIDE_EFFECT"})

HUMAN_TAGS = frozenset({"human", "9606", "homo sapiens"})


@dataclass(frozen=True)
class HarmonizationTable:
    """(origin, label, head_type, tail_type) -> canonical relation label.

    Shipped as a versioned data file so corrections never require a rebuild.
    Origin and label are matched case-insensitively; endpoint types are exact.
    """

    mapping: dict[tuple[str, str, str, str], str]
    canonical_labels: frozenset[str]

    @classmethod
    def from_rows(cls, rows: list[tuple[str, str, str, str, str]]) -> "HarmonizationTable":
        mapping: dict[tuple[str, str, str, str], str] = {}
        for origin, label, head_t, tail_t, canonical in rows:
            head = ENTITY_TYPE_ALIASES.get(head_t)
            tail = ENTITY_TYPE_ALIASES.get(tail_t)
            if head is None or tail is None:
                raise ParseError(
                    f"harmonization row ({origin}, {label}): unknown endpoint "
                    f"type {head_t!r} or {tail_t!r}"
                )
            key = (origin.casefold(), label.casefold(), head, tail)
            if key in mapping and mapping[key] != canonical:
                raise ParseError(
                    f"harmonization key {key} maps to both "
                    f"{mapping[key]!r} and {canonical!r}"
                )
            mapping[key] = canonical
        canon = frozenset(mapping.values()) | ENRICHMENT_LABELS
        return cls(mapping, canon)

    @classmethod
    def from_file(cls, path: str | Path) -> "HarmonizationTable":
        return cls.from_rows(read_rows(path, HARMONIZATION_SCHEMA))

    @classmethod
    def builtin(cls) -> "HarmonizationTable":
        ref = resources.files("kgprep").joinpath("data/harmonization.tsv")
        with resources.as_file(ref) as path:
            return cls.from_file(path)

    def lookup(self, relation: RelationRef) -> str | None:
        """The label the table maps the relation's key to, or None."""
        return self.mapping.get(
            (
                relation.origin.casefold(),
                relation.label.casefold(),
                relation.head_type,
                relation.tail_type,
            )
        )

    def canonical(self, relation: RelationRef) -> str | None:
        """The relation's canonical label: its own label when that is
        already canonical, else the label the table maps it to, else None."""
        if relation.label in self.canonical_labels:
            return relation.label
        return self.lookup(relation)

    def canon_label(self, relation: RelationRef):
        """Canonical form used for equality: the canonical label when there
        is one, otherwise the (origin, label) pair itself. With an empty
        table this degenerates to raw-relation identity."""
        label = self.canonical(relation)
        if label is None:
            return ("raw", relation.origin, relation.label)
        return ("label", label)


def filter_malformed(g: KnowledgeGraph) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Drop every triplet whose head or tail text contains ';' or '|'.

    Only endpoint fields are inspected; such characters mark entities that
    were erroneously merged into a single node upstream.
    """
    # per entity, 2 for a ';' and 1 for a '|'; a row with both counts as ';'
    marked = bytes(2 * (";" in e.text) | ("|" in e.text) for e in g.vocab.entities)
    codes = g.flags(entity=marked)
    return g.where(marks(codes, 0)), {
        "semicolon_rows": marks(codes, 2, 3).count(1),
        "pipe_rows": codes.count(1),
    }


def harmonize(
    g: KnowledgeGraph, table: HarmonizationTable, strict: bool = False
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Replace each relation label with its canonical label.

    Already-canonical labels pass through, which makes the operation
    idempotent. Unknown keys pass through in lenient mode, each logged at
    DEBUG and all counted in one INFO line, and are fatal in strict mode.
    Each distinct relation is looked up once, in order of first appearance.
    """
    details = {"labels_rewritten": 0, "unmapped_rows": 0}
    unmapped = 0
    relations = g.vocab.relations
    canonical = list(range(len(relations)))
    for r, rows in Counter(g.relations).items():
        rel = relations[r]
        label = table.canonical(rel)
        if label == rel.label:
            continue
        if label is not None:
            canonical[r] = relations.id_of(rel.with_label(label))
            details["labels_rewritten"] += rows
        elif strict:
            raise StageError(
                "harmonize: no canonical label for "
                f"({rel.origin}, {rel.label}, {rel.head_type}, "
                f"{rel.tail_type}) in strict mode"
            )
        else:
            log.debug("harmonize: passing through unmapped relation %s", rel)
            details["unmapped_rows"] += rows
            unmapped += 1
    if unmapped:
        log.info(
            "harmonize: passed through %d unmapped relations on %d rows",
            unmapped, details["unmapped_rows"],
        )
    return g.mapped(relation=canonical if details["labels_rewritten"] else None), details


@dataclass(frozen=True)
class NonHumanSpec:
    """What the non-human filter removes: a closed, configurable list of
    banned relation labels, plus any Vir-prefixed label when enabled."""

    banned_labels: frozenset[str] = frozenset(DEFAULT_BANNED_LABELS)
    ban_vir_prefix: bool = True

    def is_banned(self, label: str) -> bool:
        return label in self.banned_labels or (
            self.ban_vir_prefix and label.startswith("Vir")
        )


def remove_nonhuman(
    g: KnowledgeGraph,
    spec: NonHumanSpec | None = None,
    taxonomy: dict[str, str] | None = None,
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Remove banned-relation rows, then every non-human gene node with its
    incident rows. Genes absent from the taxonomy table default to human, so
    missing evidence never deletes anything. ``nonhuman_genes_removed``
    counts the distinct non-human genes on rows that survive the ban.
    """
    spec = spec or NonHumanSpec()
    tags = {parse_entity(text): tag.casefold() for text, tag in (taxonomy or {}).items()}
    entities = g.vocab.entities
    # per entity, 1 for a non-human gene; per relation, 2 for a banned label
    nonhuman = bytearray(len(entities))
    for node, tag in tags.items():
        e = entities.ids.get(node)
        if e is not None and node.entity_type == "Gene" and tag not in HUMAN_TAGS:
            nonhuman[e] = 1
    banned = bytes(2 * spec.is_banned(r.label) for r in g.vocab.relations)
    codes = g.flags(entity=nonhuman, relation=banned)
    on_gene_rows = marks(codes, 1)
    removed = set(compress(g.heads, on_gene_rows)).union(compress(g.tails, on_gene_rows))
    return g.where(marks(codes, 0)), {
        "banned_relation_rows": marks(codes, 2, 3).count(1),
        "nonhuman_gene_rows": on_gene_rows.count(1),
        "nonhuman_genes_removed": sum(map(nonhuman.__getitem__, removed)),
    }


def drop_entity_types(
    g: KnowledgeGraph, types=DEFAULT_DROP_TYPES
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Remove every node of the listed categories along with incident rows.
    Pathways dropped here are re-integrated by the enrichment stage."""
    doomed = frozenset(types)
    entities = g.vocab.entities
    dropped = bytes(e.entity_type in doomed for e in entities)
    rows = g.flags(entity=dropped)
    # every node of a listed type is on a removed row
    on_rows = set(compress(g.heads, rows)).union(compress(g.tails, rows))
    removed = Counter(entities[e].entity_type for e in on_rows if dropped[e])
    details = {"nodes_removed": sum(removed.values())}
    for etype in sorted(doomed):
        details[f"nodes_removed_{etype}"] = removed[etype]
    return g.where(marks(rows, 0)), details

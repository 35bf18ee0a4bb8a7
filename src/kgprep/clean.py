"""Format-defect filtering, relation harmonization and non-human pruning.

Each operation is an independently toggleable row-local stage: it takes
the graph and its tables, passes every row once through a step (row in, row
or None out), and returns the new graph with the per-defect counters the
step filled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ParseError, StageError
from .ingest import HARMONIZATION_SCHEMA, parse_entity, read_rows
from .model import ENTITY_TYPE_ALIASES, EntityRef, KnowledgeGraph, RelationRef, Triplet

log = logging.getLogger(__name__)

# Canonical labels introduced by the enrichment stages; harmonization must
# leave them untouched when re-run on an enriched graph.
ENRICHMENT_LABELS = frozenset({"GENE_PATHWAY", "SIDE_EFFECT"})

# Relation labels dropped by the non-human filter when no override is given.
DEFAULT_BANNED_LABELS = frozenset({"VirGenHumGen", "DrugVirGen"})

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
    details = {"semicolon_rows": 0, "pipe_rows": 0}

    def step(t: Triplet) -> Triplet | None:
        endpoint_text = t.head.text + t.tail.text
        if ";" in endpoint_text:
            details["semicolon_rows"] += 1
        elif "|" in endpoint_text:
            details["pipe_rows"] += 1
        else:
            return t
        return None

    return g.map_rows(step), details


def harmonize(
    g: KnowledgeGraph, table: HarmonizationTable, strict: bool = False
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Replace each relation label with its canonical label.

    Already-canonical labels pass through, which makes the operation
    idempotent. Unknown keys pass through with a warning in lenient mode and
    are fatal in strict mode.
    """
    details = {"labels_rewritten": 0, "unmapped_rows": 0}
    # (replacement or None, counts-as-unmapped) memoized per distinct relation
    cache: dict[RelationRef, tuple[RelationRef | None, bool]] = {}

    def step(t: Triplet) -> Triplet:
        rel = t.relation
        hit = cache.get(rel)
        if hit is None:
            label = table.canonical(rel)
            if label == rel.label:
                hit = (None, False)
            elif label is not None:
                hit = (rel.with_label(label), False)
            elif strict:
                raise StageError(
                    "harmonize: no canonical label for "
                    f"({rel.origin}, {rel.label}, {rel.head_type}, "
                    f"{rel.tail_type}) in strict mode"
                )
            else:
                log.warning("harmonize: passing through unmapped relation %s", rel)
                hit = (None, True)
            cache[rel] = hit
        new_rel, is_unmapped = hit
        if is_unmapped:
            details["unmapped_rows"] += 1
        if new_rel is None:
            return t
        details["labels_rewritten"] += 1
        return Triplet(t.head, new_rel, t.tail, t.origin_line)

    return g.map_rows(step), details


@dataclass(frozen=True)
class NonHumanSpec:
    """What the non-human filter removes: a closed, configurable list of
    banned relation labels, plus any Vir-prefixed label when enabled."""

    banned_labels: frozenset[str] = DEFAULT_BANNED_LABELS
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
    nonhuman = {n for n, tag in tags.items() if n.entity_type == "Gene" and tag not in HUMAN_TAGS}
    removed: set[EntityRef] = set()
    details = {"banned_relation_rows": 0, "nonhuman_gene_rows": 0, "nonhuman_genes_removed": 0}

    def step(t: Triplet) -> Triplet | None:
        if spec.is_banned(t.relation.label):
            details["banned_relation_rows"] += 1
            return None
        if not nonhuman:
            return t
        doomed = [n for n in (t.head, t.tail) if n.entity_type == "Gene" and n in nonhuman]
        if not doomed:
            return t
        details["nonhuman_gene_rows"] += 1
        removed.update(doomed)
        details["nonhuman_genes_removed"] = len(removed)
        return None

    return g.map_rows(step), details


DEFAULT_DROP_TYPES = ("Tax", "Symptom", "Pathway")


def drop_entity_types(
    g: KnowledgeGraph, types=DEFAULT_DROP_TYPES
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Remove every node of the listed categories along with incident rows.
    Pathways dropped here are re-integrated by the enrichment stage."""
    doomed = frozenset(types)
    details = {"nodes_removed": 0}
    for etype in sorted(doomed):
        details[f"nodes_removed_{etype}"] = 0
    removed: set[EntityRef] = set()

    def step(t: Triplet) -> Triplet | None:
        if t.head.entity_type not in doomed and t.tail.entity_type not in doomed:
            return t
        for node in (t.head, t.tail):
            if node.entity_type in doomed and node not in removed:
                removed.add(node)
                details["nodes_removed"] += 1
                details[f"nodes_removed_{node.entity_type}"] += 1
        return None

    return g.map_rows(step), details

"""Entity-identifier standardization and duplicate removal.

Cross-reference tables are resolved to a fixed point (no chains, no cycles)
before any rewriting, so remapping is idempotent. Deduplication keys each
triplet on its canonical label and its unordered endpoint pair, which
removes exact duplicates and head/tail-reversed duplicates in a single
pass; the first occurrence in input order survives.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, and_, gt, mul, ne

from .errors import InputError, StageError
from .ingest import load_xref
from .model import EntityRef, KnowledgeGraph, deal, gather, marks, pair_keys

log = logging.getLogger(__name__)

# Canonical-source preference for compound identifiers, best first. Raw xref
# rows are oriented so mapping always moves toward the better source.
COMPOUND_SOURCE_PREFERENCE = (
    "PubChem_Compounds",
    "CHEMBL",
    "CHEBI",
    "drugbank",
    "molport",
    "zinc",
)


def _preference_rank(source: str, preference: tuple[str, ...]) -> int:
    try:
        return preference.index(source)
    except ValueError:
        return len(preference)


@dataclass
class IdMapTable:
    """Redundant-id to canonical-id mapping for one entity category."""

    entity_type: str
    mapping: dict[EntityRef, EntityRef]
    resolved: bool = False

    @classmethod
    def empty(cls, entity_type: str) -> "IdMapTable":
        return cls(entity_type, {}, resolved=True)

    @classmethod
    def from_pairs(
        cls,
        entity_type: str,
        pairs,
        preference: tuple[str, ...] | None = None,
    ) -> "IdMapTable":
        """Build a raw table from (from_ref, to_ref) pairs.

        Both sides must share ``entity_type``. With a source-preference order,
        each pair is oriented so the target is the strictly preferred side.
        """
        mapping: dict[EntityRef, EntityRef] = {}
        for src, dst in pairs:
            for ref in (src, dst):
                if ref.entity_type != entity_type:
                    raise InputError(
                        f"id map for {entity_type}: {ref.text} has type "
                        f"{ref.entity_type}"
                    )
            if src == dst:
                continue
            if preference is not None:
                if _preference_rank(dst.source, preference) > _preference_rank(
                    src.source, preference
                ):
                    src, dst = dst, src
            if src in mapping and mapping[src] != dst:
                log.warning(
                    "id map %s: duplicate key %s (%s replaces %s)",
                    entity_type, src.text, dst.text, mapping[src].text,
                )
            mapping[src] = dst
        return cls(entity_type, mapping, resolved=False)

    @classmethod
    def from_file(
        cls,
        path,
        entity_type: str,
        preference: tuple[str, ...] | None = None,
    ) -> "IdMapTable":
        return cls.from_pairs(entity_type, load_xref(path).items(), preference)

    def apply(self, ref: EntityRef) -> EntityRef:
        return self.mapping.get(ref, ref)


def resolve_fixed_point(table: IdMapTable) -> IdMapTable:
    """Collapse mapping chains (a->b, b->c becomes a->c, b->c).

    A cycle has no fixed point and is fatal; the error names its members.
    """
    resolved: dict[EntityRef, EntityRef] = {}
    # identity entries are already at fixed point; drop rather than chase them
    mapping = {k: v for k, v in table.mapping.items() if k != v}
    for start in mapping:
        if start in resolved:
            continue
        chain = [start]
        seen = {start}
        node = start
        while node in mapping:
            node = mapping[node]
            if node in resolved:
                node = resolved[node]
                break
            if node in seen:
                cycle = chain[chain.index(node):] + [node]
                raise InputError(
                    f"id map for {table.entity_type}: cycle "
                    + " -> ".join(r.text for r in cycle)
                )
            seen.add(node)
            chain.append(node)
        terminal = node
        for member in chain:
            if member in mapping:
                resolved[member] = terminal
    return IdMapTable(table.entity_type, resolved, resolved=True)


def remap_entities(
    g: KnowledgeGraph,
    compounds: IdMapTable,
    diseases: IdMapTable,
    genes: IdMapTable,
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Rewrite every endpoint through its category's fixed-point table.

    Ids absent from every table pass through unchanged; that is exactly how
    source-only identifiers with no cross-reference survive. The counters
    hold, per category, the distinct redundant ids actually seen in the graph.
    """
    tables = {"Compound": compounds, "Disease": diseases, "Gene": genes}
    for table in tables.values():
        if not table.resolved:
            raise StageError("remap_entities: id map not resolved to fixed point")
    counter = {
        "Compound": "compound_ids_merged",
        "Disease": "disease_ids_merged",
        "Gene": "gene_ids_merged",
    }
    details = dict.fromkeys(counter.values(), 0)
    # each entity's id after the rewrite, and 1 for a redundant one
    entities = g.vocab.entities
    target = list(range(len(entities)))
    merged = bytearray(len(entities))
    for e in g.endpoints():
        ref = entities[e]
        table = tables.get(ref.entity_type)
        to = None if table is None else table.mapping.get(ref)
        if to is not None:
            target[e] = entities.id_of(to)
            merged[e] = 1
            details[counter[ref.entity_type]] += 1
    at = merged.__getitem__
    details["endpoints_rewritten"] = sum(map(at, g.heads)) + sum(map(at, g.tails))
    return g.mapped(entity=target if details["endpoints_rewritten"] else None), details


def deduplicate(
    g: KnowledgeGraph, same_type_only: bool = False
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Remove exact and reversed-order duplicates; first occurrence survives.

    Must run after remapping so keys compare canonical ids. Exact and
    reversed duplicates are counted separately.
    """
    duplicate = _duplicates(g, same_type_only)
    return g.where(marks(duplicate, 0)), {
        "exact_duplicates": duplicate.count(1),
        "reversed_duplicates": duplicate.count(2),
    }


def _duplicates(g: KnowledgeGraph, same_type_only: bool) -> bytearray:
    """Per row, 1 for an exact duplicate of an earlier row (a self-loop
    always is one), 2 for a reversed one, else 0.

    A row's key packs its relation's label and its endpoint pair, unordered
    (ordered, with ``same_type_only``, when the endpoints' types differ, for
    sensitivity analysis). The rows are dealt by key into buckets, one per
    label and one per ``model._SORT_ROWS`` rows, each with a table of its
    own; a bucket keeps row order, so a key's first row in it is its first.
    """
    heads, tails = g.heads, g.tails
    n_entity = len(g.vocab.entities)
    pairs = pair_keys(heads, tails, n_entity)
    if same_type_only:
        # a pair of different types keeps its orientation: keys above every
        # unordered pair's for rows whose head has the higher id
        types = [e.entity_type for e in g.vocab.entities]
        at = types.__getitem__
        flipped = map(and_, map(gt, heads, tails), map(ne, map(at, heads), map(at, tails)))
        pairs = map(add, pairs, map(mul, flipped, repeat(2 * n_entity * n_entity)))
    # each relation's label as an offset above every pair of another label
    labels: dict[str, int] = {}
    offset = [labels.setdefault(r.label, 4 * n_entity * n_entity * len(labels))
              for r in g.vocab.relations]
    keys = array("q", map(add, pairs, map(offset.__getitem__, g.relations)))
    duplicate = bytearray(len(g))
    for rows in deal(range(len(g)), keys, len(labels)):
        first: dict[int, int] = {}
        later = bytes(map(ne, map(first.setdefault, gather(keys, rows), rows), rows))
        for p in compress(rows, later):
            duplicate[p] = 1 if heads[p] == heads[first[keys[p]]] else 2
    return duplicate

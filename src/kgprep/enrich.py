"""Graph enrichment: pathway re-integration, drug/side-effect edges, and
removal of compounds without usable structure strings.

Merges only ever attach to endpoints already present in the graph, so no
orphan subgraphs appear, and they never create a duplicate canonical key.
"""

from __future__ import annotations

import logging
from itertools import count

from .chem.smiles import check_smiles
from .errors import InputError, ParseError, SmilesError
from .ingest import parse_entity
from .model import _SIGNATURE, EntityRef, KnowledgeGraph, RelationRef, Triplet
from .normalize import IdMapTable, canonical_key

log = logging.getLogger(__name__)

GENE_PATHWAY = RelationRef("Reactome", "GENE_PATHWAY", "Gene", "Pathway")
SIDE_EFFECT = RelationRef("OnSIDES", "SIDE_EFFECT", "Compound", "SideEffect")

TIER_RANK = {"low": 0, "medium": 1, "high": 2}


def _checked(t: Triplet, table: str) -> Triplet:
    """A merged row, rejected as an input defect when its endpoint types do
    not fit the merge's relation."""
    if not t.signature_ok():
        rel = t.relation
        raise InputError(
            f"{table} table, row {t.origin_line}: {t.head.text} -> {t.tail.text} does not "
            f"fit {rel.label}, which links {rel.head_type} to {rel.tail_type}"
        )
    return t


def _numbered(table: list[tuple]):
    """(row number, row) for each table row: its file line when the table
    was read from a file (``ingest.Rows``), else its place counted from 1."""
    return zip(getattr(table, "lines", None) or count(1), table)


def merge_reactome(
    g: KnowledgeGraph, table: list[tuple[str, str]]
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Add gene-to-pathway edges for genes already in the graph.

    Pathway nodes are created on first reference, only ever for present
    genes, so every added pathway has degree >= 1. A node is present when it
    is in ``g`` or an earlier row of the table added it. Rows whose gene is
    absent, or that would duplicate an existing canonical key, are skipped
    and counted.
    """
    # a merged row's key carries its label, so only GENE_PATHWAY rows can match
    keys = {canonical_key(t) for t in g.triplets if t.relation.label == GENE_PATHWAY.label}
    nodes = g.nodes
    new_nodes: set[EntityRef] = set()
    added: list[Triplet] = []
    details = {"skipped_endpoint_absent": 0, "skipped_duplicate": 0}
    for row_no, (gene_text, pathway_text) in _numbered(table):
        gene = parse_entity(gene_text)
        pathway = parse_entity(pathway_text)
        if gene not in nodes and gene not in new_nodes:
            details["skipped_endpoint_absent"] += 1
            continue
        t = _checked(Triplet(gene, GENE_PATHWAY, pathway, origin_line=row_no), "reactome")
        key = canonical_key(t)
        if key in keys:
            details["skipped_duplicate"] += 1
            continue
        keys.add(key)
        added.append(t)
        if pathway not in nodes:
            new_nodes.add(pathway)
    details["edges_added"] = len(added)
    details["pathway_nodes_added"] = len(new_nodes)
    return g.plus(added), details


def merge_onsides(
    g: KnowledgeGraph,
    table: list[tuple[str, str, str]],
    min_tier: str = "high",
    compound_map: IdMapTable | None = None,
    side_effect_map: IdMapTable | None = None,
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Add compound/side-effect edges at or above the confidence threshold.

    Compound and side-effect ids are rewritten through the standardization
    tables before matching. Rows for compounds not in the graph are skipped,
    and rows whose endpoint pair already carries any edge (whatever its label
    or orientation) are suppressed as duplicates.
    """
    if min_tier not in TIER_RANK:
        raise ValueError(f"unknown confidence tier {min_tier!r}")
    threshold = TIER_RANK[min_tier]
    # a checked row links a Compound to a SideEffect, so only graph rows
    # between those types, in either orientation, can carry its pair
    links = {_SIGNATURE(SIDE_EFFECT), _SIGNATURE(SIDE_EFFECT)[::-1]}
    pairs = {
        frozenset((t.head.text, t.tail.text))
        for t in g.triplets
        if _SIGNATURE(t.relation) in links
    }
    nodes = g.nodes
    new_nodes: set[EntityRef] = set()
    added: list[Triplet] = []
    details = {
        "skipped_below_confidence": 0,
        "skipped_endpoint_absent": 0,
        "skipped_duplicate": 0,
    }
    for row_no, (compound_text, se_text, tier) in _numbered(table):
        if TIER_RANK[tier] < threshold:
            details["skipped_below_confidence"] += 1
            continue
        try:
            compound = parse_entity(compound_text)
            side_effect = parse_entity(se_text)
        except ParseError as exc:
            raise ParseError(f"onsides table, row {row_no}: {exc}") from exc
        if compound_map is not None:
            compound = compound_map.apply(compound)
        if side_effect_map is not None:
            side_effect = side_effect_map.apply(side_effect)
        if compound not in nodes and compound not in new_nodes:
            details["skipped_endpoint_absent"] += 1
            continue
        t = _checked(Triplet(compound, SIDE_EFFECT, side_effect, origin_line=row_no), "onsides")
        pair = frozenset((compound.text, side_effect.text))
        if pair in pairs:
            details["skipped_duplicate"] += 1
            continue
        pairs.add(pair)
        added.append(t)
        if side_effect not in nodes:
            new_nodes.add(side_effect)
    details["edges_added"] = len(added)
    details["side_effect_nodes_added"] = len(new_nodes)
    return g.plus(added), details


def filter_no_smiles(
    g: KnowledgeGraph, smiles_dict: dict[str, str]
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Remove every compound lacking a dictionary entry or whose structure
    string fails the SMILES syntax check, together with all incident rows.
    Missing and unparseable removals are counted separately; downstream
    fingerprinting requires a parseable structure either way. The check is
    ``check_smiles``, which accepts exactly what ``parse_smiles`` accepts."""
    missing = 0
    unparseable = 0
    doomed: set[EntityRef] = set()
    for node in g.nodes_of_type("Compound"):
        smiles = smiles_dict.get(node.text)
        if smiles is None:
            missing += 1
            doomed.add(node)
            continue
        try:
            check_smiles(smiles)
        except SmilesError as exc:
            log.debug("unparseable SMILES for %s: %s", node.text, exc)
            unparseable += 1
            doomed.add(node)
    kept = [t for t in g.triplets if t.head not in doomed and t.tail not in doomed]
    return KnowledgeGraph._from_clean(kept), {
        "compounds_missing": missing,
        "compounds_unparseable": unparseable,
        "compounds_removed": len(doomed),
        "edges_removed": len(g) - len(kept),
    }

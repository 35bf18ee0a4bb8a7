"""Graph enrichment: pathway re-integration, drug/side-effect edges, and
removal of compounds without usable structure strings.

Merges only ever attach to endpoints already present in the graph, so no
orphan subgraphs appear, and they never create a duplicate canonical key.
"""

from __future__ import annotations

import logging

from .chem.smiles import check_smiles
from .errors import InputError, ParseError, SmilesError
from .ingest import parse_entity
from .model import EntityRef, KnowledgeGraph, RelationRef, Triplet
from .normalize import IdMapTable, canonical_key

log = logging.getLogger(__name__)

GENE_PATHWAY = RelationRef("Reactome", "GENE_PATHWAY", "Gene", "Pathway")
SIDE_EFFECT = RelationRef("OnSIDES", "SIDE_EFFECT", "Compound", "SideEffect")

TIER_RANK = {"low": 0, "medium": 1, "high": 2}


def _insert(g: KnowledgeGraph, t: Triplet, table: str) -> None:
    """Add a merged row, rejecting it as an input defect when its endpoint
    types do not fit the merge's relation."""
    if not t.signature_ok():
        rel = t.relation
        raise InputError(
            f"{table} table, row {t.origin_line}: {t.head.text} -> {t.tail.text} does not "
            f"fit {rel.label}, which links {rel.head_type} to {rel.tail_type}"
        )
    g.insert(t)


def merge_reactome(
    g: KnowledgeGraph, table: list[tuple[str, str]]
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Add gene-to-pathway edges for genes already in the graph.

    Pathway nodes are created on first reference, only ever for present
    genes, so every added pathway has degree >= 1. Rows whose gene is absent,
    or that would duplicate an existing canonical key, are skipped and
    counted.
    """
    keys = {canonical_key(t) for t in g.triplets}
    g2 = g.copy()
    details = dict.fromkeys(
        ("edges_added", "pathway_nodes_added", "skipped_endpoint_absent", "skipped_duplicate"), 0
    )
    for row_no, (gene_text, pathway_text) in enumerate(table, start=1):
        gene = parse_entity(gene_text)
        pathway = parse_entity(pathway_text)
        if not g2.has_node(gene):
            details["skipped_endpoint_absent"] += 1
            continue
        t = Triplet(gene, GENE_PATHWAY, pathway, origin_line=row_no)
        key = canonical_key(t)
        if key in keys:
            details["skipped_duplicate"] += 1
            continue
        keys.add(key)
        if not g2.has_node(pathway):
            details["pathway_nodes_added"] += 1
        _insert(g2, t, "reactome")
        details["edges_added"] += 1
    return g2, details


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
    named = _compounds_named(table, threshold, compound_map)
    pairs = {
        frozenset((t.head.text, t.tail.text))
        for t in g.triplets
        if t.head.text in named or t.tail.text in named
    }
    g2 = g.copy()
    details = dict.fromkeys(
        (
            "edges_added",
            "side_effect_nodes_added",
            "skipped_below_confidence",
            "skipped_endpoint_absent",
            "skipped_duplicate",
        ),
        0,
    )
    for row_no, (compound_text, se_text, tier) in enumerate(table, start=1):
        if TIER_RANK[tier] < threshold:
            details["skipped_below_confidence"] += 1
            continue
        compound = parse_entity(compound_text)
        side_effect = parse_entity(se_text)
        if compound_map is not None:
            compound = compound_map.apply(compound)
        if side_effect_map is not None:
            side_effect = side_effect_map.apply(side_effect)
        if not g2.has_node(compound):
            details["skipped_endpoint_absent"] += 1
            continue
        pair = frozenset((compound.text, side_effect.text))
        if pair in pairs:
            details["skipped_duplicate"] += 1
            continue
        pairs.add(pair)
        if not g2.has_node(side_effect):
            details["side_effect_nodes_added"] += 1
        _insert(g2, Triplet(compound, SIDE_EFFECT, side_effect, origin_line=row_no), "onsides")
        details["edges_added"] += 1
    return g2, details


def _compounds_named(
    table: list[tuple[str, str, str]], threshold: int, compound_map: IdMapTable | None
) -> set[str]:
    """Remapped texts of the compounds named at or above the threshold; rows
    that fail to parse are left for ``merge_onsides`` to raise on, in order."""
    named = set()
    for compound_text, _, tier in table:
        if TIER_RANK.get(tier, -1) < threshold:
            continue
        try:
            compound = parse_entity(compound_text)
        except ParseError:
            continue
        if compound_map is not None:
            compound = compound_map.apply(compound)
        named.add(compound.text)
    return named


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
    for node in g.nodes:
        if node.entity_type != "Compound":
            continue
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
    g2 = g.without_nodes(doomed)
    return g2, {
        "compounds_missing": missing,
        "compounds_unparseable": unparseable,
        "compounds_removed": len(doomed),
        "edges_removed": len(g) - len(g2),
    }

"""Graph enrichment: pathway re-integration, drug/side-effect edges, and
removal of compounds without usable structure strings.

Merges only ever attach to endpoints already present in the graph, so no
orphan subgraphs appear, and they never create a duplicate canonical key.
"""

from __future__ import annotations

import logging
from array import array
from itertools import compress, count
from typing import Callable, Iterable

from .chem.smiles import parse_smiles
from .config import VALID_TIERS
from .errors import InputError, ParseError, SmilesError
from .ingest import parse_entity
from .model import EntityRef, KnowledgeGraph, RelationRef, marks
from .normalize import IdMapTable

log = logging.getLogger(__name__)

GENE_PATHWAY = RelationRef("Reactome", "GENE_PATHWAY", "Gene", "Pathway")
SIDE_EFFECT = RelationRef("OnSIDES", "SIDE_EFFECT", "Compound", "SideEffect")


def _numbered(table: list[tuple]):
    """(row number, row) for each table row: its file line when the table
    was read from a file (``ingest.Rows``), else its place counted from 1."""
    return zip(getattr(table, "lines", None) or count(1), table)


def _pairs(g: KnowledgeGraph, rows: bytes) -> set[tuple[int, int]]:
    """The unordered endpoint pairs, as (lower id, higher id), of the rows
    whose byte in ``rows`` is set."""
    heads, tails = array("i", compress(g.heads, rows)), array("i", compress(g.tails, rows))
    return set(zip(map(min, heads, tails), map(max, heads, tails)))


def _attach(
    g: KnowledgeGraph, rows: Iterable, relation: RelationRef, pairs: set, details: dict, table: str
) -> tuple[KnowledgeGraph, int]:
    """``g`` with a ``relation`` row for each (row number, head, tail) of
    ``rows`` whose head is present and whose endpoint pair is not in
    ``pairs``, and the number of tail nodes those rows add. A node is present
    when it is in ``g`` or an earlier row added it. Absent heads and
    duplicate pairs are counted into ``details``; a present head whose
    endpoint types do not fit ``relation`` is an input defect of ``table``."""
    entities, nodes = g.vocab.entities, g.node_ids
    new_nodes: set[int] = set()
    heads, tails, lines = array("i"), array("i"), array("i")
    details.update(skipped_endpoint_absent=0, skipped_duplicate=0)
    for row_no, head, tail in rows:
        h = entities.ids.get(head)
        if h not in nodes and h not in new_nodes:
            details["skipped_endpoint_absent"] += 1
            continue
        if (head.entity_type, tail.entity_type) != (relation.head_type, relation.tail_type):
            raise InputError(
                f"{table} table, row {row_no}: {head.text} -> {tail.text} does not fit "
                f"{relation.label}, which links {relation.head_type} to {relation.tail_type}"
            )
        t = entities.id_of(tail)
        pair = (min(h, t), max(h, t))
        if pair in pairs:
            details["skipped_duplicate"] += 1
            continue
        pairs.add(pair)
        heads.append(h)
        tails.append(t)
        lines.append(row_no)
        if t not in nodes:
            new_nodes.add(t)
    details["edges_added"] = len(heads)
    # the relation is interned only once a row carries it
    relations = array("i", [g.vocab.relations.id_of(relation)] if heads else [])
    return g.plus(heads, relations * len(heads), tails, lines), len(new_nodes)


def merge_reactome(
    g: KnowledgeGraph, table: list[tuple[EntityRef, EntityRef]]
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Add gene-to-pathway edges for genes already in the graph.

    Pathway nodes are created on first reference, only ever for present
    genes, so every added pathway has degree >= 1. A node is present when it
    is in ``g`` or an earlier row of the table added it. Rows whose gene is
    absent, or that would duplicate an existing canonical key, are skipped
    and counted.
    """
    # a merged row's key is its label and its endpoint pair, so only the
    # pairs of GENE_PATHWAY rows can match
    labelled = bytes(r.label == GENE_PATHWAY.label for r in g.vocab.relations)
    rows = ((row_no, gene, pathway) for row_no, (gene, pathway) in _numbered(table))
    details: dict[str, int] = {}
    g, details["pathway_nodes_added"] = _attach(
        g, rows, GENE_PATHWAY, _pairs(g, g.flags(relation=labelled)), details, "reactome"
    )
    return g, details


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
    if min_tier not in VALID_TIERS:
        raise ValueError(f"unknown confidence tier {min_tier!r}")
    kept_tiers = VALID_TIERS[: VALID_TIERS.index(min_tier) + 1]
    # a merged row links a Compound to a SideEffect, so only graph rows
    # between those types, in either orientation, can carry its pair
    links = {("Compound", "SideEffect"), ("SideEffect", "Compound")}
    linked = bytes((r.head_type, r.tail_type) in links for r in g.vocab.relations)
    details = {"skipped_below_confidence": 0}

    def rows():
        for row_no, (compound_text, se_text, tier) in _numbered(table):
            if tier not in kept_tiers:
                details["skipped_below_confidence"] += 1
                continue
            try:
                compound, side_effect = parse_entity(compound_text), parse_entity(se_text)
            except ParseError as exc:
                raise ParseError(f"onsides table, row {row_no}: {exc}") from exc
            if compound_map is not None:
                compound = compound_map.apply(compound)
            if side_effect_map is not None:
                side_effect = side_effect_map.apply(side_effect)
            yield row_no, compound, side_effect

    g, details["side_effect_nodes_added"] = _attach(
        g, rows(), SIDE_EFFECT, _pairs(g, g.flags(relation=linked)), details, "onsides"
    )
    return g, details


def filter_no_smiles(
    g: KnowledgeGraph, smiles_dict: dict[str, str], parsed: Callable = lambda text, mol: None
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Remove every compound lacking a dictionary entry or whose structure
    string fails the SMILES syntax check, together with all incident rows.
    Missing and unparseable removals are counted separately; downstream
    fingerprinting requires a parseable structure either way. The check is
    ``parse_smiles``, the tokenizer fingerprints runs; ``parsed`` is called
    with the text and molecule of each compound that passes."""
    missing = 0
    unparseable = 0
    entities = g.vocab.entities
    doomed = bytearray(len(entities))
    for e in g.node_ids:
        node = entities[e]
        if node.entity_type != "Compound":
            continue
        smiles = smiles_dict.get(node.text)
        if smiles is None:
            missing += 1
            doomed[e] = 1
            continue
        try:
            mol = parse_smiles(smiles)
        except SmilesError as exc:
            log.debug("unparseable SMILES for %s: %s", node.text, exc)
            unparseable += 1
            doomed[e] = 1
            continue
        parsed(node.text, mol)
    del parsed  # with whatever it holds, before the rows are compacted
    rows_in = len(g)
    kept = g.where(marks(g.flags(entity=doomed), 0))
    return kept, {
        "compounds_missing": missing,
        "compounds_unparseable": unparseable,
        "compounds_removed": missing + unparseable,
        "edges_removed": rows_in - len(kept),
    }

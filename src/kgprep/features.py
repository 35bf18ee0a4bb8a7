"""Gene functional feature vectors built by collapsing star-shaped
annotation subgraphs into sparse one-hot encodings.

Annotation nodes (pathways and the three gene-ontology branches) connect
only to genes; each gene's vector sets one bit per adjacent annotation node,
positioned by a deterministic manifest: category blocks in fixed order,
ids sorted lexicographically within each block. The collapse is lossless:
the bipartite gene/annotation edge set is exactly recoverable from the
manifest plus the vectors.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add

from .errors import StageError
from .ingest import open_output
from .model import ANNOTATION_TYPES, EntityRef, KnowledgeGraph, marks


# the manifest: one (category, refs) block per annotation category, in order;
# a ref's dimension is its place in the blocks read in turn
Manifest = tuple[tuple[str, tuple[EntityRef, ...]], ...]


def build_manifest(g: KnowledgeGraph) -> Manifest:
    """Enumerate every annotation node by category, deterministically:
    category blocks in fixed order, lexicographic ids within each."""
    return tuple(
        (category, tuple(sorted(g.nodes_of_type(category), key=lambda n: n.text)))
        for category in ANNOTATION_TYPES
    )


def collapse_to_features(
    g: KnowledgeGraph, manifest: Manifest
) -> tuple[KnowledgeGraph, dict[EntityRef, tuple[int, ...]], dict[str, int]]:
    """Turn gene/annotation adjacency into per-gene vectors, each the sorted
    tuple of its set dimensions, and strip the annotation nodes and their
    edges from the graph.

    Every gene present before the collapse gets a vector; genes with no
    annotations get the zero vector, ``()``. An annotation node adjacent to a
    non-gene violates the star-shape premise and is fatal. Parallel edges to
    the same annotation node collapse onto a single bit.
    """
    refs = [ref for _, ids in manifest for ref in ids]
    positions = {ref: i for i, ref in enumerate(refs)}
    annotation_types = frozenset(ANNOTATION_TYPES)
    entities = g.vocab.entities
    # per entity: 0 other, 1 gene, 2 annotation, 3 annotation off the
    # manifest; a row's code is its head's times 4 plus its tail's
    kind = [
        2 + (e not in positions) if e.entity_type in annotation_types
        else int(e.entity_type == "Gene")
        for e in entities
    ]
    head_kind = [4 * k for k in kind]
    codes = bytes(map(add, map(head_kind.__getitem__, g.heads), map(kind.__getitem__, g.tails)))
    # every other code breaks the star shape
    misfit = marks(codes, 0, 1, 4, 5, 6, 9).find(0)
    if misfit >= 0:
        head, tail = entities[g.heads[misfit]], entities[g.tails[misfit]]
        annotation, other = head, tail
        if annotation.entity_type not in annotation_types:
            annotation, other = other, annotation
        if other.entity_type in annotation_types:
            raise StageError(f"features: annotation-to-annotation edge {head.text} -> {tail.text}")
        if other.entity_type != "Gene":
            raise StageError(
                f"features: annotation node {annotation.text} adjacent to "
                f"non-gene {other.text}"
            )
        raise StageError(
            f"features: {annotation.text} missing from manifest; "
            "manifest must be built from the same graph"
        )
    position = {entities.ids[ref]: i for ref, i in positions.items() if ref in entities.ids}
    gene_bits: dict[int, set[int]] = {e: set() for e in g.node_ids if kind[e] == 1}
    # (gene, annotation) on annotation-headed rows, then on gene-headed ones
    headed, tailed = marks(codes, 9), marks(codes, 6)
    for gene, annotation in chain(
        zip(compress(g.tails, headed), compress(g.heads, headed)),
        zip(compress(g.heads, tailed), compress(g.tails, tailed)),
    ):
        gene_bits[gene].add(position[annotation])

    table = {entities[gene]: tuple(sorted(bits)) for gene, bits in gene_bits.items()}
    return g.where(marks(codes, 0, 1, 4, 5)), table, {
        "annotation_nodes_removed": len(positions),
        "feature_dim": len(refs),
        "genes_with_features": sum(1 for v in table.values() if v),
        "genes_total": len(table),
    }


def write_manifest(path, manifest: Manifest) -> None:
    """TSV: index, category, entity_id."""
    with open_output(path) as fh:
        entries = ((category, ref) for category, ids in manifest for ref in ids)
        for idx, (category, ref) in enumerate(entries):
            fh.write(f"{idx}\t{category}\t{ref.text}\n")


def write_features(path, table: dict[EntityRef, tuple[int, ...]]) -> None:
    """TSV: gene_id, comma-separated set indices (empty column for the zero
    vector). Rows sorted by gene id."""
    with open_output(path) as fh:
        for gene in sorted(table, key=lambda n: n.text):
            indices = ",".join(map(str, table[gene]))
            fh.write(f"{gene.text}\t{indices}\n")

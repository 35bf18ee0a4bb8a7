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

from dataclasses import dataclass
from itertools import chain, compress
from operator import add

from .errors import StageError
from .ingest import open_output
from .model import ANNOTATION_TYPES, EntityRef, KnowledgeGraph, marks


@dataclass(frozen=True)
class FeatureManifest:
    """Ordered dimension layout: one block per annotation category."""

    blocks: tuple[tuple[str, tuple[EntityRef, ...]], ...]

    @property
    def total_dim(self) -> int:
        return sum(len(ids) for _, ids in self.blocks)

    def index_of(self) -> dict[EntityRef, int]:
        table: dict[EntityRef, int] = {}
        offset = 0
        for _, ids in self.blocks:
            for i, ref in enumerate(ids):
                table[ref] = offset + i
            offset += len(ids)
        return table


@dataclass(frozen=True)
class SparseFeatureVector:
    """Strictly increasing set-bit indices over a fixed dimension."""

    dim: int
    set_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = -1
        for idx in self.set_indices:
            if idx <= prev or idx >= self.dim:
                raise ValueError("indices must be strictly increasing and < dim")
            prev = idx


def build_manifest(g: KnowledgeGraph) -> FeatureManifest:
    """Enumerate every annotation node by category, deterministically:
    category blocks in fixed order, lexicographic ids within each."""
    blocks = []
    for category in ANNOTATION_TYPES:
        ids = tuple(sorted(g.nodes_of_type(category), key=lambda n: n.text))
        blocks.append((category, ids))
    return FeatureManifest(tuple(blocks))


def collapse_to_features(
    g: KnowledgeGraph, manifest: FeatureManifest
) -> tuple[KnowledgeGraph, dict[EntityRef, SparseFeatureVector], dict[str, int]]:
    """Turn gene/annotation adjacency into per-gene vectors and strip the
    annotation nodes and their edges from the graph.

    Every gene present before the collapse gets a vector; genes with no
    annotations get the zero vector. An annotation node adjacent to a
    non-gene violates the star-shape premise and is fatal. Parallel edges to
    the same annotation node collapse onto a single bit.
    """
    positions = manifest.index_of()
    annotation_types = frozenset(ANNOTATION_TYPES)
    dim = manifest.total_dim
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
        t = g.row(misfit)
        annotation, other = (t.head, t.tail)
        if annotation.entity_type not in annotation_types:
            annotation, other = other, annotation
        if other.entity_type in annotation_types:
            raise StageError(
                f"features: annotation-to-annotation edge {t.head.text} -> {t.tail.text}"
            )
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

    table = {
        entities[gene]: SparseFeatureVector(dim, tuple(sorted(bits)))
        for gene, bits in gene_bits.items()
    }
    return g.where(marks(codes, 0, 1, 4, 5)), table, {
        "annotation_nodes_removed": len(positions),
        "feature_dim": dim,
        "genes_with_features": sum(1 for v in table.values() if v.set_indices),
        "genes_total": len(table),
    }


def write_manifest(path, manifest: FeatureManifest) -> None:
    """TSV: index, category, entity_id."""
    with open_output(path) as fh:
        idx = 0
        for category, ids in manifest.blocks:
            for ref in ids:
                fh.write(f"{idx}\t{category}\t{ref.text}\n")
                idx += 1


def write_features(path, table: dict[EntityRef, SparseFeatureVector]) -> None:
    """TSV: gene_id, comma-separated set indices (empty column for the zero
    vector). Rows sorted by gene id."""
    with open_output(path) as fh:
        for gene in sorted(table, key=lambda n: n.text):
            indices = ",".join(str(i) for i in table[gene].set_indices)
            fh.write(f"{gene.text}\t{indices}\n")

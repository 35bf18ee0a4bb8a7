import pytest

from kgprep.errors import StageError
from kgprep.features import (
    SparseFeatureVector,
    build_manifest,
    collapse_to_features,
    write_features,
    write_manifest,
)
from kgprep.model import KnowledgeGraph

from conftest import E, T, graph_of
from oracles import block_sizes, reconstruct_edges


def annotated_graph() -> KnowledgeGraph:
    return graph_of(
        ("Gene::NCBI:1", "Reactome::GENE_PATHWAY::Gene:Pathway", "Pathway::Reactome:R-HSA-2"),
        ("Gene::NCBI:1", "Reactome::GENE_PATHWAY::Gene:Pathway", "Pathway::Reactome:R-HSA-1"),
        ("Gene::NCBI:1", "Hetionet::GpBP::Gene:BiologicalProcess", "BiologicalProcess::GO:7"),
        ("Gene::NCBI:2", "Hetionet::GpMF::Gene:MolecularFunction", "MolecularFunction::GO:5"),
        ("BiologicalProcess::GO:3", "Hetionet::GpBP2::BiologicalProcess:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:1", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:3", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:1"),
    )


def test_manifest_block_order_and_sorting():
    manifest = build_manifest(annotated_graph())
    assert [c for c, _ in manifest.blocks] == [
        "Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent",
    ]
    assert block_sizes(manifest) == {
        "Pathway": 2, "MolecularFunction": 1, "BiologicalProcess": 2, "CellularComponent": 0,
    }
    assert manifest.total_dim == 5
    # lexicographic within block
    pathway_ids = [r.text for r in manifest.blocks[0][1]]
    assert pathway_ids == sorted(pathway_ids)


def test_manifest_empty_graph():
    manifest = build_manifest(KnowledgeGraph())
    assert manifest.total_dim == 0


def test_collapse_positions_and_zero_vectors():
    g = annotated_graph()
    manifest = build_manifest(g)
    positions = manifest.index_of()
    g2, table, _ = collapse_to_features(g, manifest)
    gene1 = table[E("Gene::NCBI:1")]
    expected = sorted(
        positions[E(t)]
        for t in (
            "Pathway::Reactome:R-HSA-1",
            "Pathway::Reactome:R-HSA-2",
            "BiologicalProcess::GO:7",
        )
    )
    assert list(gene1.set_indices) == expected
    # gene 3 holds no annotations: zero vector, same dimension
    assert table[E("Gene::NCBI:3")].set_indices == ()
    assert table[E("Gene::NCBI:3")].dim == manifest.total_dim
    # annotation nodes and their edges are gone
    assert len(g2) == 2
    for category in ("Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent"):
        assert g2.nodes_of_type(category) == []
    assert len(g) - len(g2) == 5


def test_collapse_handles_both_edge_orientations():
    g = annotated_graph()
    manifest = build_manifest(g)
    _, table, _ = collapse_to_features(g, manifest)
    # BiologicalProcess::GO:3 -> Gene::NCBI:2 is annotation-headed
    gene2_bits = set(table[E("Gene::NCBI:2")].set_indices)
    assert manifest.index_of()[E("BiologicalProcess::GO:3")] in gene2_bits


def test_round_trip_losslessness():
    g = annotated_graph()
    manifest = build_manifest(g)
    g2, table, _ = collapse_to_features(g, manifest)
    original_pairs = set()
    for t in g:
        for a, b in ((t.head, t.tail), (t.tail, t.head)):
            if a.entity_type == "Gene" and b.entity_type in (
                "Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent",
            ):
                original_pairs.add((a.text, b.text))
    assert reconstruct_edges(manifest, table) == original_pairs
    # conservation: total set bits == annotation edges removed
    assert sum(len(v.set_indices) for v in table.values()) == len(g) - len(g2)


def test_annotation_adjacent_to_non_gene_is_fatal():
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "X::CPW::Compound:Pathway", "Pathway::Reactome:R-HSA-1"),
    )
    manifest = build_manifest(g)
    with pytest.raises(StageError, match="non-gene"):
        collapse_to_features(g, manifest)


def test_sparse_vector_invariants():
    with pytest.raises(ValueError):
        SparseFeatureVector(dim=3, set_indices=(0, 0))
    with pytest.raises(ValueError):
        SparseFeatureVector(dim=3, set_indices=(3,))
    v = SparseFeatureVector(dim=3, set_indices=(0, 2))
    assert v.set_indices == (0, 2)


def test_manifest_and_feature_files(tmp_path):
    g = annotated_graph()
    manifest = build_manifest(g)
    _, table, _ = collapse_to_features(g, manifest)
    write_manifest(tmp_path / "manifest.tsv", manifest)
    write_features(tmp_path / "features.tsv", table)
    manifest_lines = (tmp_path / "manifest.tsv").read_text().splitlines()
    assert manifest_lines[0].split("\t")[0] == "0"
    assert len(manifest_lines) == manifest.total_dim
    feature_lines = (tmp_path / "features.tsv").read_text().splitlines()
    assert len(feature_lines) == len(table)
    zero_rows = [ln for ln in feature_lines if ln.endswith("\t")]
    assert len(zero_rows) == 1  # gene 3's zero vector has an empty column

import pytest

from kgprep.errors import StageError
from kgprep.features import build_manifest, collapse_to_features, write_features, write_manifest
from kgprep.model import KnowledgeGraph

from conftest import E, graph_of, rows_of
from oracles import block_sizes, manifest_entities, reconstruct_edges


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
    assert [c for c, _ in manifest] == [
        "Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent",
    ]
    assert block_sizes(manifest) == {
        "Pathway": 2, "MolecularFunction": 1, "BiologicalProcess": 2, "CellularComponent": 0,
    }
    assert collapse_to_features(annotated_graph())[3]["feature_dim"] == 5
    # lexicographic within block
    pathway_ids = [r.text for r in manifest[0][1]]
    assert pathway_ids == sorted(pathway_ids)


def test_manifest_empty_graph():
    manifest = build_manifest(KnowledgeGraph())
    assert manifest_entities(manifest) == []
    assert collapse_to_features(KnowledgeGraph())[3]["feature_dim"] == 0


def test_collapse_positions_and_zero_vectors():
    g = annotated_graph()
    g2, manifest, table, details = collapse_to_features(g)
    assert manifest == build_manifest(g)
    positions = {ref: i for i, ref in enumerate(manifest_entities(manifest))}
    gene1 = table[E("Gene::NCBI:1")]
    expected = sorted(
        positions[E(t)]
        for t in (
            "Pathway::Reactome:R-HSA-1",
            "Pathway::Reactome:R-HSA-2",
            "BiologicalProcess::GO:7",
        )
    )
    assert list(gene1) == expected
    # gene 3 holds no annotations: the zero vector
    assert table[E("Gene::NCBI:3")] == ()
    # every vector's indices strictly increase below the dimension
    assert details["feature_dim"] == len(positions) == 5
    for vector in table.values():
        assert list(vector) == sorted(set(vector)) and all(i < 5 for i in vector)
    # annotation nodes and their edges are gone
    assert len(g2) == 2
    for category in ("Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent"):
        assert g2.nodes_of_type(category) == []
    assert len(g) - len(g2) == 5


def test_collapse_handles_both_edge_orientations():
    g = annotated_graph()
    _, manifest, table, _ = collapse_to_features(g)
    # BiologicalProcess::GO:3 -> Gene::NCBI:2 is annotation-headed
    gene2_bits = set(table[E("Gene::NCBI:2")])
    assert manifest_entities(manifest).index(E("BiologicalProcess::GO:3")) in gene2_bits


def test_round_trip_losslessness():
    g = annotated_graph()
    g2, manifest, table, _ = collapse_to_features(g)
    original_pairs = set()
    for t in rows_of(g):
        for a, b in ((t.head, t.tail), (t.tail, t.head)):
            if a.entity_type == "Gene" and b.entity_type in (
                "Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent",
            ):
                original_pairs.add((a.text, b.text))
    assert reconstruct_edges(manifest, table) == original_pairs
    # conservation: total set bits == annotation edges removed
    assert sum(map(len, table.values())) == len(g) - len(g2)


def test_annotation_adjacent_to_non_gene_is_fatal():
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "X::CPW::Compound:Pathway", "Pathway::Reactome:R-HSA-1"),
    )
    with pytest.raises(StageError, match="non-gene"):
        collapse_to_features(g)


def test_annotation_to_annotation_edge_is_fatal():
    g = graph_of(
        ("Gene::NCBI:1", "Reactome::GENE_PATHWAY::Gene:Pathway", "Pathway::Reactome:R-HSA-1"),
        ("Pathway::Reactome:R-HSA-1", "X::PpBP::Pathway:BiologicalProcess", "BiologicalProcess::GO:7"),
    )
    with pytest.raises(StageError, match="annotation-to-annotation edge Pathway::Reactome:R-HSA-1 "):
        collapse_to_features(g)


def test_manifest_and_feature_files(tmp_path):
    g = annotated_graph()
    _, manifest, table, _ = collapse_to_features(g)
    write_manifest(tmp_path / "manifest.tsv", manifest)
    write_features(tmp_path / "features.tsv", table)
    manifest_lines = (tmp_path / "manifest.tsv").read_text().splitlines()
    assert manifest_lines[0].split("\t")[0] == "0"
    assert len(manifest_lines) == len(manifest_entities(manifest))
    feature_lines = (tmp_path / "features.tsv").read_text().splitlines()
    assert len(feature_lines) == len(table)
    zero_rows = [ln for ln in feature_lines if ln.endswith("\t")]
    assert len(zero_rows) == 1  # gene 3's zero vector has an empty column

from kgprep.enrich import filter_no_smiles, merge_onsides, merge_reactome
from kgprep.ingest import parse_entity
from kgprep.normalize import IdMapTable

from conftest import graph_of


def base_graph():
    return graph_of(
        ("Gene::NCBI:1", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:3", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:4"),
        ("Compound::PubChem_Compounds:10", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:11", "Hetionet::CcSE::Compound:SideEffect", "SideEffect::umls:C1"),
    )


def test_merge_reactome_fixture():
    # 5 rows, 3 with genes present: 3 edges, at most 3 new pathway nodes
    table = [
        ("Gene::NCBI:1", "Pathway::Reactome:R-HSA-1"),
        ("Gene::NCBI:2", "Pathway::Reactome:R-HSA-1"),
        ("Gene::NCBI:3", "Pathway::Reactome:R-HSA-2"),
        ("Gene::NCBI:999", "Pathway::Reactome:R-HSA-3"),
        ("Gene::NCBI:998", "Pathway::Reactome:R-HSA-3"),
    ]
    g2, details = merge_reactome(base_graph(), table)
    assert details["edges_added"] == 3
    assert details["pathway_nodes_added"] == 2
    assert details["skipped_endpoint_absent"] == 2
    # no orphan pathways: every added pathway node has degree >= 1
    for node in g2.nodes_of_type("Pathway"):
        assert g2.node_degree[node] >= 1


def test_merge_reactome_duplicate_row_suppressed():
    table = [
        ("Gene::NCBI:1", "Pathway::Reactome:R-HSA-1"),
        ("Gene::NCBI:1", "Pathway::Reactome:R-HSA-1"),
    ]
    g2, details = merge_reactome(base_graph(), table)
    assert details["edges_added"] == 1
    assert details["skipped_duplicate"] == 1


def test_merge_onsides_tiers_and_duplicates():
    rows = [
        ("Compound::PubChem_Compounds:10", "SideEffect::umls:C2", "high"),
        ("Compound::PubChem_Compounds:10", "SideEffect::umls:C3", "medium"),
        ("Compound::PubChem_Compounds:11", "SideEffect::umls:C1", "high"),  # dup of CcSE row
        ("Compound::PubChem_Compounds:404", "SideEffect::umls:C4", "high"),
    ]
    g2, details = merge_onsides(base_graph(), rows)
    assert details["edges_added"] == 1
    assert details["skipped_below_confidence"] == 1
    assert details["skipped_duplicate"] == 1
    assert details["skipped_endpoint_absent"] == 1
    added = [t for t in g2 if t.relation.label == "SIDE_EFFECT"]
    assert len(added) == 1 and added[0].relation.origin == "OnSIDES"


def test_merge_onsides_min_tier_config():
    rows = [("Compound::PubChem_Compounds:10", "SideEffect::umls:C2", "medium")]
    _, high = merge_onsides(base_graph(), rows, min_tier="high")
    assert high["skipped_below_confidence"] == 1
    _, medium = merge_onsides(base_graph(), rows, min_tier="medium")
    assert medium["edges_added"] == 1


def test_merge_onsides_remaps_ids_before_insertion():
    compound_map = IdMapTable(
        "Compound",
        {parse_entity("Compound::CHEMBL:CHEMBL9"): parse_entity("Compound::PubChem_Compounds:10")},
        resolved=True,
    )
    se_map = IdMapTable(
        "SideEffect",
        {parse_entity("SideEffect::umls:C9"): parse_entity("SideEffect::umls:C1")},
        resolved=True,
    )
    rows = [
        ("Compound::CHEMBL:CHEMBL9", "SideEffect::umls:C5", "high"),  # -> compound 10
        ("Compound::PubChem_Compounds:11", "SideEffect::umls:C9", "high"),  # -> dup of C1 pair
    ]
    g2, details = merge_onsides(
        base_graph(), rows, compound_map=compound_map, side_effect_map=se_map
    )
    assert details["edges_added"] == 1
    assert details["skipped_duplicate"] == 1
    added = [t for t in g2 if t.relation.label == "SIDE_EFFECT"]
    assert added[0].head.text == "Compound::PubChem_Compounds:10"


def test_filter_no_smiles_classes():
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:2", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:3", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:2"),
        ("Compound::PubChem_Compounds:3", "GNBR::TREATMENT::Compound:Disease", "Disease::MESH:D1"),
        ("Gene::NCBI:1", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:2"),
    )
    smiles = {
        "Compound::PubChem_Compounds:1": "CCO",
        "Compound::PubChem_Compounds:3": "C(",  # unparseable
        # compound 2 missing entirely
    }
    g2, details = filter_no_smiles(g, smiles)
    assert details["compounds_missing"] == 1
    assert details["compounds_unparseable"] == 1
    assert details["edges_removed"] == 3
    remaining = {n.text for n in g2.nodes_of_type("Compound")}
    assert remaining == {"Compound::PubChem_Compounds:1"}
    # every surviving compound re-parses
    from kgprep.chem import parse_smiles

    for text in remaining:
        parse_smiles(smiles[text])


def test_filter_no_smiles_keeps_valid(tiny_graph):
    smiles = {"Compound::PubChem_Compounds:10": "CCO"}
    g2, details = filter_no_smiles(tiny_graph, smiles)
    assert len(g2) == len(tiny_graph)
    assert details["edges_removed"] == 0

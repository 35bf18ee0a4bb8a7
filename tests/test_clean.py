import pytest

from kgprep.clean import (
    HarmonizationTable,
    drop_entity_types,
    filter_malformed,
    harmonize,
    remove_nonhuman,
)
from kgprep.errors import StageError
from kgprep.ingest import parse_entity

from conftest import graph_of, plus, rows_of, run_stage
from oracles import render


def refs(taxonomy: dict[str, str]) -> dict:
    """A taxonomy table as its loader gives it: keyed by parsed gene."""
    return {parse_entity(gene): tag for gene, tag in taxonomy.items()}


@pytest.fixture(scope="module")
def table() -> HarmonizationTable:
    return HarmonizationTable.builtin()


def test_filter_malformed_counts_by_class():
    g = graph_of(
        ("Compound::DB01;DB02", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:3"),
        ("Compound::A|B", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
    )
    g2, log = run_stage("filter_malformed", g, filter_malformed)
    assert len(g2) == 1
    assert log.details == {"semicolon_rows": 1, "pipe_rows": 1}
    for t in rows_of(g2):
        assert ";" not in t.head.text + t.tail.text
        assert "|" not in t.head.text + t.tail.text


def test_filter_malformed_ignores_relation_text():
    # only endpoint fields are inspected
    g = graph_of(("Gene::NCBI:1", "GNBR::E;weird::Gene:Gene", "Gene::NCBI:2"))
    g2, log = run_stage("filter_malformed", g, filter_malformed)
    assert len(g2) == 1 and log.rows_removed == 0


def test_harmonize_table_fixtures(table):
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "DGIdb::Agonist::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:1", "GNBR::B::Compound:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
    )
    g2, log = run_stage("harmonize", g, lambda g: harmonize(g, table))
    labels = [t.relation.label for t in rows_of(g2)]
    assert labels == ["Activator", "CMP_BIND", "GENE_BIND"]
    assert log.details["labels_rewritten"] == 3
    # origin survives as provenance
    assert [t.relation.origin for t in rows_of(g2)] == ["DGIdb", "GNBR", "GNBR"]


def test_harmonize_case_insensitive_origin_and_label(table):
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "DGIDB::AGONIST::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:2", "DRUGBANK::Target::Compound:Gene", "Gene::NCBI:1"),
    )
    g2, _ = run_stage("harmonize", g, lambda g: harmonize(g, table))
    assert [t.relation.label for t in rows_of(g2)] == ["Activator", "CMP_BIND"]


def test_harmonize_idempotent(table):
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "Hetionet::CdG::Compound:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1", "STRING::Other::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:1", "Hetionet::GpBP::Gene:BiologicalProcess", "Biological Process::GO:1"),
    )
    once, _ = run_stage("harmonize", g, lambda g: harmonize(g, table))
    twice, log = run_stage("harmonize", once, lambda g: harmonize(g, table))
    assert [t.relation for t in rows_of(twice)] == [t.relation for t in rows_of(once)]
    assert log.details["labels_rewritten"] == 0


def test_harmonize_canonical_label_set_property(table):
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1", "Hetionet::GpBP::Gene:BiologicalProcess", "Biological Process::GO:1"),
    )
    g2, log = run_stage("harmonize", g, lambda g: harmonize(g, table))
    passthroughs = {
        t.relation.label for t in rows_of(g2) if t.relation.label not in table.canonical_labels
    }
    assert passthroughs == {"GpBP"}
    assert log.details["unmapped_rows"] == 1


def test_harmonize_logs_pass_throughs_at_debug_and_counts_them_in_one_info_line(
    table, caplog
):
    g = graph_of(
        ("Gene::NCBI:1", "Hetionet::GpBP::Gene:BiologicalProcess", "BiologicalProcess::GO:1"),
        ("Compound::PubChem_Compounds:1", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
        ("Disease::DOID:1", "Hetionet::DpS::Disease:Symptom", "Symptom::MESH:D1"),
        ("Gene::NCBI:2", "Hetionet::GpBP::Gene:BiologicalProcess", "BiologicalProcess::GO:1"),
    )
    with caplog.at_level("DEBUG", logger="kgprep.clean"):
        _, log = run_stage("harmonize", g, lambda g: harmonize(g, table))
    records = [(r.levelname, r.getMessage()) for r in caplog.records]
    assert sorted(records) == [
        ("DEBUG", "harmonize: passing through unmapped relation Hetionet::DpS::Disease:Symptom"),
        ("DEBUG", "harmonize: passing through unmapped relation "
                  "Hetionet::GpBP::Gene:BiologicalProcess"),
        ("INFO", "harmonize: passed through 2 unmapped relations on 3 rows"),
    ]
    assert log.details["unmapped_rows"] == 3


def test_harmonize_strict_unknown_fatal(table):
    g = graph_of(("Gene::NCBI:1", "Hetionet::GpBP::Gene:BiologicalProcess", "Biological Process::GO:1"))
    with pytest.raises(StageError, match="GpBP"):
        run_stage("harmonize", g, lambda g: harmonize(g, table, strict=True))


def test_harmonize_strict_names_the_first_unmapped_relation_in_row_order(table):
    g = graph_of(
        ("Disease::DOID:1", "Hetionet::DpS::Disease:Symptom", "Symptom::MESH:D1"),
        ("Gene::NCBI:1", "Hetionet::GpBP::Gene:BiologicalProcess", "BiologicalProcess::GO:1"),
    )
    # DpS keeps the lower id, but GpBP's row now comes first
    g = plus(g.where(bytes([0, 1])), rows_of(g)[:1])
    with pytest.raises(StageError, match="GpBP") as failure:
        run_stage("harmonize", g, lambda g: harmonize(g, table, strict=True))
    assert "DpS" not in str(failure.value)


def test_remove_nonhuman_banned_labels():
    g = graph_of(
        ("Gene::NCBI:8881", "bioarx::VirGenHumGen::Gene:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:1", "bioarx::DrugVirGen::Compound:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
    )
    g2, log = run_stage("remove_nonhuman", g, remove_nonhuman)
    assert len(g2) == 1
    assert log.details["banned_relation_rows"] == 2


def test_remove_nonhuman_gene_fixture():
    # 5 genes, 2 marked non-human carrying 3 incident edges
    g = graph_of(
        ("Gene::NCBI:n1", "GNBR::B::Gene:Gene", "Gene::NCBI:h1"),
        ("Gene::NCBI:n1", "STRING::Binding::Gene:Gene", "Gene::NCBI:h2"),
        ("Gene::NCBI:n2", "GNBR::B::Gene:Gene", "Gene::NCBI:h3"),
        ("Gene::NCBI:h1", "GNBR::B::Gene:Gene", "Gene::NCBI:h2"),
        ("Gene::NCBI:h2", "STRING::Binding::Gene:Gene", "Gene::NCBI:h3"),
    )
    taxonomy = refs({"Gene::NCBI:n1": "mouse", "Gene::NCBI:n2": "virus", "Gene::NCBI:h1": "human"})
    g2, log = run_stage("remove_nonhuman", g, lambda g: remove_nonhuman(g, taxonomy))
    assert log.details["nonhuman_genes_removed"] == 2
    assert log.details["nonhuman_gene_rows"] == 3
    assert len(g2) == 2


def test_nonhuman_genes_only_on_banned_rows_are_not_counted():
    g = graph_of(
        ("Gene::NCBI:n1", "bioarx::VirGenHumGen::Gene:Gene", "Gene::NCBI:h1"),
        ("Gene::NCBI:n2", "GNBR::B::Gene:Gene", "Gene::NCBI:h2"),
        ("Gene::NCBI:n2", "bioarx::VirGenHumGen::Gene:Gene", "Gene::NCBI:n3"),
        ("Gene::NCBI:h1", "GNBR::B::Gene:Gene", "Gene::NCBI:n2"),
    )
    taxonomy = refs({"Gene::NCBI:n1": "mouse", "Gene::NCBI:n2": "mouse", "Gene::NCBI:n3": "virus"})
    g2, log = run_stage("remove_nonhuman", g, lambda g: remove_nonhuman(g, taxonomy))
    # n1 and n3 are only on banned rows; n2 is on two rows that survive the ban
    assert log.details == {
        "banned_relation_rows": 2, "nonhuman_gene_rows": 2, "nonhuman_genes_removed": 1,
    }
    assert len(g2) == 0


def test_remove_nonhuman_defaults_absent_genes_to_human():
    g = graph_of(("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"))
    g2, log = run_stage("remove_nonhuman", g, remove_nonhuman)
    assert len(g2) == 1 and log.rows_removed == 0


def test_remove_nonhuman_retain_config_is_identity():
    g = graph_of(
        ("Gene::NCBI:1", "bioarx::VirGenHumGen::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
    )
    g2, log = run_stage(
        "remove_nonhuman", g, lambda g: remove_nonhuman(g, banned_labels=(), ban_vir_prefix=False)
    )
    assert [render(t) for t in rows_of(g2)] == [render(t) for t in rows_of(g)]
    assert log.rows_removed == 0


def test_drop_entity_types_tax_node():
    g = graph_of(("Gene::NCBI:1", "bioarx::GeneTax::Gene:Tax", "Tax::NCBI:9606"))
    g2, log = run_stage("drop_types", g, lambda g: drop_entity_types(g, ("Tax",)))
    assert len(g2) == 0
    assert log.details["nodes_removed"] == 1


def test_drop_entity_types_empty_list_is_identity(tiny_graph):
    g2, log = run_stage("drop_types", tiny_graph, lambda g: drop_entity_types(g, ()))
    assert len(g2) == len(tiny_graph) and log.rows_removed == 0


def test_drop_entity_types_pathway_fixture():
    rows = []
    for p in range(4):
        for i in range(2):
            rows.append((
                f"Gene::NCBI:{10 * p + i}",
                "Hetionet::GpPW::Gene:Pathway",
                f"Pathway::KEGG:hsa{p}",
            ))
    rows.append(("Gene::NCBI:0", "Hetionet::GpPW::Gene:Pathway", "Pathway::KEGG:hsa3"))
    rows.append(("Gene::NCBI:0", "GNBR::B::Gene:Gene", "Gene::NCBI:1"))
    g = graph_of(*rows)
    g2, log = run_stage("drop_types", g, lambda g: drop_entity_types(g, ("Pathway",)))
    assert log.rows_removed == 9
    assert log.details["nodes_removed"] == 4
    assert len(g2) == 1

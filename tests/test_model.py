from collections import Counter

import pytest

from kgprep.errors import StageError
from kgprep.clean import drop_entity_types
from kgprep.model import EntityRef, KnowledgeGraph, RelationRef, StageLog, Triplet

from conftest import E, R, T, graph_of, run_stage
from oracles import is_clean


def test_insert_builds_registry():
    g = KnowledgeGraph()
    g.insert(T("Gene::NCBI:2157", "GNBR::B::Gene:Gene", "Gene::NCBI:7157"))
    assert len(g) == 1
    assert g.node_count() == 2
    assert Counter(n.entity_type for n in g.nodes) == {"Gene": 2}


def test_insert_same_triplet_twice_is_multiset():
    g = KnowledgeGraph()
    t = T("Gene::NCBI:2157", "GNBR::B::Gene:Gene", "Gene::NCBI:7157")
    g.insert(t)
    g.insert(t)
    assert len(g) == 2
    assert g.node_count() == 2


def test_insert_signature_mismatch_rejected():
    g = KnowledgeGraph()
    mismatched = Triplet(
        E("Compound::PubChem_Compounds:5"),
        R("GNBR::B::Gene:Gene"),
        E("Gene::NCBI:2"),
    )
    with pytest.raises(StageError, match="mismatch"):
        g.insert(mismatched)


def test_registry_matches_endpoints_after_ops(tiny_graph):
    tiny_graph.validate()
    g2, _ = run_stage("drop_types", tiny_graph, lambda g: drop_entity_types(g, ("Compound",)))
    g2.validate()
    g2.insert(T("Gene::NCBI:3", "GNBR::B::Gene:Gene", "Gene::NCBI:4"))
    g2.validate()
    assert g2.node_count() == 4


def test_registry_built_on_first_use_and_kept_by_insert(tiny_graph):
    g2, _ = run_stage("drop_types", tiny_graph, lambda g: drop_entity_types(g, ()))
    assert g2._degree is None
    assert g2.node_degree[E("Gene::NCBI:2")] == 2
    g2.insert(T("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:9"))
    assert g2.node_degree[E("Gene::NCBI:2")] == 3
    copied = g2.copy()
    copied.insert(T("Gene::NCBI:9", "GNBR::B::Gene:Gene", "Gene::NCBI:1"))
    assert copied.node_degree[E("Gene::NCBI:9")] == 2
    assert g2.node_degree[E("Gene::NCBI:9")] == 1
    g2.validate()
    copied.validate()


def test_stage_log_conservation_enforced():
    with pytest.raises(ValueError, match="conservation"):
        StageLog("bad", rows_in=10, rows_removed=2, rows_added=0, rows_out=9)
    log = StageLog("ok", rows_in=10, rows_removed=2, rows_added=1, rows_out=9)
    assert log.rows_out == log.rows_in - log.rows_removed + log.rows_added


def test_entity_cleanliness_flags():
    assert is_clean(E("Disease::MESH:D015658"))
    assert not is_clean(E("Compound::DB01;DB02"))
    assert not is_clean(E("Compound::A|B"))


def test_equal_refs_built_separately_hash_alike():
    a, b = EntityRef("Gene", "NCBI", "7"), EntityRef("Gene", "NCBI", "7")
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert E("Gene::NCBI:7") == a and hash(E("Gene::NCBI:7")) == hash(a)
    r, s = RelationRef("GNBR", "B", "Gene", "Gene"), RelationRef("GNBR", "B", "Gene", "Gene")
    assert r == s and r is not s
    assert hash(r) == hash(s)
    assert len({r, s, r.with_label("B")}) == 1
    assert R("GNBR::B::Gene:Gene") == r and hash(R("GNBR::B::Gene:Gene")) == hash(r)
    assert EntityRef("Gene", "NCBI", "8") != a


def test_text_order_sorts_rendered_tuples_and_insert_drops_it():
    g = graph_of(
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1\x01", "GNBR::B::Gene:Gene", "Gene::NCBI:3"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:3"),
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
    )
    assert list(g.text_order) == [2, 1, 0, 3]
    assert g.text_order is g.text_order
    g.insert(T("Gene::NCBI:0", "GNBR::B::Gene:Gene", "Gene::NCBI:1"))
    assert list(g.text_order) == [4, 2, 1, 0, 3]

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgprep import model
from kgprep.errors import InputError
from kgprep.ingest import parse_entity
from kgprep.model import KnowledgeGraph
from kgprep.normalize import (
    COMPOUND_SOURCE_PREFERENCE,
    IdMapTable,
    deduplicate,
    remap_entities,
    resolve_fixed_point,
)

from conftest import E, T, graph_of, nodes, rows_of, run_stage
from oracles import dedup_by_scan, render, resolve_by_substitution


def _compound_table(pairs):
    return IdMapTable.from_pairs(
        "Compound",
        [(parse_entity(a), parse_entity(b)) for a, b in pairs],
        preference=COMPOUND_SOURCE_PREFERENCE,
    )


def test_resolve_chain_matches_substitution_oracle():
    table = _compound_table([
        ("Compound::CHEBI:1", "Compound::CHEMBL:CHEMBL1"),
        ("Compound::CHEMBL:CHEMBL1", "Compound::PubChem_Compounds:11"),
    ])
    resolved = resolve_fixed_point(table)
    oracle = resolve_by_substitution(table.mapping)
    assert resolved.mapping == oracle
    target = E("Compound::PubChem_Compounds:11")
    assert resolved.mapping[E("Compound::CHEBI:1")] == target
    assert resolved.mapping[E("Compound::CHEMBL:CHEMBL1")] == target


def test_resolve_already_fixed_is_unchanged():
    table = _compound_table([("Compound::CHEMBL:CHEMBL1", "Compound::PubChem_Compounds:1")])
    resolved = resolve_fixed_point(table)
    assert resolved.mapping == table.mapping
    assert resolved.resolved


def test_resolve_two_cycle_is_fatal():
    table = IdMapTable(
        "Gene",
        {
            E("Gene::NCBI:1"): E("Gene::NCBI:2"),
            E("Gene::NCBI:2"): E("Gene::NCBI:1"),
        },
    )
    with pytest.raises(InputError, match="cycle"):
        resolve_fixed_point(table)


def test_resolve_result_is_fixed_point_property():
    # random chain forests stay cycle-free; resolution must match the oracle
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=25))
    def run(edges):
        mapping = {}
        for a, b in edges:
            if a == b:
                continue
            src = E(f"Gene::NCBI:{a}")
            mapping.setdefault(src, E(f"Gene::NCBI:{b}"))
        table = IdMapTable("Gene", mapping)
        try:
            oracle = resolve_by_substitution(mapping, max_rounds=100)
        except ValueError:
            with pytest.raises(InputError):
                resolve_fixed_point(table)
            return
        resolved = resolve_fixed_point(table)
        assert resolved.mapping == oracle
        for value in resolved.mapping.values():
            assert resolved.mapping.get(value, value) == value

    run()


def test_preference_orientation():
    # written against the preference direction; loader must flip it
    table = _compound_table([("Compound::PubChem_Compounds:11", "Compound::CHEMBL:CHEMBL1")])
    assert table.mapping == {
        E("Compound::CHEMBL:CHEMBL1"): E("Compound::PubChem_Compounds:11")
    }


def test_remap_rewrites_and_passes_through():
    g = graph_of(
        ("Compound::CHEMBL:CHEMBL25", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:5", "GNBR::B::Compound:Gene", "Gene::drugbank:BE9"),
    )
    compounds = resolve_fixed_point(
        _compound_table([("Compound::CHEMBL:CHEMBL25", "Compound::PubChem_Compounds:2244")])
    )
    g2, log = run_stage("remap", g, lambda g: remap_entities(
        g, compounds, IdMapTable.empty("Disease"), IdMapTable.empty("Gene")
    ))
    heads = [t.head.text for t in rows_of(g2)]
    assert heads == ["Compound::PubChem_Compounds:2244", "Compound::PubChem_Compounds:5"]
    # no gene xref: the drugbank-sourced gene id survives untouched
    assert rows_of(g2)[1].tail.text == "Gene::drugbank:BE9"
    assert log.details["compound_ids_merged"] == 1
    assert log.details["gene_ids_merged"] == 0


def test_remap_idempotent_at_fixed_point():
    g = graph_of(
        ("Compound::CHEMBL:CHEMBL25", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
    )
    compounds = resolve_fixed_point(
        _compound_table([("Compound::CHEMBL:CHEMBL25", "Compound::PubChem_Compounds:2244")])
    )
    empty_d, empty_g = IdMapTable.empty("Disease"), IdMapTable.empty("Gene")
    once, _ = run_stage("remap", g, lambda g: remap_entities(g, compounds, empty_d, empty_g))
    twice, log = run_stage("remap", once, lambda g: remap_entities(g, compounds, empty_d, empty_g))
    assert [render(t) for t in rows_of(twice)] == [render(t) for t in rows_of(once)]
    assert log.details["endpoints_rewritten"] == 0


def test_remap_merged_count_equals_domain_occurrence():
    g = graph_of(
        ("Compound::CHEMBL:CHEMBL1", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::CHEMBL:CHEMBL1", "GNBR::T::Compound:Disease", "Disease::MESH:D1"),
        ("Compound::PubChem_Compounds:7", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
    )
    compounds = resolve_fixed_point(_compound_table([
        ("Compound::CHEMBL:CHEMBL1", "Compound::PubChem_Compounds:11"),
        ("Compound::CHEMBL:CHEMBL2", "Compound::PubChem_Compounds:12"),  # not in g
    ]))
    _, log = run_stage("remap", g, lambda g: remap_entities(
        g, compounds, IdMapTable.empty("Disease"), IdMapTable.empty("Gene")
    ))
    domain_in_graph = {
        n for n in nodes(g) if n in compounds.mapping
    }
    assert log.details["compound_ids_merged"] == len(domain_in_graph) == 1


def test_dedup_exact():
    g = graph_of(
        ("Gene::NCBI:A", "GNBR::B::Gene:Gene", "Gene::NCBI:B"),
        ("Gene::NCBI:A", "GNBR::B::Gene:Gene", "Gene::NCBI:B"),
    )
    g2, log = run_stage("dedup", g, deduplicate)
    assert len(g2) == 1
    assert log.details == {"exact_duplicates": 1, "reversed_duplicates": 0}


def test_dedup_reversed_keeps_first():
    g = graph_of(
        ("Gene::NCBI:A", "GNBR::B::Gene:Gene", "Gene::NCBI:B", 1),
        ("Gene::NCBI:B", "GNBR::B::Gene:Gene", "Gene::NCBI:A", 2),
    )
    g2, log = run_stage("dedup", g, deduplicate)
    assert len(g2) == 1
    assert rows_of(g2)[0].head.text == "Gene::NCBI:A"
    assert log.details == {"exact_duplicates": 0, "reversed_duplicates": 1}


def test_dedup_self_loop_duplicates_are_exact():
    rows = [
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
    ]
    for same_type_only in (False, True):
        g2, log = run_stage("dedup", graph_of(*rows), lambda g: deduplicate(g, same_type_only))
        assert log.details == {"exact_duplicates": 2, "reversed_duplicates": 1}
        assert [render(t) for t in rows_of(g2)] == [rows[0], rows[2]]


def test_dedup_distinct_relations_kept():
    g = graph_of(
        ("Gene::NCBI:A", "GNBR::Rg::Gene:Gene", "Gene::NCBI:B"),
        ("Gene::NCBI:A", "GNBR::B::Gene:Gene", "Gene::NCBI:B"),
    )
    g2, _ = run_stage("dedup", g, deduplicate)
    assert len(g2) == 2


def test_dedup_cross_origin_same_label_collapses():
    # after harmonization the canonical label is the key, not the origin
    g = graph_of(
        ("Gene::NCBI:A", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:B"),
        ("Gene::NCBI:B", "STRING::GENE_BIND::Gene:Gene", "Gene::NCBI:A"),
    )
    g2, log = run_stage("dedup", g, deduplicate)
    assert len(g2) == 1
    assert log.details["reversed_duplicates"] == 1


def test_dedup_same_type_only_flag():
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:2", "DGIdb::CMP_BIND::Gene:Compound", "Compound::PubChem_Compounds:1"),
    )
    unrestricted, _ = run_stage("dedup", g, lambda g: deduplicate(g, same_type_only=False))
    assert len(unrestricted) == 1
    restricted, _ = run_stage("dedup", g, lambda g: deduplicate(g, same_type_only=True))
    assert len(restricted) == 2


@given(st.data())
def test_dedup_idempotent_and_keyset_unique(data):
    n = data.draw(st.integers(2, 8))
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    triplets = []
    for a, b, flip in rows:
        h, t = (f"Gene::NCBI:{a}", f"Gene::NCBI:{b}") if not flip else (
            f"Gene::NCBI:{b}", f"Gene::NCBI:{a}")
        if h == t:
            continue
        triplets.append(T(h, "GNBR::GENE_BIND::Gene:Gene", t))
    g = KnowledgeGraph(triplets)
    once, _ = run_stage("dedup", g, deduplicate)
    twice, log2 = run_stage("dedup", once, deduplicate)
    assert [render(t) for t in rows_of(twice)] == [render(t) for t in rows_of(once)]
    assert log2.rows_removed == 0
    # brute-force check: no two survivors share a canonical key
    keys = [
        tuple(sorted((t.head.text, t.tail.text))) + (t.relation.label,)
        for t in rows_of(once)
    ]
    assert len(keys) == len(set(keys))


# few ids and labels, so keys collide: exact and reversed repeats, self
# loops, one label under two origins, and pairs of two types
_DEDUP_ENDS = ("Gene::NCBI:1", "Gene::NCBI:2", "Gene::NCBI:3", "Compound::PubChem_Compounds:1")
_DEDUP_RELATIONS = ("GNBR::B::Gene:Gene", "STRING::B::Gene:Gene", "GNBR::Q::Gene:Gene",
                    "GNBR::T::Compound:Gene", "DGIdb::T::Gene:Compound")


@given(
    rows=st.lists(st.tuples(st.sampled_from(_DEDUP_RELATIONS), st.integers(0, 2), st.integers(0, 2)),
                  max_size=40),
    same_type_only=st.booleans(),
    bucket_rows=st.sampled_from([2, 3, model._SORT_ROWS]),
)
def test_dedup_equals_first_occurrence_by_scan(rows, same_type_only, bucket_rows):
    """Rows dealt into buckets of a few rows each, by key, give the counts
    and survivors of scanning every kept row."""
    texts = []
    for relation, h, t in rows:
        head_type, tail_type = relation.rsplit("::", 1)[1].split(":")
        pick = {"Gene": _DEDUP_ENDS[:3], "Compound": _DEDUP_ENDS[3:]}
        texts.append((pick[head_type][h % len(pick[head_type])], relation,
                      pick[tail_type][t % len(pick[tail_type])]))
    kept, exact, reversed_ = dedup_by_scan(texts, same_type_only)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", bucket_rows)
        out, details = deduplicate(graph_of(*texts), same_type_only)
    assert [render(t) for t in rows_of(out)] == kept
    assert details == {"exact_duplicates": exact, "reversed_duplicates": reversed_}

import random
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kgprep.enrich import filter_no_smiles, merge_onsides, merge_reactome
from kgprep.errors import InputError, ParseError
from kgprep.ingest import load_onsides, load_reactome, parse_entity
from kgprep.normalize import IdMapTable

from conftest import E, T, graph_of, nodes, plus, rows_of
from oracles import endpoints, merge_by_scan, render


def refs(table):
    """Reactome rows as their loader gives them: parsed gene and pathway."""
    return [(E(gene), E(pathway)) for gene, pathway in table]


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
    g2, details = merge_reactome(base_graph(), refs(table))
    assert details["edges_added"] == 3
    assert details["pathway_nodes_added"] == 2
    assert details["skipped_endpoint_absent"] == 2
    # no orphan pathways: the node set is exactly the row endpoints
    assert nodes(g2) == endpoints(rows_of(g2))
    assert len(g2.nodes_of_type("Pathway")) == 2


def test_merge_reactome_duplicate_row_suppressed():
    table = [
        ("Gene::NCBI:1", "Pathway::Reactome:R-HSA-1"),
        ("Gene::NCBI:1", "Pathway::Reactome:R-HSA-1"),
    ]
    g2, details = merge_reactome(base_graph(), refs(table))
    assert details["edges_added"] == 1
    assert details["skipped_duplicate"] == 1


@pytest.mark.parametrize(
    "row, duplicate",
    [
        (("Gene::NCBI:2", "Reactome::GENE_PATHWAY::Gene:Pathway", "Pathway::Reactome:R-HSA-1"), 1),
        (("Pathway::Reactome:R-HSA-1", "Test::GENE_PATHWAY::Pathway:Gene", "Gene::NCBI:2"), 1),
        (("Gene::NCBI:2", "Test::PATHWAY_MEMBER::Gene:Pathway", "Pathway::Reactome:R-HSA-1"), 0),
    ],
    ids=["same", "reversed", "other-label"],
)
def test_merge_reactome_duplicate_of_a_graph_row(row, duplicate):
    # only a GENE_PATHWAY row on the same endpoints, in either orientation, blocks the merge
    g = plus(base_graph(), [T(*row)])
    g2, details = merge_reactome(g, refs([("Gene::NCBI:2", "Pathway::Reactome:R-HSA-1")]))
    assert details["skipped_duplicate"] == duplicate
    assert details["edges_added"] == 1 - duplicate
    assert details["pathway_nodes_added"] == 0
    assert len(g2) == len(g) + 1 - duplicate


def test_merged_rows_carry_their_file_lines(tmp_path):
    reactome = tmp_path / "reactome.tsv"
    reactome.write_text(
        "# gene to pathway\n"
        "gene_id\tpathway_id\n"
        "Gene::NCBI:1\tPathway::Reactome:R-HSA-1\n"
        "Gene::NCBI:1\tPathway::Reactome:R-HSA-1\n"
        "\n"
        "Gene::NCBI:2\tPathway::Reactome:R-HSA-2\n",
        encoding="utf-8",
    )
    g = base_graph()
    g2, _ = merge_reactome(g, load_reactome(reactome))
    assert [t.line for t in rows_of(g2)[len(g):]] == [3, 6]

    onsides = tmp_path / "onsides.tsv"
    onsides.write_text(
        "# compound to side effect\n"
        "Compound::PubChem_Compounds:10\tSideEffect::umls:C5\tlow\n"
        "Compound::PubChem_Compounds:10\tSideEffect::umls:C6\thigh\n",
        encoding="utf-8",
    )
    g3, _ = merge_onsides(g, load_onsides(onsides))
    assert [t.line for t in rows_of(g3)[len(g):]] == [3]


# tiny id pools, so that table rows and graph rows collide: each merge's
# aliases map onto the first compound and side effect, and the last pathway
# and side effect are in no graph row, so only a table row can add them
GENES = ("Gene::NCBI:1", "Gene::NCBI:2", "Gene::NCBI:3")
PATHWAYS = ("Pathway::Reactome:R-HSA-1", "Pathway::Reactome:R-HSA-2", "Pathway::Reactome:R-HSA-3")
COMPOUNDS = ("Compound::DrugBank:DB1", "Compound::DrugBank:DB2", "Compound::CHEMBL:CHEMBL9")
EFFECTS = ("SideEffect::UMLS:C1", "SideEffect::UMLS:C2", "SideEffect::MedDRA:M9",
           "SideEffect::UMLS:C3")
COMPOUND_MAP = IdMapTable("Compound", {E(COMPOUNDS[2]): E(COMPOUNDS[0])})
EFFECT_MAP = IdMapTable("SideEffect", {E(EFFECTS[2]): E(EFFECTS[0])})

# graph rows over the pools: GENE_PATHWAY rows either way round and another
# label on the same pairs, compound/side-effect rows either way round
GRAPH_ROWS = st.lists(st.sampled_from([
    *((a, "GNBR::B::Gene:Gene", b) for a, b in product(GENES, GENES)),
    *((g, "Reactome::GENE_PATHWAY::Gene:Pathway", p) for g, p in product(GENES, PATHWAYS[:2])),
    *((p, "Test::GENE_PATHWAY::Pathway:Gene", g) for g, p in product(GENES, PATHWAYS[:2])),
    *((g, "Test::MEMBER::Gene:Pathway", p) for g, p in product(GENES, PATHWAYS[:2])),
    *((c, "Hetionet::CcSE::Compound:SideEffect", s) for c, s in product(COMPOUNDS, EFFECTS[:3])),
    *((s, "Test::REV::SideEffect:Compound", c) for c, s in product(COMPOUNDS, EFFECTS[:3])),
    *((c, "GNBR::CMP_BIND::Compound:Gene", g) for c, g in product(COMPOUNDS, GENES)),
]), max_size=10)

# table rows, about one in seven mistyped: a pathway or side effect as the
# head, which an earlier row may have added, or a tail of another type
REACTOME_ROWS = st.lists(st.sampled_from([
    *list(product(GENES, PATHWAYS)) * 2,
    (PATHWAYS[2], PATHWAYS[0]), (GENES[0], COMPOUNDS[0]), (GENES[2], GENES[1]),
]), max_size=8)
ONSIDES_ROWS = st.lists(st.tuples(st.sampled_from([
    *list(product(COMPOUNDS, EFFECTS)) * 2,
    (EFFECTS[3], EFFECTS[0]), (COMPOUNDS[0], GENES[0]), (GENES[0], EFFECTS[1]),
]), st.sampled_from(["low", "medium", "high"])).map(lambda row: (*row[0], row[1])), max_size=8)


def _merged_as_scanned(merge, rows, dropped, kind: str, scanned) -> None:
    """``merge`` on a graph of ``rows``, whose vocabulary also holds the
    entities of ``dropped`` rows, unowned and owned, against the scan."""
    details, added, texts, error_row = scanned
    for owned in (False, True):
        g = graph_of(*dropped, *rows)
        g = (g.owned() if owned else g).where(bytes(len(dropped)) + b"\1" * len(rows))
        if error_row is not None:
            with pytest.raises(InputError, match=f"^{kind} table, row {error_row}: "):
                merge(g)
            continue
        n = len(g)
        g2, got = merge(g)
        assert got == details
        assert [(*render(t), t.line) for t in rows_of(g2)[n:]] == added
        assert {e.text for e in nodes(g2)} == texts


# every case below also arises at random, but not in every run: another
# label on the pair; a head an earlier row added, then the same head absent
@example(rows=[(GENES[0], "Test::MEMBER::Gene:Pathway", PATHWAYS[0])], dropped=[],
         table=[(GENES[0], PATHWAYS[0])])
@example(rows=[(GENES[0], "GNBR::B::Gene:Gene", GENES[1])], dropped=[],
         table=[(GENES[0], PATHWAYS[2]), (PATHWAYS[2], PATHWAYS[0])])
@example(rows=[(GENES[0], "GNBR::B::Gene:Gene", GENES[1])], dropped=[],
         table=[(PATHWAYS[2], PATHWAYS[0]), (GENES[2], GENES[1]), (GENES[0], PATHWAYS[0])])
@given(rows=GRAPH_ROWS, dropped=GRAPH_ROWS, table=REACTOME_ROWS)
def test_merge_reactome_equals_scan(rows, dropped, table):
    scanned = merge_by_scan(rows, table, "reactome")
    _merged_as_scanned(lambda g: merge_reactome(g, refs(table)), rows, dropped, "reactome", scanned)


@example(rows=[(COMPOUNDS[0], "GNBR::CMP_BIND::Compound:Gene", GENES[0])], dropped=[],
         table=[(COMPOUNDS[0], EFFECTS[3], "high"), (EFFECTS[3], EFFECTS[0], "high")],
         min_tier="high", maps=False)
@example(rows=[(EFFECTS[0], "Test::REV::SideEffect:Compound", COMPOUNDS[0])], dropped=[],
         table=[(EFFECTS[3], EFFECTS[0], "high"), (COMPOUNDS[2], EFFECTS[2], "medium")],
         min_tier="medium", maps=True)
@given(rows=GRAPH_ROWS, dropped=GRAPH_ROWS, table=ONSIDES_ROWS,
       min_tier=st.sampled_from(["low", "medium", "high"]), maps=st.booleans())
def test_merge_onsides_equals_scan(rows, dropped, table, min_tier, maps):
    by_text = [{k.text: v.text for k, v in m.mapping.items()} for m in (COMPOUND_MAP, EFFECT_MAP)]
    scanned = merge_by_scan(rows, table, "onsides", min_tier, *(by_text if maps else ()))
    id_maps = (COMPOUND_MAP, EFFECT_MAP) if maps else ()
    _merged_as_scanned(lambda g: merge_onsides(g, table, min_tier, *id_maps),
                       rows, dropped, "onsides", scanned)


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
    added = [t for t in rows_of(g2) if t.relation.label == "SIDE_EFFECT"]
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
    added = [t for t in rows_of(g2) if t.relation.label == "SIDE_EFFECT"]
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
    from kgprep.chem.smiles import parse_smiles

    for text in remaining:
        parse_smiles(smiles[text])


def test_filter_no_smiles_keeps_valid(tiny_graph):
    smiles = {"Compound::PubChem_Compounds:10": "CCO"}
    g2, details = filter_no_smiles(tiny_graph, smiles)
    assert len(g2) == len(tiny_graph)
    assert details["edges_removed"] == 0


def test_merge_onsides_duplicate_of_any_orientation_or_alias():
    g = plus(base_graph(), [T("SideEffect::umls:C7", "Test::REV::SideEffect:Compound",
                              "Compound::PubChem_Compounds:10")])
    compound_map = IdMapTable(
        "Compound",
        {parse_entity("Compound::CHEMBL:CHEMBL9"): parse_entity("Compound::PubChem_Compounds:11")},
        resolved=True,
    )
    rows = [
        ("Compound::PubChem_Compounds:10", "SideEffect::umls:C7", "high"),  # reversed row
        ("Compound::CHEMBL:CHEMBL9", "SideEffect::umls:C1", "high"),  # alias of 11
        ("Compound::PubChem_Compounds:10", "SideEffect::umls:C8", "high"),
        ("Compound::PubChem_Compounds:10", "SideEffect::umls:C8", "high"),  # added above
    ]
    g2, details = merge_onsides(g, rows, compound_map=compound_map)
    assert details["skipped_duplicate"] == 3
    assert details["edges_added"] == 1
    assert nodes(g2) == endpoints(rows_of(g2))


def test_merge_onsides_first_bad_row_raises_in_order():
    rows = [
        ("Compound::PubChem_Compounds:10", "SideEffect::umls:C5", "high"),
        ("nonsense", "SideEffect::umls:C6", "high"),
        ("Compound::PubChem_Compounds:10", "also nonsense", "high"),
    ]
    with pytest.raises(ParseError, match="'nonsense'"):
        merge_onsides(base_graph(), rows)
    with pytest.raises(ParseError, match="'also nonsense'"):
        merge_onsides(base_graph(), [rows[0], rows[2], rows[1]])


def test_filter_no_smiles_carries_registry():
    cmp1, cmp2 = "Compound::PubChem_Compounds:1", "Compound::PubChem_Compounds:2"
    ddi = "Hetionet::CrC::Compound:Compound"
    g = graph_of(
        (cmp1, "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),  # gene 1's only edge
        (cmp2, "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:2"),
        (cmp1, ddi, cmp1),  # self-loop on a removed compound
        (cmp2, ddi, cmp2),  # self-loop on a kept compound
        (cmp1, ddi, cmp2),
        ("Gene::NCBI:2", "GNBR::GENE_BIND::Gene:Gene", "Gene::NCBI:3"),
    )
    before = nodes(g)
    g2, details = filter_no_smiles(g, {cmp1: "C(", cmp2: "CCO"})
    assert details["edges_removed"] == 3
    assert [render(t) for t in rows_of(g2)] == [
        render(t) for t in rows_of(g) if cmp1 not in (t.head.text, t.tail.text)
    ]
    assert nodes(g2) == endpoints(rows_of(g2))
    assert E(cmp2) in nodes(g2)
    assert E("Gene::NCBI:1") not in nodes(g2)
    assert E(cmp1) not in nodes(g2)
    assert nodes(g) == before


def test_filter_no_smiles_registry_on_random_graphs():
    rng = random.Random(29)
    compounds = [f"Compound::PubChem_Compounds:{i}" for i in range(6)]
    genes = [f"Gene::NCBI:{i}" for i in range(4)]
    relations = {
        ("Compound", "Compound"): "Hetionet::CrC::Compound:Compound",
        ("Compound", "Gene"): "GNBR::CMP_BIND::Compound:Gene",
        ("Gene", "Compound"): "Test::REV::Gene:Compound",
        ("Gene", "Gene"): "GNBR::GENE_BIND::Gene:Gene",
    }
    for _ in range(200):
        rows = []
        for _ in range(rng.randrange(1, 15)):
            head, tail = rng.choice(compounds + genes), rng.choice(compounds + genes)
            rows.append((head, relations[head.split("::")[0], tail.split("::")[0]], tail))
        g = graph_of(*rows)
        smiles = {
            c: rng.choice(("CCO", "C(", "c1ccccc1")) for c in compounds if rng.random() < 0.7
        }
        g2, _ = filter_no_smiles(g, smiles)
        kept = {c for c, text in smiles.items() if text != "C("}
        assert [render(t) for t in rows_of(g2)] == [
            render(t) for t in rows_of(g)
            if all(n.entity_type != "Compound" or n.text in kept for n in (t.head, t.tail))
        ]
        assert nodes(g2) == endpoints(rows_of(g2))

"""Row-ledger property of the row-local stages.

The runner derives ``rows_removed`` from the length change, so these tests
check what hand-built stage logs used to enforce: every removed row is
counted under exactly one reason, and node counters agree with each other
and with the input graph.
"""

from hypothesis import given
from hypothesis import strategies as st

from kgprep.clean import (
    HarmonizationTable,
    drop_entity_types,
    filter_malformed,
    harmonize,
    remove_nonhuman,
)
from kgprep.ingest import parse_entity
from kgprep.model import KnowledgeGraph
from kgprep.normalize import IdMapTable, deduplicate, remap_entities

from conftest import T, nodes, rows_of, run_stage
from oracles import endpoints

ENTITIES = (
    "Gene::NCBI:1",
    "Gene::NCBI:2",
    "Gene::NCBI:3",
    "Gene::NCBI:4;5",
    "Gene::NCBI:6|7",
    "Compound::PubChem_Compounds:1",
    "Compound::DB1;DB2",
    "Compound::A|B",
    "Tax::NCBI:9606",
    "Symptom::MESH:D1",
    "Pathway::KEGG:hsa1",
    "Disease::MESH:D2",
)
LABELS = ("GENE_BIND", "B", "VirGenHumGen", "DrugVirGen", "VirusX", "Rg")
TAGS = ("human", "9606", "Homo Sapiens", "mouse", "virus")
DROP_TYPES = ("Tax", "Symptom", "Pathway")
GENE_MAP = IdMapTable(
    "Gene",
    {parse_entity("Gene::NCBI:3"): parse_entity("Gene::NCBI:1")},
    resolved=True,
)

# stage -> (its call on (graph, taxonomy), reason counters whose sum is rows_removed)
STAGES = {
    "filter_malformed": (lambda g, tax: filter_malformed(g), ("semicolon_rows", "pipe_rows")),
    "harmonize": (lambda g, tax: harmonize(g, HarmonizationTable.builtin()), ()),
    "remove_nonhuman": (
        lambda g, tax: remove_nonhuman(g, tax),
        ("banned_relation_rows", "nonhuman_gene_rows"),
    ),
    "drop_types": (lambda g, tax: drop_entity_types(g, DROP_TYPES), None),
    "remap": (
        lambda g, tax: remap_entities(
            g, IdMapTable.empty("Compound"), IdMapTable.empty("Disease"), GENE_MAP
        ),
        (),
    ),
    "dedup": (lambda g, tax: deduplicate(g), ("exact_duplicates", "reversed_duplicates")),
}


def _row(head: str, label: str, tail: str):
    head_type = head.split("::")[0]
    tail_type = tail.split("::")[0]
    return T(head, f"GNBR::{label}::{head_type}:{tail_type}", tail)


graphs = st.lists(
    st.tuples(
        st.sampled_from(ENTITIES),
        st.sampled_from(LABELS),
        st.sampled_from(ENTITIES),
        st.integers(0, 2),  # 1: repeat the row, 2: add it reversed too
    ),
    max_size=30,
)
taxonomies = st.dictionaries(
    st.sampled_from([parse_entity(e) for e in ENTITIES if e.startswith("Gene::")]),
    st.sampled_from(TAGS),
    max_size=4,
)


@given(graphs, taxonomies)
def test_row_stage_ledgers(rows, taxonomy):
    triplets = []
    for head, label, tail, extra in rows:
        triplets.append(_row(head, label, tail))
        if extra == 1:
            triplets.append(_row(head, label, tail))
        elif extra == 2:
            triplets.append(_row(tail, label, head))
    g = KnowledgeGraph(triplets)
    for name, (stage, reasons) in STAGES.items():
        out, log = run_stage(name, g, lambda g: stage(g, taxonomy))
        assert log.stage_name == name
        assert log.rows_in == len(g)
        assert log.rows_out == len(out)
        assert log.rows_added == 0
        if reasons is not None:
            assert log.rows_removed == sum(log.details[key] for key in reasons), name
        assert nodes(out) == endpoints(rows_of(out))
    _, log = run_stage("drop_types", g, lambda g: drop_entity_types(g, DROP_TYPES))
    by_type = {t: log.details[f"nodes_removed_{t}"] for t in DROP_TYPES}
    assert log.details["nodes_removed"] == sum(by_type.values())
    assert by_type == {t: len(g.nodes_of_type(t)) for t in DROP_TYPES}
    assert log.rows_removed == sum(
        1 for t in rows_of(g) if t.head.entity_type in DROP_TYPES or t.tail.entity_type in DROP_TYPES
    )

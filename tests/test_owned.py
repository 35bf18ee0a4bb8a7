"""Owned graphs: the runner's graph is compacted, extended and rewritten in
place, and a stage called directly stays pure.

The differential tests run every stage before splits twice on equal graphs:
through ``PipelineRunner.run_stage`` on an owned graph, which the stage
consumes, and as a direct call on a graph nobody owns, which must be left as
it was. Both must agree on columns, node order, vocabulary and counters,
stage by stage and chained. Tiny id pools make every defect class collide:
malformed ids, type-alias spellings, xref chains, non-human genes, banned
and enrichment labels, absent and duplicate merge rows, missing and bad
SMILES, annotation nodes.
"""

import random
import tracemalloc
from array import array
from itertools import compress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgprep import model
from kgprep.config import STAGE_NAMES, PipelineConfig
from kgprep.ingest import parse_entity
from kgprep.model import _SORT_ROWS, KnowledgeGraph, Vocabulary
from kgprep.pipeline import PipelineRunner

from conftest import BUCKET_TABLE_BYTES, T, nodes, plus, rows_of, traced

ROW_STAGES = STAGE_NAMES[: STAGE_NAMES.index("splits")]

GENES = ("Gene::NCBI:1", "Gene::NCBI:2", "Gene::NCBI:3", "Gene::NCBI:9", "Gene::NCBI:4;5")
ENTITIES = GENES + (
    "Compound::DB1",
    "Compound::PubChem_Compounds:1",
    "Compound::DB2",
    "Compound::DB3",
    "Compound::A|B",
    "SideEffect::umls:C1",
    "SideEffect::umls:C2",
    "Disease::MESH:D1",
    "Disease::MESH:D2",
    "Tax::NCBI:9606",
    "Symptom::MESH:S1",
    "Pathway::Reactome:R1",
    "Biological Process::GO:1",
    "BiologicalProcess::GO:1",
    "MolecularFunction::GO:2",
    "CellularComponent::GO:3",
)
ANNOTATIONS = ("Pathway", "BiologicalProcess", "MolecularFunction", "CellularComponent")
LABELS = (
    ("GNBR", "B"),
    ("DrugBank", "Target"),
    ("Hetionet", "CbG"),
    ("GNBR", "VirGenHumGen"),
    ("Reactome", "GENE_PATHWAY"),
    ("OnSIDES", "SIDE_EFFECT"),
    ("Other", "linked"),
)

TABLES = {
    "compound_xref": [("Compound::DB1", "Compound::PubChem_Compounds:1")],
    "disease_xref": [("Disease::MESH:D2", "Disease::MESH:D1")],
    "gene_xref": [("Gene::NCBI:3", "Gene::NCBI:2"), ("Gene::NCBI:2", "Gene::NCBI:1")],
    "sideeffect_xref": [("SideEffect::umls:C2", "SideEffect::umls:C1")],
    "taxonomy": [("Gene::NCBI:9", "mouse"), ("Gene::NCBI:1", "human")],
    "reactome": [
        ("Gene::NCBI:1", "Pathway::Reactome:R1"),
        ("Gene::NCBI:2", "Pathway::Reactome:R2"),
        ("Gene::NCBI:7", "Pathway::Reactome:R1"),
        ("Gene::NCBI:3", "Pathway::Reactome:R2"),
    ],
    "onsides": [
        ("Compound::PubChem_Compounds:1", "SideEffect::umls:C1", "high"),
        ("Compound::DB1", "SideEffect::umls:C2", "high"),
        ("Compound::DB2", "SideEffect::umls:C3", "medium"),
        ("Compound::DB3", "SideEffect::umls:C3", "high"),
        ("Compound::DB8", "SideEffect::umls:C1", "high"),
    ],
    "smiles": [
        ("Compound::PubChem_Compounds:1", "CCO"),
        ("Compound::drugbank:DB3", "C1CC("),
    ],
}


@pytest.fixture(scope="module")
def runner(tmp_path_factory) -> PipelineRunner:
    """A runner over small tables on the id pools above; its stage outputs
    go to a scratch directory."""
    root = tmp_path_factory.mktemp("owned")
    config = PipelineConfig(out_dir=str(root / "out"))
    for name, rows in TABLES.items():
        path = root / f"{name}.tsv"
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        setattr(config, name, str(path))
    (root / "out").mkdir()
    return PipelineRunner(config)


def _row(head: str, origin_label: tuple[str, str], tail: str):
    h, t = parse_entity(head), parse_entity(tail)
    # an annotation node must hang off a gene, or the features stage rejects
    # the graph, so most examples would end there
    if h.entity_type in ANNOTATIONS and t.entity_type != "Gene":
        t = parse_entity(GENES[len(tail) % 3])
    elif t.entity_type in ANNOTATIONS and h.entity_type != "Gene":
        h = parse_entity(GENES[len(head) % 3])
    origin, label = origin_label
    return T(h.text, f"{origin}::{label}::{h.entity_type}:{t.entity_type}", t.text)


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(ENTITIES),
        st.sampled_from(LABELS),
        st.sampled_from(ENTITIES),
        st.integers(0, 2),  # 1: repeat the row, 2: add it reversed too
    ),
    max_size=24,
)


def _triplets(rows) -> list:
    triplets = []
    for head, label, tail, extra in rows:
        triplets.append(_row(head, label, tail))
        if extra == 1:
            triplets.append(_row(head, label, tail))
        elif extra == 2:
            triplets.append(_row(tail, label, head))
    return triplets


def _rows(g: KnowledgeGraph, look: bool = True):
    """A graph's columns and, when asked, its nodes."""
    return [list(column) for column in g._columns()], look and nodes(g)


def _state(g: KnowledgeGraph, look: bool = True):
    """Everything a graph holds: its rows, nodes and vocabulary."""
    return _rows(g, look), list(g.vocab.entities), list(g.vocab.relations)


def _both(runner, name, owned, pure):
    """Stage ``name`` through the runner on ``owned`` and called directly on
    ``pure``: (result, log or details) of each, or the error each raised."""
    try:
        out = runner.run_stage(name, owned)
        out = out[0], out[1].details, out[1].rows_in
    except Exception as exc:  # compared, with the direct call's, below
        out = type(exc), str(exc)
    try:
        direct = runner._stages()[name](pure)
        direct = direct[0], direct[1], len(pure)
    except Exception as exc:
        direct = type(exc), str(exc)
    return out, direct


@pytest.mark.parametrize("sort_rows", [2, _SORT_ROWS])
@given(rows=rows_strategy, look=st.booleans())
def test_owned_stage_equals_direct_call(runner, sort_rows, rows, look):
    triplets = _triplets(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", sort_rows)
        for name in ROW_STAGES:
            pure = KnowledgeGraph(triplets)
            owned = KnowledgeGraph(triplets)
            if look:  # a node set built before the stage, for plus to extend
                assert nodes(pure) == nodes(owned)
            before = _rows(pure, look)
            owned = owned.owned()
            out, direct = _both(runner, name, owned, pure)
            assert _rows(pure, look) == before, name
            if isinstance(out[0], type):
                assert out == direct, name
                continue
            assert out[1:] == direct[1:], name
            assert out[0]._owned and not direct[0]._owned
            assert _state(out[0]) == _state(direct[0]), name
            if out[0] is not owned:
                with pytest.raises(TypeError, match="consumed"):
                    len(owned)


@pytest.mark.parametrize("sort_rows", [2, _SORT_ROWS])
@given(rows=rows_strategy, look=st.booleans())
def test_owned_chain_equals_direct_chain(runner, sort_rows, rows, look):
    triplets = _triplets(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", sort_rows)
        owned, pure = KnowledgeGraph(triplets).owned(), KnowledgeGraph(triplets)
        for name in ROW_STAGES:
            before = _rows(pure, look)
            out, direct = _both(runner, name, owned, pure)
            assert _rows(pure, look) == before, name
            if isinstance(out[0], type):
                assert out == direct, name
                return
            assert out[1:] == direct[1:], name
            assert _state(out[0], look) == _state(direct[0], look), name
            owned, pure = out[0], direct[0]
        assert _state(owned) == _state(pure)


def _columns(n: int) -> list[array]:
    return [array("i", range(k * n, (k + 1) * n)) for k in range(4)]


def _masks(n: int, rng: random.Random):
    """Scattered keeps of several densities, and runs of kept rows."""
    for density in (0.02, 0.5, 0.98):
        yield bytes(rng.random() < density for _ in range(n))
    for run in (3, 700, 9000):
        yield bytes((i // run + rng.randrange(2)) % 2 for i in range(n))
    yield bytes(n)
    yield b"\1" * n


@pytest.mark.parametrize("sort_rows", [2, 5, _SORT_ROWS])
def test_where_in_place_equals_its_definition(sort_rows):
    """Scattered keeps and runs of kept rows, on owned and unowned graphs."""
    rng = random.Random(sort_rows)
    n = 3 * _SORT_ROWS + 5 if sort_rows == _SORT_ROWS else 101
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", sort_rows)
        for keep in _masks(n, rng):
            expected = [list(compress(column, keep)) for column in _columns(n)]
            pure = KnowledgeGraph._from_clean(Vocabulary(), *_columns(n))
            assert [list(c) for c in pure.where(keep)._columns()] == expected
            assert [list(c) for c in pure._columns()] == [list(c) for c in _columns(n)]
            owned = KnowledgeGraph._from_clean(Vocabulary(), *_columns(n)).owned()
            heads = owned.heads
            out = owned.where(keep)
            assert [list(c) for c in out._columns()] == expected
            assert out.heads is heads and out._owned


def test_a_consumed_graph_raises(tiny_graph):
    g = KnowledgeGraph(rows_of(tiny_graph))
    owned = g.owned()
    with pytest.raises(TypeError, match="consumed"):
        len(g)
    kept = owned.where(b"\1\0\1")
    for use in (len, rows_of, lambda g: g.heads, lambda g: g.node_ids, lambda g: g.where(b"\1")):
        with pytest.raises(TypeError, match="consumed"):
            use(owned)
    grown = plus(kept, [T("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:7")])
    renamed = grown.mapped(relation=[0, 0, 0])
    for used in (kept, grown):
        with pytest.raises(TypeError, match="consumed"):
            used.flags()
    assert len(renamed) == 3 and renamed._owned
    # a graph nobody owns is never consumed
    assert plus(tiny_graph.where(b"\1\0\1"), []).mapped() is not tiny_graph
    assert len(tiny_graph) == 3


def test_run_stage_leaves_a_callers_graph_as_it_was(runner):
    g = KnowledgeGraph(_triplets(
        (head, label, tail, 2) for head in ENTITIES for label in LABELS for tail in ENTITIES[:12]
    ))
    for name in ROW_STAGES:
        before = _rows(g)
        out, log = runner.run_stage(name, g)
        assert log.rows_in == len(g) and not out._owned
        assert _rows(g) == before, name
        g = out


# A stage's own tables, in bytes per row: 4 for a row-dropping stage's flags,
# keep mask and their OR; dedup's 8 B keys, 4 B dealt positions, duplicate
# codes and mask, beside one bucket's table; the features stage's codes and
# its marks
STAGE_BYTES_PER_ROW = {"dedup": 14, "features": 6}


def test_owned_row_stages_hold_one_slice_beyond_their_tables(runner):
    """An owned graph's row stages compact, rewrite and extend its columns in
    place: beyond the columns, a stage's traced peak is at most one
    ``_SORT_ROWS`` slice per column and the stage's own tables. A stage that
    built new columns would take up to 16 B/row more."""
    rng = random.Random(0)
    # most endpoints are genes of a larger pool, so that dedup keeps most
    # rows and the merges extend a large graph; no row carries a merge's
    # label, so the merges' key sets stay small
    pool = [*ENTITIES, *(f"Gene::NCBI:{i}" for i in range(100, 400))]
    rows = [(rng.choice(pool), rng.choice(LABELS[:4]), rng.choice(pool), rng.randrange(3))
            for _ in range(40_000)]
    # traced from before the columns are built, so that truncating or
    # extending them counts only the change in their size
    tracemalloc.start()
    try:
        g = KnowledgeGraph(_triplets(rows)).owned()
        for name in ROW_STAGES:
            n, out = len(g), []
            _, peak = traced(lambda: out.append(runner.run_stage(name, g)))
            g = out[0][0]
            bound = 16 * _SORT_ROWS + n * STAGE_BYTES_PER_ROW.get(name, 4)
            assert peak <= bound + (BUCKET_TABLE_BYTES if name == "dedup" else 0), (name, peak / n)
    finally:
        tracemalloc.stop()

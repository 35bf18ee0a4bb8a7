import copy
import os
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgprep.errors import ParseError
from kgprep.ingest import (
    ONSIDES_SCHEMA,
    infer_source,
    load_onsides,
    load_reactome,
    load_smiles_dict,
    load_table,
    load_triplets,
    load_xref,
    open_output,
    parse_entity,
    parse_relation,
)
from kgprep.model import ENTITY_TYPE_ALIASES, ENTITY_TYPES, EntityRef, RelationRef

from oracles import is_clean


def test_parse_entity_full_form():
    ref = parse_entity("Disease::MESH:D015658")
    assert (ref.entity_type, ref.source, ref.local_id) == ("Disease", "MESH", "D015658")
    assert ref.text == "Disease::MESH:D015658"


def test_parse_entity_inferred_sources():
    assert parse_entity("Gene::2157").source == "NCBI"
    assert parse_entity("Compound::DB00394").source == "drugbank"
    assert parse_entity("Compound::2244").source == "PubChem_Compounds"
    assert parse_entity("Compound::CHEMBL25").source == "CHEMBL"
    assert parse_entity("Disease::D015658").source == "MESH"
    assert parse_entity("Disease::DOID:9352").source == "DOID"
    assert parse_entity("Side Effect::C0235309").source == "umls"
    assert parse_entity("Anatomy::0001621").source == "UBERON"


def test_parse_entity_unknown_pattern_flagged():
    assert infer_source("Compound", "xx-weird") == "unknown"
    assert parse_entity("Compound::xx-weird").source == "unknown"


def test_parse_entity_rejects():
    with pytest.raises(ParseError, match="unknown entity type"):
        parse_entity("Frob::X:1")
    with pytest.raises(ParseError, match="empty identifier"):
        parse_entity("Gene::")
    with pytest.raises(ParseError):
        parse_entity("no-separator")


def test_parse_entity_spaced_aliases():
    assert parse_entity("Biological Process::GO:0042110").entity_type == "BiologicalProcess"
    assert parse_entity("Side Effect::umls:C123").entity_type == "SideEffect"


def test_parse_entity_keeps_defect_characters():
    # removal happens in the cleaning stage, not at parse time
    ref = parse_entity("Compound::DB01;DB02")
    assert ";" in ref.local_id and not is_clean(ref)


def test_parse_relation_forms():
    rel = parse_relation("GNBR::A+::Compound:Gene")
    assert (rel.origin, rel.label, rel.head_type, rel.tail_type) == (
        "GNBR", "A+", "Compound", "Gene",
    )
    rel = parse_relation("Hetionet::CbG::Compound:Gene")
    assert rel.label == "CbG"
    rel = parse_relation("Hetionet::CcSE::Compound:Side Effect")
    assert rel.tail_type == "SideEffect"


def test_parse_relation_rejects():
    with pytest.raises(ParseError):
        parse_relation("broken::x")
    with pytest.raises(ParseError, match="unknown endpoint type"):
        parse_relation("GNBR::B::Alien:Gene")
    with pytest.raises(ParseError):
        parse_relation("justtext")


_id_alphabet = st.text(
    alphabet=st.characters(
        codec="ascii", categories=("L", "N"), include_characters="+-._"
    ),
    min_size=1,
    max_size=12,
)


@given(
    entity_type=st.sampled_from(sorted(ENTITY_TYPES)),
    source=_id_alphabet,
    local_id=_id_alphabet,
)
def test_entity_round_trip(entity_type, source, local_id):
    ref = EntityRef(entity_type, source, local_id)
    assert parse_entity(ref.text) == ref


@given(
    origin=_id_alphabet,
    label=_id_alphabet,
    head=st.sampled_from(sorted(ENTITY_TYPES)),
    tail=st.sampled_from(sorted(ENTITY_TYPES)),
)
def test_relation_round_trip(origin, label, head, tail):
    rel = RelationRef(origin, label, head, tail)
    assert parse_relation(rel.text) == rel


# small alphabets, so that texts of one entity written two ways are drawn
# (``Gene::1`` and ``Gene::NCBI:1``), and wide ones
_sources = st.none() | st.sampled_from(["NCBI", "drugbank", "MESH", "x;y|\xe9"]) | st.text(
    st.characters(blacklist_characters=":", blacklist_categories=("Cs",)), min_size=1, max_size=6
)
_local_ids = st.text("1DB:;| \xe9", min_size=1, max_size=4) | st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)


@st.composite
def _entity_texts(draw):
    """An entity text in any accepted spelling, with the type, source and
    local id it names."""
    spelling = draw(st.sampled_from(sorted(ENTITY_TYPE_ALIASES)))
    entity_type = ENTITY_TYPE_ALIASES[spelling]
    pad = draw(st.sampled_from(["", " "]))
    source, local_id = draw(_sources), draw(_local_ids)
    if source is None:
        local_id = local_id.replace(":", "-")
        text = f"{pad}{spelling}{pad}::{local_id}"
        source = infer_source(entity_type, local_id)
    else:
        text = f"{pad}{spelling}{pad}::{source}:{local_id}"
    return text, (entity_type, source, local_id)


@given(_entity_texts(), _entity_texts())
def test_an_entity_is_its_rendered_text(one, other):
    (text, parts), (other_text, _) = one, other
    ref = parse_entity(text)
    assert (ref.entity_type, ref.source, ref.local_id) == parts
    canonical = "{}::{}:{}".format(*parts)
    assert ref.text == canonical
    assert parse_entity(ref.text) == ref and parse_entity(ref.text).text == canonical
    if text == canonical:
        assert ref.text is text
    assert pickle.loads(pickle.dumps(ref)) == ref and copy.copy(ref) == ref
    other_ref = parse_entity(other_text)
    assert (ref == other_ref) == (ref.text == other_ref.text)
    assert ref != other_ref or hash(ref) == hash(other_ref)


def test_an_entity_source_holds_no_colon():
    with pytest.raises(ValueError, match="NCBI:1"):
        EntityRef("Gene", "NCBI:1", "2")


def test_loaded_entities_stay_cheap(tmp_path):
    # 20,000 entities on a row each, half named with their source
    n = 20_000
    ids = [f"Gene::NCBI:{100_000 + i}" if i % 2 else f"Gene::{100_000 + i}" for i in range(n)]
    path = _write(tmp_path, "t.tsv", [
        f"{ids[i]}\tGNBR::B::Gene:Gene\t{ids[(i * 7919 + 1) % n]}" for i in range(n)
    ])
    tracemalloc.start()
    try:
        g, _ = load_triplets(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.vocab.entities) == n
    # measured: 378 B an entity as a ref of four strings kept by a
    # process-wide parse memo, 189-197 B as a ref of its type and text,
    # with its id, its vocabulary slots and its row's columns
    assert held / n <= 230


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_load_triplets_basic(tmp_path):
    path = _write(tmp_path, "t.tsv", [
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2",
        "Gene::NCBI:2\tGNBR::B::Gene:Gene\tGene::NCBI:3",
        "Gene::NCBI:3\tGNBR::B::Gene:Gene\tGene::NCBI:1",
    ])
    g, log = load_triplets(path)
    assert len(g) == 3
    assert log.rows_removed == 0


def test_load_triplets_skips_bad_columns(tmp_path):
    path = _write(tmp_path, "t.tsv", [
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2",
        "only\ttwo",
    ])
    g, log = load_triplets(path)
    assert len(g) == 1
    assert log.details["skipped_bad_columns"] == 1


def test_load_triplets_header_detection(tmp_path):
    path = _write(tmp_path, "t.tsv", [
        "head\trelation\ttail",
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2",
    ])
    g, log = load_triplets(path)
    assert len(g) == 1
    assert log.details["header_lines"] == 1

    # a first line that parses as data is data
    path2 = _write(tmp_path, "t2.tsv", [
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2",
        "Gene::NCBI:2\tGNBR::B::Gene:Gene\tGene::NCBI:3",
    ])
    g2, log2 = load_triplets(path2)
    assert len(g2) == 2
    assert log2.details["header_lines"] == 0


def test_load_triplets_planted_malformed_accounting(tmp_path):
    rng = random.Random(3)
    lines = [
        f"Gene::NCBI:{i}\tGNBR::B::Gene:Gene\tGene::NCBI:{i + 5000}"
        for i in range(990)
    ]
    bad = (
        ["too\tfew"] * 4
        + ["Gene::NCBI:1\tGNBR::B::Gene:Gene\tFrob::X:1"] * 3
        + ["Gene::NCBI:1\tnot-a-relation\tGene::NCBI:2"] * 3
    )
    lines.extend(bad)
    rng.shuffle(lines)
    path = _write(tmp_path, "fixture.tsv", lines)
    g, log = load_triplets(path)
    assert log.rows_in == 1000
    assert len(g) == 990
    assert log.rows_removed == 10
    # nothing silently dropped: loaded + skipped == physical - header
    assert log.rows_out + log.rows_removed == log.details["physical_lines"] - log.details["header_lines"]


def test_load_triplets_unreadable_is_fatal(tmp_path):
    with pytest.raises(Exception, match="cannot read"):
        load_triplets(tmp_path / "missing.tsv")


def test_load_xref_duplicate_last_wins(tmp_path, caplog):
    path = _write(tmp_path, "x.tsv", [
        "Compound::CHEMBL:CHEMBL25\tCompound::PubChem_Compounds:2244",
        "Compound::CHEMBL:CHEMBL25\tCompound::PubChem_Compounds:9999",
    ])
    with caplog.at_level("WARNING"):
        table = load_xref(path)
    assert table["Compound::CHEMBL:CHEMBL25"] == "Compound::PubChem_Compounds:9999"
    assert any("duplicate key" in r.message for r in caplog.records)


def test_load_smiles_dict(tmp_path):
    path = _write(tmp_path, "s.tsv", ["Compound::PubChem_Compounds:702\tCCO"])
    assert load_smiles_dict(path) == {"Compound::PubChem_Compounds:702": "CCO"}


def test_load_reactome_rows(tmp_path):
    path = _write(tmp_path, "r.tsv", [
        "Gene::NCBI:2157\tPathway::Reactome:R-HSA-1234",
        "Gene::NCBI:2157\tPathway::Reactome:R-HSA-5678",
    ])
    assert load_reactome(path) == [
        ("Gene::NCBI:2157", "Pathway::Reactome:R-HSA-1234"),
        ("Gene::NCBI:2157", "Pathway::Reactome:R-HSA-5678"),
    ]


def test_load_onsides_validates_tier(tmp_path):
    good = _write(tmp_path, "ok.tsv", [
        "Compound::PubChem_Compounds:1\tSideEffect::umls:C1\thigh",
    ])
    assert load_onsides(good) == [
        ("Compound::PubChem_Compounds:1", "SideEffect::umls:C1", "high")
    ]
    bad = _write(tmp_path, "bad.tsv", [
        "Compound::PubChem_Compounds:1\tSideEffect::umls:C1\tshaky",
    ])
    with pytest.raises(ParseError, match="line 1"):
        load_onsides(bad)


def test_load_table_schema_violation_fatal(tmp_path):
    bad = _write(tmp_path, "x.tsv", ["only-one-column"])
    with pytest.raises(ParseError, match="expected 3 columns"):
        load_table(bad, ONSIDES_SCHEMA)


def test_header_accepted_on_first_line_after_comments(tmp_path):
    path = _write(tmp_path, "s.tsv", [
        "# comment",
        "",
        "compound_id\tsmiles",
        "Compound::PubChem_Compounds:702\tCCO",
    ])
    assert load_smiles_dict(path) == {"Compound::PubChem_Compounds:702": "CCO"}
    later = _write(tmp_path, "later.tsv", [
        "Compound::PubChem_Compounds:702\tCCO",
        "compound_id\tsmiles",
    ])
    assert load_smiles_dict(later) == {
        "Compound::PubChem_Compounds:702": "CCO",
        "compound_id": "smiles",
    }


def test_open_output_replaces_a_file_only_once_it_is_whole(tmp_path):
    """A file is written under a temporary name and moved to its name once
    closed: a failed write leaves the old bytes and no temporary file, and
    a rewrite leaves the old file's other hard-linked names alone."""
    path, other = tmp_path / "out.tsv", tmp_path / "other.tsv"
    path.write_bytes(b"old\n")
    os.link(path, other)
    with pytest.raises(OSError, match="disk full"):
        with open_output(path, binary=True) as fh:
            fh.write(b"new\n")
            raise OSError("disk full")
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other.tsv", "out.tsv"]
    with open_output(path) as fh:
        fh.write("new\n")
        fh.flush()
        assert path.read_bytes() == b"old\n"
    assert path.read_bytes() == b"new\n"
    assert other.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other.tsv", "out.tsv"]

"""leakage_report.json and the audit counters of a small run against a report
recomputed from the split files the run wrote, pair by pair."""

import json
import random
import statistics
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgprep import model
from kgprep.cli import main
from kgprep.config import STAGE_NAMES
from kgprep.errors import ParseError
from kgprep.ingest import parse_entity
from kgprep.model import ENTITY_TYPE_ALIASES
from kgprep.split_audit import _pstdev

from oracles import (
    _check_leakage,
    audit_inputs,
    leaked_count_bruteforce,
    leaked_count_hashed,
    leakage_records_from_splits,
    rendered_id,
)

TASKS = ("ppi", "drug_repurposing", "side_effect")
SEEDS = (0, 1, 2)
FLOATS = ("ratio", "mean", "std")

# (origin, label, head type, tail type, canonical label)
HARMONIZATION = (
    ("GNBR", "B", "Gene", "Gene", "GENE_BIND"),
    ("STRING", "Binding", "Gene", "Gene", "GENE_BIND"),
    ("DGIdb", "Agonist", "Compound", "Gene", "AGONIST"),
    ("GNBR", "A+", "Compound", "Gene", "AGONIST"),
)
GENE_XREF = {"Gene::NCBI:100": "Gene::NCBI:1", "Gene::NCBI:101": "Gene::NCBI:2"}


def _graph_rows() -> list[tuple[str, str, str]]:
    """ppi and drug rows with literal duplicates, reversed rows, relation
    synonyms and xref-mapped genes; six side-effect rows, so that task's
    valid split is empty; and context rows."""
    rng = random.Random(23)
    genes = [f"Gene::NCBI:{i}" for i in range(8)] + list(GENE_XREF)
    compounds = [f"Compound::PubChem_Compounds:{i}" for i in range(5)]
    rows = []
    for _ in range(60):
        h, t = rng.sample(genes, 2)
        rows.append((h, rng.choice(["GNBR::B::Gene:Gene", "STRING::Binding::Gene:Gene",
                                    "GNBR::Q::Gene:Gene"]), t))
    for _ in range(30):
        rows.append((rng.choice(compounds),
                     rng.choice(["DGIdb::Agonist::Compound:Gene", "GNBR::A+::Compound:Gene"]),
                     rng.choice(genes)))
    rows += rows[::6] + [(t, r, h) for h, r, t in rows[1:60:7]]
    rows += [(compounds[i % 5], "SIDER::causes::Compound:SideEffect", f"SideEffect::UMLS:C{i}")
             for i in range(6)]
    rows += [(g, "GNBR::L::Gene:Disease", f"Disease::MESH:D{i % 3}") for i, g in enumerate(genes)]
    rng.shuffle(rows)
    return rows


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    (root / "graph.tsv").write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in _graph_rows()), encoding="utf-8"
    )
    (root / "gene_xref.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in GENE_XREF.items()), encoding="utf-8"
    )
    (root / "harmonization.tsv").write_text(
        "".join("\t".join(row) + "\n" for row in HARMONIZATION), encoding="utf-8"
    )
    toggles = "".join(
        f"stages.{name} = {'true' if name in ('splits', 'audit') else 'false'}\n"
        for name in STAGE_NAMES
    )
    (root / "pipeline.cfg").write_text(
        "inputs.triplets = graph.tsv\ninputs.gene_xref = gene_xref.tsv\n"
        "inputs.harmonization = harmonization.tsv\n"
        f"split.tasks = {','.join(TASKS)}\nsplit.seeds = {','.join(map(str, SEEDS))}\n"
        + toggles,
        encoding="utf-8",
    )
    out = root / "out"
    assert main(["--quiet", "--config", str(root / "pipeline.cfg"), "--out", str(out), "run"]) == 0
    return out


def test_report_equals_pairwise_recount_of_split_files(run_out):
    report = json.loads((run_out / "leakage_report.json").read_text(encoding="utf-8"))
    relation_map = {tuple(row[:4]): row[4] for row in HARMONIZATION}
    expected = leakage_records_from_splits(
        run_out / "splits", TASKS, SEEDS, GENE_XREF, relation_map
    )
    assert len(report) == len(expected) == len(TASKS) * 8
    for got, want in zip(report, expected):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key in FLOATS:
                assert got[key] == pytest.approx(value), (want["task"], key)
            else:
                assert got[key] == value, (want["task"], key)

    # side_effect has 6 targets: its valid split is empty and reads 0.0
    empty = [r for r in report if r["split_pair"] == "train_valid" and r["task"] == "side_effect"]
    assert empty and all(r["total"] == [0] * len(SEEDS) and r["ratio"] == [0.0] * len(SEEDS)
                         for r in empty)
    # every detector finds leaks in ppi, so the comparison is not vacuous
    ppi = {r["detector"]: sum(r["leaked"]) for r in report
           if r["task"] == "ppi" and r["split_pair"] == "train_test"}
    assert 0 < ppi["duplicate_inverse"] < ppi["relation_redundancy"] < ppi["entity_redundancy"]


@pytest.mark.parametrize("include_inverse", [True, False])
def test_hashed_recount_equals_pairwise_recount(run_out, include_inverse):
    relation_map = {tuple(row[:4]): row[4] for row in HARMONIZATION}
    pairwise, hashed = (
        leakage_records_from_splits(run_out / "splits", TASKS, SEEDS, GENE_XREF, relation_map,
                                    include_inverse, count=count)
        for count in (leaked_count_bruteforce, leaked_count_hashed)
    )
    assert hashed == pairwise
    assert any(sum(r["leaked"]) for r in hashed)


def test_recount_from_the_config_matches_the_report(run_out, capsys):
    config = run_out.parent / "pipeline.cfg"
    inputs = audit_inputs(config)
    assert inputs["entity_map"] == GENE_XREF
    assert inputs["relation_map"] == {tuple(row[:4]): row[4] for row in HARMONIZATION}
    assert (inputs["tasks"], inputs["seeds"]) == (list(TASKS), list(SEEDS))
    assert _check_leakage(config, run_out) == 0
    assert capsys.readouterr().out == f"all {len(TASKS) * 8} leakage records match\n"


@pytest.mark.parametrize("include_inverse", [True, False])
def test_report_of_classes_of_two_rows_equals_pairwise_recount(run_out, include_inverse):
    """The run's audit with buckets of two rows: its endpoint pairs collide,
    so pairs are counted and probed across many classes."""
    config = run_out.parent / f"inverse_{include_inverse}.cfg"
    config.write_text((run_out.parent / "pipeline.cfg").read_text(encoding="utf-8")
                      + f"audit.include_inverse = {str(include_inverse).lower()}\n",
                      encoding="utf-8")
    out = run_out.parent / f"tiny_buckets_{include_inverse}"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", 2)
        assert main(["--quiet", "--config", str(config), "--out", str(out), "run"]) == 0
    report = json.loads((out / "leakage_report.json").read_text(encoding="utf-8"))
    relation_map = {tuple(row[:4]): row[4] for row in HARMONIZATION}
    expected = leakage_records_from_splits(
        out / "splits", TASKS, SEEDS, GENE_XREF, relation_map, include_inverse
    )
    assert [(r["leaked"], r["total"]) for r in report] == [
        (r["leaked"], r["total"]) for r in expected]
    assert any(sum(r["leaked"]) for r in report)


# ids on each side of the README's source-inference rules
_LOCAL_IDS = ("DB00002", "DB", "DBX", "db00002", "2026", "\u0663\u0664", "CHEMBL25", "chembl25",
              "ChEBI:15377", "ZINC0001", "MolPort-001", "DOID:9352", "doid9352", "D012345",
              "C0018681", "c0018681", "D", "X9", "C1:2")


@given(category=st.sampled_from(sorted(ENTITY_TYPE_ALIASES)), pad=st.sampled_from(["", " "]),
       source=st.sampled_from(["", "NCBI:", "drugbank:", "MESH:"]),
       local=st.sampled_from(_LOCAL_IDS) | st.text("CDBHEMLZINOP0123456789:-", min_size=1, max_size=6))
def test_oracle_renders_ids_as_the_package_writes_them(category, pad, source, local):
    text = f"{pad}{category}{pad}::{source}{local}"
    try:
        written = parse_entity(text).text
    except ParseError:
        return
    assert rendered_id(text) == written


def test_recount_inputs_key_ids_as_the_split_files_write_them(tmp_path):
    (tmp_path / "compound_xref.tsv").write_text("Compound::DB00002\tCompound::2026\n",
                                               encoding="utf-8")
    (tmp_path / "sideeffect_xref.tsv").write_text("Side Effect::C0001\tSideEffect::C0002\n",
                                                 encoding="utf-8")
    (tmp_path / "harmonization.tsv").write_text(
        "SIDER\tcauses\tCompound\tSide Effect\tSIDE_EFFECT_OF\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text(
        "inputs.triplets = graph.tsv\ninputs.compound_xref = compound_xref.tsv\n"
        "inputs.sideeffect_xref = sideeffect_xref.tsv\ninputs.harmonization = harmonization.tsv\n",
        encoding="utf-8")
    inputs = audit_inputs(tmp_path / "run.cfg")
    assert inputs["entity_map"] == {
        "Compound::drugbank:DB00002": "Compound::PubChem_Compounds:2026",
        "SideEffect::umls:C0001": "SideEffect::umls:C0002",
    }
    assert inputs["relation_map"] == {("SIDER", "causes", "Compound", "SideEffect"): "SIDE_EFFECT_OF"}


def test_audit_counters_are_the_report_sums(run_out):
    report = json.loads((run_out / "leakage_report.json").read_text(encoding="utf-8"))
    stats = json.loads((run_out / "stats.json").read_text(encoding="utf-8"))
    audit, = (s for s in stats["stages"] if s["stage"] == "audit")
    assert audit["details"] == {
        f"{r['task']}_{r['detector']}_{r['split_pair']}_leaked": sum(r["leaked"]) for r in report
    }


_RATIOS = st.lists(
    st.builds(lambda n, d: n / d, st.integers(0, 10**6), st.integers(1, 10**6)) | st.floats(0, 1),
    min_size=1,
    max_size=10,
)
_EDGE_CASES = (
    [0.0], [1.0], [0.25] * 10, [0.0, 1.0], [5e-324, 0.0], [1 / 3, 2 / 3], [0.1, 0.2, 0.3],
    [1e-300, 3e-300], [0.999999, 1.0, 0.999998],
)


# 3.11's statistics rounds the root once; 3.10's rounds twice
_CORRECTLY_ROUNDED = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="statistics.pstdev rounds twice before 3.11"
)


@_CORRECTLY_ROUNDED
@given(_RATIOS)
def test_report_std_is_pstdev_bit_for_bit(ratios):
    assert _pstdev(ratios) == statistics.pstdev(ratios)


@_CORRECTLY_ROUNDED
@pytest.mark.parametrize("ratios", _EDGE_CASES)
def test_report_std_is_pstdev_bit_for_bit_on_edge_cases(ratios):
    assert _pstdev(ratios) == statistics.pstdev(ratios)

"""Acceptance suite.

Criteria 1, 2 and 5 run self-contained on generated fixtures. Criteria 3 and
4 need the official upstream exports; point KGPREP_DATA_DIR at a directory
holding drkg.tsv, taxonomy.tsv, reactome.tsv, onsides.tsv, smiles.tsv and the
xref tables (see README) to enable them, otherwise they skip.

Each criterion prints one PASS/FAIL/SKIP line (run pytest with -s to see
them on success).
"""

import dataclasses
import os
import random
import time
from pathlib import Path

import pytest

from kgprep.chem.fingerprint import morgan_fingerprint
from kgprep.chem.smiles import parse_smiles
from kgprep.clean import HarmonizationTable, harmonize
from kgprep.config import load_config
from kgprep.corpus import build_corpus
from kgprep.features import collapse_to_features
from kgprep.ingest import load_triplets, load_xref, parse_entity, parse_relation
from kgprep.model import ENTITY_TYPES, EntityRef, KnowledgeGraph, RelationRef
from kgprep.normalize import IdMapTable, deduplicate, remap_entities, resolve_fixed_point
from kgprep.pipeline import run_pipeline
from kgprep.split_audit import (
    DETECTORS,
    audit_report,
    detect_leakage,
    leak_keys,
    make_splits,
)

from conftest import FIXTURE_MOLECULES, fingerprint_of, graph_of, leakage_of, rows_of, run_stage
from molwrite import molecule_view, random_smiles
from oracles import (
    PLANTED_COUNTERS,
    endpoints,
    fingerprint_bits,
    fingerprint_bits_bruteforce,
    leaked_count_bruteforce,
    planted_mismatches,
    reconstruct_edges,
    render,
    split_test,
    split_train,
    split_valid,
)
from test_split_audit import random_bundle, to_oracle_form

DATA_DIR = os.environ.get("KGPREP_DATA_DIR")


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# --- criterion 1: property suite -------------------------------------------


def test_acceptance_1_property_suite(tmp_path):
    start = time.perf_counter()

    # conservation per stage on a full pipeline run; the node total counts
    # the endpoints of the written graph
    corpus = build_corpus(tmp_path / "corpus", total_rows=1500, seed=11)
    config = load_config(corpus.config)
    config.out_dir = str(tmp_path / "out")
    report = run_pipeline(config)
    for stage in report.stages:
        assert stage.rows_out == stage.rows_in - stage.rows_removed + stage.rows_added
    final, _ = load_triplets(tmp_path / "out" / "graph.tsv")
    assert report.node_total == len(endpoints(rows_of(final)))

    # idempotence of harmonize, remap and dedup
    g, _ = load_triplets(corpus.triplets)
    table = HarmonizationTable.builtin()
    h1, _ = run_stage("harmonize", g, lambda g: harmonize(g, table))
    h2, _ = run_stage("harmonize", h1, lambda g: harmonize(g, table))
    assert [render(t) for t in rows_of(h1)] == [render(t) for t in rows_of(h2)]

    compounds = resolve_fixed_point(
        IdMapTable.from_pairs("Compound", load_xref(corpus.compound_xref).items())
    )
    empty_d, empty_g = IdMapTable.empty("Disease"), IdMapTable.empty("Gene")
    r1, _ = run_stage("remap", h1, lambda g: remap_entities(g, compounds, empty_d, empty_g))
    r2, log2 = run_stage(
        "remap", r1, lambda g: remap_entities(g, compounds, empty_d, empty_g)
    )
    assert log2.details["endpoints_rewritten"] == 0
    assert [render(t) for t in rows_of(r1)] == [render(t) for t in rows_of(r2)]

    d1, _ = run_stage("dedup", r1, deduplicate)
    d2, dlog = run_stage("dedup", d1, deduplicate)
    assert dlog.rows_removed == 0

    # parse round-trips over a deterministic sample
    rng = random.Random(0)
    sources = ["MESH", "NCBI", "PubChem_Compounds", "drugbank", "umls", "GO", "x1"]
    for _ in range(500):
        ref = EntityRef(
            rng.choice(sorted(ENTITY_TYPES)),
            rng.choice(sources),
            "id-" + "".join(rng.choices("abcXYZ0123456789.:_-", k=rng.randint(1, 12))),
        )
        assert parse_entity(ref.text) == ref
        rel = RelationRef(
            rng.choice(["GNBR", "Hetionet", "STRING", "bioarx"]),
            "L" + "".join(rng.choices("abcXYZ+>-0123456789", k=rng.randint(1, 8))),
            rng.choice(sorted(ENTITY_TYPES)),
            rng.choice(sorted(ENTITY_TYPES)),
        )
        assert parse_relation(rel.text) == rel

    # fingerprint determinism + permutation invariance:
    # 20 molecules x 100 randomized atom-order rewritings
    assert len(FIXTURE_MOLECULES) == 20
    for smiles in FIXTURE_MOLECULES:
        mol = parse_smiles(smiles)
        reference = morgan_fingerprint(mol)
        assert fingerprint_of(smiles) == reference  # recomputation agrees
        for _ in range(100):
            variant = random_smiles(mol, rng)
            assert fingerprint_bits(fingerprint_of(variant)) == fingerprint_bits(reference), (smiles, variant)

    # feature round-trip losslessness on a randomized annotated graph
    rows = []
    for i in range(150):
        rows.append((f"Gene::NCBI:{i}", "GNBR::GENE_BIND::Gene:Gene", f"Gene::NCBI:{i + 500}"))
    seen_pairs = set()
    for i in range(300):
        gene = f"Gene::NCBI:{rng.randint(0, 149)}"
        kind, label = rng.choice([
            ("Pathway::Reactome:R-HSA-", "Reactome::GENE_PATHWAY::Gene:Pathway"),
            ("MolecularFunction::GO:", "Hetionet::GpMF::Gene:MolecularFunction"),
            ("BiologicalProcess::GO:", "Hetionet::GpBP::Gene:BiologicalProcess"),
            ("CellularComponent::GO:", "Hetionet::GpCC::Gene:CellularComponent"),
        ])
        annotation = f"{kind}{rng.randint(0, 40)}"
        if (gene, annotation) in seen_pairs:
            continue
        seen_pairs.add((gene, annotation))
        rows.append((gene, label, annotation))
    annotated = graph_of(*rows)
    collapsed, manifest, feature_table, _ = collapse_to_features(annotated)
    assert reconstruct_edges(manifest, feature_table) == seen_pairs
    edges_removed = len(annotated) - len(collapsed)
    assert sum(map(len, feature_table.values())) == edges_removed
    for category in ("Pathway", "MolecularFunction", "BiologicalProcess", "CellularComponent"):
        assert collapsed.nodes_of_type(category) == []

    # split partition property over 20 seeds
    target = graph_of(*[
        (f"Gene::NCBI:{i}", "GNBR::GENE_BIND::Gene:Gene", f"Gene::NCBI:{i + 500}")
        for i in range(233)
    ])
    for seed in range(20):
        split = make_splits(target, "ppi", [seed])
        n = len(split.target)
        assert n == 233
        assert len(split_valid(split, 0)) == 23 and len(split_test(split, 0)) == 46
        rendered = sorted(
            render(t) for t in split_train(split, 0) + split_valid(split, 0) + split_test(split, 0)
        )
        assert rendered == sorted(render(t) for t in rows_of(target))

    # leakage detectors equal the exhaustive pairwise oracle on 50 bundles
    oracle_rng = random.Random(99)
    for _ in range(50):
        size = oracle_rng.randint(30, 500)
        bundle, table2, entity_map, relation_map = random_bundle(oracle_rng, size)
        engine = leakage_of(bundle, 0, entity_map, table2)
        train = to_oracle_form(split_train(bundle, 0))
        for pair, eval_split in (("train_valid", split_valid(bundle, 0)),
                                 ("train_test", split_test(bundle, 0))):
            eval_rows = to_oracle_form(eval_split)
            for detector in DETECTORS:
                expected = leaked_count_bruteforce(
                    train, eval_rows, entity_map, relation_map, detector,
                    canonical_labels=set(table2.canonical_labels),
                )
                assert engine[(detector, pair)][0] == expected

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"property suite took {elapsed:.1f}s"
    _report(f"1 (property suite): PASS in {elapsed:.1f}s")


# --- criterion 2: planted-defect corpus --------------------------------------


def test_acceptance_2_planted_defect_corpus(tmp_path):
    corpus = build_corpus(tmp_path / "corpus", total_rows=10_000, seed=7)
    exp = corpus.expected
    assert exp.total_rows == 10_000
    config = load_config(corpus.config)
    start = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - start

    mismatches = planted_mismatches(report.to_dict(), dataclasses.asdict(exp))
    assert not mismatches, "\n".join(mismatches)
    assert elapsed < 10, f"pipeline took {elapsed:.1f}s on the 10k corpus"
    _report(
        f"2 (planted-defect corpus): PASS, {len(PLANTED_COUNTERS)} counters exact, "
        f"pipeline {elapsed:.2f}s"
    )


# --- criteria 3 and 4: conditional on the official exports -------------------

OFFICIAL_COUNTS = {
    "semicolon_rows": 1_122,
    "pipe_rows": 98,
    "nonhuman_rows": 135_294,
    "nonhuman_genes": 17_553,
    "duplicates": 842_262,
    "compound_ids_merged": 2_508,
    "disease_ids_merged": 118,
    "drugbank_retained_genes": 62,
    "reactome_pathways": 2_153,
    "reactome_edges": 68_380,
    "onsides_edges": 339_867,
    "smiles_compounds_removed": 3_872,
    "smiles_edges_removed": 239_219,
    "fingerprints": 15_831,
    "final_nodes": 48_058,
    "final_edges": 4_004_583,
}

_SKIP_NO_DATA = (
    "official exports not available (set KGPREP_DATA_DIR to a directory with "
    "drkg.tsv, taxonomy.tsv, reactome.tsv, onsides.tsv, smiles.tsv and xref "
    "tables to enable)"
)


def _official_config(data_dir: Path, out_dir: Path):
    from kgprep.config import PipelineConfig

    def opt(name):
        path = data_dir / name
        return str(path) if path.exists() else None

    config = PipelineConfig(
        triplets=str(data_dir / "drkg.tsv"),
        compound_xref=opt("compound_xref.tsv"),
        disease_xref=opt("disease_xref.tsv"),
        gene_xref=opt("gene_xref.tsv"),
        sideeffect_xref=opt("sideeffect_xref.tsv"),
        taxonomy=opt("taxonomy.tsv"),
        reactome=str(data_dir / "reactome.tsv"),
        onsides=str(data_dir / "onsides.tsv"),
        smiles=str(data_dir / "smiles.tsv"),
        out_dir=str(out_dir),
    )
    return config


@pytest.mark.skipif(DATA_DIR is None, reason=_SKIP_NO_DATA)
def test_acceptance_3_full_reproduction(tmp_path):
    data_dir = Path(DATA_DIR)
    if not (data_dir / "drkg.tsv").exists():
        _report("3 (full reproduction): SKIP, drkg.tsv missing")
        pytest.skip(_SKIP_NO_DATA)
    config = _official_config(data_dir, tmp_path / "out")
    start = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - start
    logs = {s.stage_name: s for s in report.stages}
    drugbank_genes = sum(
        row["count"]
        for row in report.nodes_by_type_source
        if row["type"] == "Gene" and row["source"] == "drugbank"
    )
    got = {
        "semicolon_rows": logs["filter_malformed"].details["semicolon_rows"],
        "pipe_rows": logs["filter_malformed"].details["pipe_rows"],
        "nonhuman_rows": logs["remove_nonhuman"].rows_removed,
        "nonhuman_genes": logs["remove_nonhuman"].details["nonhuman_genes_removed"],
        "duplicates": logs["dedup"].rows_removed,
        "compound_ids_merged": logs["remap"].details["compound_ids_merged"],
        "disease_ids_merged": logs["remap"].details["disease_ids_merged"],
        "drugbank_retained_genes": drugbank_genes,
        "reactome_pathways": logs["reactome"].details["pathway_nodes_added"],
        "reactome_edges": logs["reactome"].details["edges_added"],
        "onsides_edges": logs["onsides"].details["edges_added"],
        "smiles_compounds_removed": logs["smiles_filter"].details["compounds_removed"],
        "smiles_edges_removed": logs["smiles_filter"].details["edges_removed"],
        "fingerprints": logs["fingerprints"].details["fingerprints_generated"],
        "final_nodes": report.node_total,
        "final_edges": report.edge_total,
    }
    failures = []
    for name, want in OFFICIAL_COUNTS.items():
        actual = got[name]
        delta = actual - want
        print(f"  {name}: got {actual}, want {want} (delta {delta:+d})")
        if want and abs(delta) / want > 0.05:
            failures.append(f"{name}: {actual} vs {want} exceeds 5%")
    assert not failures, "\n".join(failures)
    assert elapsed < 300, f"pipeline took {elapsed:.0f}s, target < 5 minutes"
    _report(f"3 (full reproduction): PASS in {elapsed:.0f}s")


@pytest.mark.skipif(DATA_DIR is None, reason=_SKIP_NO_DATA)
def test_acceptance_4_leakage_reproduction(tmp_path):
    data_dir = Path(DATA_DIR)
    if not (data_dir / "drkg.tsv").exists():
        _report("4 (leakage reproduction): SKIP, drkg.tsv missing")
        pytest.skip(_SKIP_NO_DATA)
    g, _ = load_triplets(data_dir / "drkg.tsv")
    table = HarmonizationTable.builtin()
    entity_map = {}
    for name, etype in (
        ("compound_xref.tsv", "Compound"),
        ("disease_xref.tsv", "Disease"),
        ("gene_xref.tsv", "Gene"),
        ("sideeffect_xref.tsv", "SideEffect"),
    ):
        path = data_dir / name
        if path.exists():
            resolved = resolve_fixed_point(IdMapTable.from_file(path, etype))
            entity_map.update((k.text, v.text) for k, v in resolved.mapping.items())

    def any_ratio(task_name: str) -> tuple[float, float]:
        split = make_splits(g, task_name, range(5))
        reports = detect_leakage(leak_keys(split, entity_map, table), split)
        cell, = (r for r in audit_report(task_name, list(range(5)), reports)
                 if (r["detector"], r["split_pair"]) == ("any", "train_test"))
        return cell["mean"], cell["std"]

    ppi_mean, ppi_std = any_ratio("ppi")
    print(f"  ppi any-detector train/test: {ppi_mean:.3f} +/- {ppi_std:.3f}")
    assert abs(ppi_mean - 0.655) <= 0.02

    dr_mean, dr_std = any_ratio("drug_repurposing")
    print(f"  drug_repurposing any-detector train/test: {dr_mean:.3f} +/- {dr_std:.3f}")
    assert abs(dr_mean - 0.187) <= 0.02

    # side-effect edges all come from one source; restricted to that origin
    # subgraph the relation/entity detectors must find nothing
    sider = KnowledgeGraph(
        t for t in rows_of(g)
        if t.relation.origin.casefold() in ("sider", "hetionet")
        or {t.head.entity_type, t.tail.entity_type} != {"Compound", "SideEffect"}
    )
    split = make_splits(sider, "side_effect", range(5))
    reports = detect_leakage(leak_keys(split, entity_map, table), split)
    means = {(r["detector"], r["split_pair"]): r["mean"]
             for r in audit_report("side_effect", list(range(5)), reports)}
    for detector in ("relation_redundancy", "entity_redundancy"):
        ratio = means[(detector, "train_test")]
        print(f"  side_effect {detector} train/test: {ratio:.4f}")
        assert ratio <= 0.001
    _report("4 (leakage reproduction): PASS")


def test_acceptance_3_4_report_skip_without_data():
    if DATA_DIR is None:
        _report("3 (full reproduction): SKIP, " + _SKIP_NO_DATA)
        _report("4 (leakage reproduction): SKIP, " + _SKIP_NO_DATA)
    assert True


# --- criterion 5: fingerprint oracle equivalence ------------------------------


def test_acceptance_5_fingerprint_oracle_equivalence():
    for smiles in FIXTURE_MOLECULES[:10]:
        mol = parse_smiles(smiles)
        engine_bits = set(fingerprint_bits(morgan_fingerprint(mol, radius=2, nbits=2048)))
        oracle_bits = fingerprint_bits_bruteforce(molecule_view(mol), radius=2, nbits=2048)
        assert engine_bits == oracle_bits, smiles
    _report("5 (fingerprint oracle equivalence): PASS, 10/10 molecules exact")

"""The splits and audit stages against the per-seed recipe: for every task
and seed, rescan the whole graph, render and sort each file on its own, and
audit a bundle built from those lists. The stage output must be byte-equal."""

import random

import pytest

from kgprep.config import STAGE_NAMES, load_config
from kgprep.ingest import load_triplets
from kgprep.pipeline import PipelineRunner
from kgprep.split_audit import (
    BUILTIN_TASKS,
    audit_report,
    detect_leakage,
    leak_keys,
    write_leakage_json,
)

from conftest import rows_of, splits_of
from oracles import split_file_texts, splits_by_rescan

TASKS = ("ppi", "drug_repurposing", "side_effect")
SEEDS = (0, 1, 2, 3)


def _graph_rows() -> list[tuple[str, str, str]]:
    """Rows of every task plus context rows, with literal duplicates,
    reversed rows, relation synonyms, xref-mapped genes, gene ids that
    extend another id by a character below TAB, and disease ids with 2-, 3-
    and 4-byte UTF-8 characters, which every task has in its context, so a
    row's byte offset in a written file differs from its character offset."""
    rng = random.Random(11)
    genes = [f"Gene::NCBI:{i}" for i in range(12)]
    genes += [f"Gene::NCBI:{i}\x01b" for i in range(6)]
    genes += [f"Gene::NCBI:{100 + i}" for i in range(3)]
    compounds = [f"Compound::PubChem_Compounds:{i}" for i in range(8)]
    side_effects = [f"SideEffect::UMLS:C{i}" for i in range(6)]
    diseases = [f"Disease::MESH:D{i}" for i in range(5)]
    diseases += [f"Disease::MESH:D{i}\u00e9" for i in range(2)]
    diseases += ["Disease::MESH:D\u20ac", "Disease::MESH:D\U0001d50a"]
    ppi_rel = ["GNBR::B::Gene:Gene", "STRING::Binding::Gene:Gene", "Hetionet::GiG::Gene:Gene",
               "GNBR::Rg::Gene:Gene"]
    drug_rel = ["GNBR::A+::Compound:Gene", "DGIdb::Agonist::Compound:Gene",
                "Hetionet::CbG::Compound:Gene"]
    rows = []
    for _ in range(120):
        h, t = rng.sample(genes, 2)
        rows.append((h, rng.choice(ppi_rel), t))
    for _ in range(60):
        rows.append((rng.choice(compounds), rng.choice(drug_rel), rng.choice(genes)))
    for _ in range(40):
        rows.append((rng.choice(compounds), "SIDER::causes::Compound:SideEffect",
                     rng.choice(side_effects)))
    for _ in range(40):
        rows.append((rng.choice(compounds), "GNBR::T::Compound:Disease", rng.choice(diseases)))
        rows.append((rng.choice(genes), "GNBR::L::Gene:Disease", rng.choice(diseases)))
    rows += rows[::7]  # literal duplicates
    rows += [(t, r, h) for h, r, t in rows[:40:5] if r.endswith("Gene:Gene")]  # reversed
    rng.shuffle(rows)
    return rows


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("equivalence")
    graph = root / "graph.tsv"
    graph.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in _graph_rows()), encoding="utf-8")
    (root / "gene_xref.tsv").write_text(
        "Gene::NCBI:100\tGene::NCBI:1\nGene::NCBI:101\tGene::NCBI:2\n"
        "Gene::NCBI:102\tGene::NCBI:3\n",
        encoding="utf-8",
    )
    toggles = "".join(
        f"stages.{name} = {'true' if name in ('splits', 'audit') else 'false'}\n"
        for name in STAGE_NAMES
    )
    config = root / "pipeline.cfg"
    config.write_text(
        "inputs.triplets = graph.tsv\ninputs.gene_xref = gene_xref.tsv\n"
        f"split.tasks = {','.join(TASKS)}\nsplit.seeds = {','.join(map(str, SEEDS))}\n"
        + toggles,
        encoding="utf-8",
    )
    return config


@pytest.mark.parametrize("include_inverse", [True, False])
@pytest.mark.parametrize("preserve_order", [False, True])
def test_splits_and_report_equal_per_seed_recipe(inputs, tmp_path, preserve_order,
                                                 include_inverse):
    config = load_config(inputs)
    config.out_dir = str(tmp_path / "out")
    config.preserve_order = preserve_order
    config.audit_include_inverse = include_inverse
    runner = PipelineRunner(config)
    runner.run()

    g, _ = load_triplets(config.triplets)
    entity_map = {}
    for table in runner.id_maps.values():
        entity_map.update(table.mapping)
    entities = {k.text: v.text for k, v in entity_map.items()}
    splits = tmp_path / "out" / "splits"
    expected_files = set()
    line_sort_differs = False
    records = []
    for task_name in TASKS:
        reports = []
        for seed in SEEDS:
            parts = splits_by_rescan(rows_of(g), BUILTIN_TASKS[task_name], seed)
            seed_dir = splits / task_name / f"seed_{seed}"
            for name, text in split_file_texts(parts, preserve_order).items():
                expected_files.add(seed_dir / name)
                assert (seed_dir / name).read_bytes() == text.encode("utf-8"), (task_name, seed, name)
                lines = text.splitlines(keepends=True)
                line_sort_differs |= sorted(lines) != lines
            train, valid, test, _ = parts
            split = splits_of(task_name, seed, train, valid, test)
            keys = leak_keys(split, entities, runner.harmonization_table)
            reports += detect_leakage(keys, split, include_inverse=include_inverse)
        records += audit_report(task_name, list(SEEDS), reports)
    assert {p for p in splits.rglob("*") if p.is_file()} == expected_files
    for task_name in TASKS:
        context = splits / task_name / f"seed_{SEEDS[0]}" / "context.tsv"
        assert not context.read_text(encoding="utf-8").isascii(), task_name
    if not preserve_order:
        # sorting whole lines instead of text tuples would reorder some file
        assert line_sort_differs

    reference = tmp_path / "reference.json"
    write_leakage_json(reference, records)
    assert (tmp_path / "out" / "leakage_report.json").read_bytes() == reference.read_bytes()
    ppi = {r["detector"]: r["leaked"] for r in records
           if r["task"] == "ppi" and r["split_pair"] == "train_test"}
    for detector in ("duplicate_inverse", "relation_redundancy", "entity_redundancy"):
        assert sum(ppi[detector]) > 0, detector

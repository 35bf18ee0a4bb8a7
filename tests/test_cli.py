import errno
import gc
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import kgprep
from kgprep import cli, ingest, split_audit
from kgprep.cli import main
from kgprep.config import STAGE_NAMES
from kgprep.corpus import build_corpus
from kgprep.errors import ConfigError, InputError, StageError
from kgprep.stats import compute_stats

from conftest import graph_of


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("corpus"), total_rows=1200, seed=3)


def _mask_wall(report: dict) -> dict:
    report = json.loads(json.dumps(report))
    report["wall_time_seconds"] = 0
    for stage in report["stages"]:
        stage["wall_time"] = 0
    return report


def test_run_and_outputs(corpus, tmp_path):
    out = tmp_path / "out"
    rc = main(["--quiet", "--config", str(corpus.config), "--out", str(out), "run"])
    assert rc == 0
    for name in ("graph.tsv", "stats.json", "fingerprints.tsv",
                 "feature_manifest.tsv", "gene_features.tsv", "leakage_report.json"):
        assert (out / name).exists(), name
    assert (out / "splits" / "ppi" / "seed_0" / "train.tsv").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["edges"]["total"] == corpus.expected.final_edges
    assert stats["nodes"]["total"] == corpus.expected.final_nodes
    # stage sequence holds every enabled stage exactly once, in order
    names = [s["stage"] for s in stats["stages"]]
    assert names == [
        "ingest", "filter_malformed", "harmonize", "remove_nonhuman",
        "drop_types", "remap", "dedup", "reactome", "onsides",
        "smiles_filter", "fingerprints", "features", "splits", "audit",
    ]


def test_rerun_is_byte_identical(corpus, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--quiet", "--config", str(corpus.config), "--out", str(out_a), "run"]) == 0
    assert main(["--quiet", "--config", str(corpus.config), "--out", str(out_b), "run"]) == 0
    compared = 0
    for path_a in sorted(out_a.rglob("*")):
        if path_a.is_dir():
            continue
        path_b = out_b / path_a.relative_to(out_a)
        if path_a.name == "stats.json":
            a = _mask_wall(json.loads(path_a.read_text()))
            b = _mask_wall(json.loads(path_b.read_text()))
            assert a == b
        else:
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
        compared += 1
    assert compared > 10


def test_identity_pipeline_round_trips(corpus, tmp_path):
    # all toggles off: output equals input modulo id standardization + sort
    cfg = tmp_path / "identity.cfg"
    stage_lines = "".join(
        f"stages.{name} = false\n"
        for name in ("filter_malformed", "harmonize", "remove_nonhuman", "drop_types",
                     "remap", "dedup", "reactome", "onsides", "smiles_filter",
                     "fingerprints", "features", "splits", "audit")
    )
    cfg.write_text(f"inputs.triplets = {corpus.triplets}\n{stage_lines}", encoding="utf-8")
    out = tmp_path / "identity_out"
    assert main(["--quiet", "--config", str(cfg), "--out", str(out), "run"]) == 0
    lines = (out / "graph.tsv").read_text().splitlines()
    assert len(lines) == corpus.expected.total_rows


def test_stage_subcommand_checkpoint(corpus, tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text(
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n"
        "Gene::NCBI:2\tGNBR::B::Gene:Gene\tGene::NCBI:1\n"
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n",
        encoding="utf-8",
    )
    out = tmp_path / "stage_out"
    rc = main(["--quiet", "--config", str(corpus.config), "--out", str(out),
               "stage", "dedup", "--graph", str(graph)])
    assert rc == 0
    assert (out / "graph.tsv").read_text().splitlines() == [
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2"
    ]
    log = json.loads((out / "stage_dedup.json").read_text())
    assert log[0]["details"] == {"exact_duplicates": 1, "reversed_duplicates": 1}


def test_stage_chain_equals_run(tmp_path):
    """A checkpoint keeps graph order, so chaining ``stage`` through every
    stage before splits gives run's graph, once sorted, and its side files:
    dedup keeps a pair's first occurrence in graph order."""
    corpus = build_corpus(tmp_path / "corpus", total_rows=5000, seed=0)
    cfg, run_out = str(corpus.config), tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(run_out), "run"]) == 0
    graph = corpus.triplets
    for name in STAGE_NAMES[: STAGE_NAMES.index("splits")]:
        out = tmp_path / "chain" / name
        assert main(["--quiet", "--config", cfg, "--out", str(out),
                     "stage", name, "--graph", str(graph)]) == 0
        graph = out / "graph.tsv"
    written = graph.read_bytes().splitlines(keepends=True)
    assert b"".join(sorted(written)) == (run_out / "graph.tsv").read_bytes()
    for name, stage in (("fingerprints.tsv", "fingerprints"), ("gene_features.tsv", "features")):
        side = (tmp_path / "chain" / stage / name).read_bytes()
        assert side == (run_out / name).read_bytes(), name


def test_stats_subcommand(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text(
        "Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n"
        "Compound::PubChem_Compounds:1\tGNBR::B::Compound:Gene\tGene::NCBI:1\n",
        encoding="utf-8",
    )
    rc = main(["--quiet", "stats", "--graph", str(graph)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"]["total"] == 2
    by_sig = {(row["signature"], row["origin"]): row["count"]
              for row in payload["edges"]["by_signature_origin"]}
    assert by_sig == {("Gene:Gene", "GNBR"): 1, ("Compound:Gene", "GNBR"): 1}


def test_split_and_audit_subcommands(corpus, tmp_path):
    graph = tmp_path / "g.tsv"
    rows = [f"Gene::NCBI:{i}\tGNBR::B::Gene:Gene\tGene::NCBI:{i + 100}" for i in range(40)]
    rows += rows[:10]  # plant literal duplicates so leakage is non-zero
    graph.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "sp"
    rc = main(["--quiet", "--out", str(out), "--seed", "5",
               "split", "--graph", str(graph), "--task", "ppi"])
    assert rc == 0
    assert (out / "splits" / "ppi" / "seed_5" / "test.tsv").exists()

    rc = main(["--quiet", "--out", str(out), "audit", "--graph", str(graph), "--task", "ppi"])
    assert rc == 0
    records = json.loads((out / "leakage_report.json").read_text())
    assert {r["detector"] for r in records} == {
        "duplicate_inverse", "relation_redundancy", "entity_redundancy", "any",
    }
    for record in records:
        assert set(record) == {
            "task", "detector", "split_pair", "leaked", "total", "ratio",
            "mean", "std", "seeds",
        }
        assert record["task"] == "ppi"


def test_repeated_task_flag_is_config_error(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text("Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n", encoding="utf-8")
    out = tmp_path / "sp"
    rc = main(["--quiet", "--out", str(out), "split", "--graph", str(graph),
               "--task", "ppi", "--task", "ppi"])
    assert rc == 1
    assert "split.tasks lists 'ppi' more than once" in capsys.readouterr().err
    assert not out.exists()


def test_out_that_is_a_file_is_config_error(corpus, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    src = str(Path(kgprep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    cases = (
        (taken, f"output directory {taken} exists and is not a directory"),
        (taken / "sub", f"output directory {taken / 'sub'} is below {taken}, "
                        "which is not a directory"),
    )
    for out, message in cases:
        for command in ("run", "validate-config"):
            proc = subprocess.run(
                [sys.executable, "-m", "kgprep", "--config", str(corpus.config),
                 "--out", str(out), command],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 1, (out, command)
            assert "Traceback" not in proc.stderr
            assert proc.stderr.splitlines() == [f"config error: {message}"]
            assert taken.read_text(encoding="utf-8") == "keep\n"


def test_unwritable_output_is_config_error(corpus, tmp_path):
    out = tmp_path / "out"
    (out / "graph.tsv").mkdir(parents=True)
    src = str(Path(kgprep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "kgprep", "--quiet", "--config", str(corpus.config),
         "--out", str(out), "run"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"config error: cannot write {out / 'graph.tsv'}: Is a directory"
    ]


@pytest.mark.parametrize(
    "bad, command, code, message",
    [
        ("g.tsv", ["stats", "--graph", "g.tsv"], 2, "input error: cannot read triplet file"),
        ("tax.tsv", ["run"], 2, "input error: cannot read taxonomy file"),
        ("run.cfg", ["validate-config"], 1, "config error: cannot read config file"),
    ],
    ids=["triplets", "taxonomy", "config"],
)
def test_non_utf8_input_exits_with_one_line(tmp_path, bad, command, code, message):
    (tmp_path / "g.tsv").write_bytes(b"Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n")
    (tmp_path / "tax.tsv").write_bytes(b"Gene::NCBI:1\thuman\n")
    (tmp_path / "run.cfg").write_bytes(
        b"inputs.triplets = g.tsv\ninputs.taxonomy = tax.tsv\n"
        b"stages.reactome = false\nstages.onsides = false\n"
        b"stages.smiles_filter = false\nstages.fingerprints = false\n"
        b"stages.features = false\n"
    )
    with (tmp_path / bad).open("ab") as fh:
        fh.write(b"\xff\n")
    src = str(Path(kgprep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "kgprep", "--quiet", "--config", "run.cfg",
         "--out", "out", *command],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"{message} {bad}: ")


def test_validate_config_subcommand(corpus, tmp_path, capsys):
    assert main(["--quiet", "--config", str(corpus.config), "validate-config"]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("stages.remap = false\nstages.dedup = true\n", encoding="utf-8")
    assert main(["--quiet", "--config", str(bad), "validate-config"]) == 1


def test_exit_codes(tmp_path):
    # 1: config error (unknown key)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense.key = 1\n", encoding="utf-8")
    assert main(["--quiet", "--config", str(bad_cfg), "run"]) == 1
    # 2: unreadable input
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(
        "inputs.triplets = missing.tsv\n"
        "stages.reactome = false\nstages.onsides = false\n"
        "stages.smiles_filter = false\nstages.fingerprints = false\n"
        "stages.features = false\n",
        encoding="utf-8",
    )
    assert main(["--quiet", "--config", str(cfg), "run"]) == 2
    # 3: stage failure (empty split target)
    graph = tmp_path / "g.tsv"
    graph.write_text("Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(["--quiet", "--out", str(out), "split", "--graph", str(graph),
                 "--task", "side_effect"]) == 3


@pytest.mark.parametrize(
    "stage, table, row, message",
    [
        (
            "reactome",
            "Gene::NCBI:1\tCompound::drugbank:DB1\n",
            1,
            "Gene::NCBI:1 -> Compound::drugbank:DB1 does not fit GENE_PATHWAY, "
            "which links Gene to Pathway",
        ),
        (
            "onsides",
            "Compound::drugbank:DB1\tSideEffect::umls:C1\thigh\n"
            "Compound::drugbank:DB1\tGene::NCBI:2\thigh\n",
            2,
            "Compound::drugbank:DB1 -> Gene::NCBI:2 does not fit SIDE_EFFECT, "
            "which links Compound to SideEffect",
        ),
        # a node an earlier row of the same table added counts as present
        (
            "reactome",
            "Gene::NCBI:1\tPathway::Reactome:P1\n"
            "Pathway::Reactome:P1\tPathway::Reactome:P2\n",
            2,
            "Pathway::Reactome:P1 -> Pathway::Reactome:P2 does not fit GENE_PATHWAY, "
            "which links Gene to Pathway",
        ),
        (
            "onsides",
            "Compound::drugbank:DB1\tSideEffect::umls:C1\thigh\n"
            "SideEffect::umls:C1\tSideEffect::umls:C2\thigh\n",
            2,
            "SideEffect::umls:C1 -> SideEffect::umls:C2 does not fit SIDE_EFFECT, "
            "which links Compound to SideEffect",
        ),
        # a mistyped row is an error even when the graph already has its pair
        (
            "onsides",
            "Compound::drugbank:DB1\tGene::NCBI:1\thigh\n",
            1,
            "Compound::drugbank:DB1 -> Gene::NCBI:1 does not fit SIDE_EFFECT, "
            "which links Compound to SideEffect",
        ),
        # ... or an earlier row of the same table added it
        (
            "reactome",
            "Gene::NCBI:1\tPathway::Reactome:P1\n"
            "Pathway::Reactome:P1\tGene::NCBI:1\n",
            2,
            "Pathway::Reactome:P1 -> Gene::NCBI:1 does not fit GENE_PATHWAY, "
            "which links Gene to Pathway",
        ),
    ],
)
def test_mistyped_enrichment_row_is_input_error(tmp_path, capsys, stage, table, row, message):
    graph = tmp_path / "g.tsv"
    graph.write_text(
        "Compound::drugbank:DB1\tGNBR::B::Compound:Gene\tGene::NCBI:1\n", encoding="utf-8"
    )
    (tmp_path / "table.tsv").write_text(table, encoding="utf-8")
    cfg = tmp_path / "enrich.cfg"
    cfg.write_text(f"inputs.{stage} = table.tsv\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["--quiet", "--config", str(cfg), "--out", str(out),
               "stage", stage, "--graph", str(graph)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {stage} table, row {row}: {message}"
    ]
    assert not (out / "graph.tsv").exists()


@pytest.mark.parametrize(
    "stage, table, row, message",
    [
        # a comment line, then a row, its duplicate and a mistyped row on line 4
        (
            "reactome",
            "# gene to pathway\n"
            "Gene::NCBI:1\tPathway::Reactome:P1\n"
            "Gene::NCBI:1\tPathway::Reactome:P1\n"
            "Gene::NCBI:1\tCompound::drugbank:DB2\n",
            4,
            "Gene::NCBI:1 -> Compound::drugbank:DB2 does not fit GENE_PATHWAY, "
            "which links Gene to Pathway",
        ),
        # a comment line and the header come before the rows
        (
            "onsides",
            "# compound to side effect\n"
            "compound_id\tside_effect_id\tconfidence_tier\n"
            "Compound::drugbank:DB1\tSideEffect::umls:C1\thigh\n"
            "Compound::drugbank:DB1\tGene::NCBI:2\thigh\n",
            4,
            "Compound::drugbank:DB1 -> Gene::NCBI:2 does not fit SIDE_EFFECT, "
            "which links Compound to SideEffect",
        ),
        # an id that does not parse, in either column, after the header
        (
            "onsides",
            "compound_id\tside_effect_id\tconfidence_tier\n"
            "Compound::drugbank:DB1\tSideEffect::umls:C1\thigh\n"
            "notanentity\tSideEffect::umls:C2\thigh\n",
            3,
            "entity 'notanentity': missing '::' type separator",
        ),
        (
            "onsides",
            "compound_id\tside_effect_id\tconfidence_tier\n"
            "Compound::drugbank:DB1\tSideEffect::umls:C1\thigh\n"
            "Compound::drugbank:DB1\tnotanentity\thigh\n",
            3,
            "entity 'notanentity': missing '::' type separator",
        ),
    ],
    ids=["reactome", "onsides", "onsides-compound-id", "onsides-side-effect-id"],
)
def test_enrichment_row_number_is_its_file_line(tmp_path, capsys, stage, table, row, message):
    graph = tmp_path / "g.tsv"
    graph.write_text(
        "Compound::drugbank:DB1\tGNBR::B::Compound:Gene\tGene::NCBI:1\n", encoding="utf-8"
    )
    (tmp_path / "table.tsv").write_text(table, encoding="utf-8")
    cfg = tmp_path / "enrich.cfg"
    cfg.write_text(f"inputs.{stage} = table.tsv\n", encoding="utf-8")
    rc = main(["--quiet", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "stage", stage, "--graph", str(graph)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {stage} table, row {row}: {message}"
    ]


@pytest.mark.parametrize(
    "key, stage, table, message",
    [
        (
            "gene_xref",
            "remap",
            "Gene::NCBI:1\tGene::NCBI:2\nGene::NCBI:3\tnotanentity\n",
            "xref file {path}: entity 'notanentity': missing '::' type separator",
        ),
        (
            "taxonomy",
            "remove_nonhuman",
            "Gene::NCBI:1\thuman\nnotanentity\thuman\n",
            "taxonomy file {path}: entity 'notanentity': missing '::' type separator",
        ),
        (
            "reactome",
            "reactome",
            "Gene::NCBI:1\tPathway::Reactome:P1\nGene::NCBI:1\tBanana::x:1\n",
            "reactome file {path}: entity 'Banana::x:1': unknown entity type 'Banana'",
        ),
    ],
    ids=["xref", "taxonomy", "reactome"],
)
def test_malformed_id_in_table_names_file_and_line(tmp_path, capsys, key, stage, table, message):
    graph = tmp_path / "g.tsv"
    graph.write_text("Gene::NCBI:1\tGNBR::B::Gene:Gene\tGene::NCBI:2\n", encoding="utf-8")
    path = tmp_path / "table.tsv"
    path.write_text(table, encoding="utf-8")
    cfg = tmp_path / "table.cfg"
    cfg.write_text(f"inputs.{key} = table.tsv\n", encoding="utf-8")
    rc = main(["--quiet", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "stage", stage, "--graph", str(graph)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: line 2: " + message.format(path=path)
    ]


def test_onsides_row_below_confidence_is_skipped_unparsed(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text(
        "Compound::drugbank:DB1\tGNBR::B::Compound:Gene\tGene::NCBI:1\n", encoding="utf-8"
    )
    (tmp_path / "table.tsv").write_text(
        "Compound::drugbank:DB1\tSideEffect::umls:C1\thigh\nnotanentity\tnotanentity\tlow\n",
        encoding="utf-8",
    )
    cfg = tmp_path / "enrich.cfg"
    cfg.write_text("inputs.onsides = table.tsv\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["--quiet", "--config", str(cfg), "--out", str(out),
               "stage", "onsides", "--graph", str(graph)])
    assert rc == 0
    stage_log, = json.loads((out / "stage_onsides.json").read_text())
    assert stage_log["details"]["skipped_below_confidence"] == 1
    assert stage_log["details"]["edges_added"] == 1


def test_non_ascii_digit_in_smiles_is_counted_unparseable(tmp_path):
    compounds = {
        "Compound::drugbank:DB1": "CCO",
        "Compound::drugbank:DB2": "C\u00b2",  # superscript two
        "Compound::drugbank:DB3": "C%1\u00b2",
        "Compound::drugbank:DB4": "C1CC\u0661",  # Arabic-Indic one
    }
    (tmp_path / "g.tsv").write_text(
        "".join(f"{c}\tGNBR::B::Compound:Gene\tGene::NCBI:1\n" for c in compounds),
        encoding="utf-8",
    )
    (tmp_path / "smiles.tsv").write_text(
        "".join(f"{c}\t{s}\n" for c, s in compounds.items()), encoding="utf-8"
    )
    cfg = tmp_path / "chem.cfg"
    cfg.write_text(
        "inputs.triplets = g.tsv\ninputs.smiles = smiles.tsv\n"
        "stages.reactome = false\nstages.onsides = false\nstages.features = false\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["--quiet", "--config", str(cfg), "--out", str(out), "run"]) == 0
    stages = {s["stage"]: s for s in json.loads((out / "stats.json").read_text())["stages"]}
    assert stages["smiles_filter"]["details"]["compounds_unparseable"] == 3
    assert stages["fingerprints"]["details"]["fingerprints_generated"] == 1
    assert (out / "fingerprints.tsv").read_text().startswith("Compound::drugbank:DB1\t")


def test_compute_stats_totals_match_breakdowns():
    g = graph_of(
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:2", "STRING::Binding::Gene:Gene", "Gene::NCBI:3"),
        ("Compound::PubChem_Compounds:1", "Hetionet::CbG::Compound:Gene", "Gene::NCBI:1"),
    )
    report = compute_stats(g)
    assert report.edge_total == sum(r["count"] for r in report.edges_by_signature_origin)
    assert report.node_total == sum(r["count"] for r in report.nodes_by_type_source)
    rows = report.nodes_by_type_source
    assert rows == sorted(rows, key=lambda r: (r["type"], r["source"]))


def test_compute_stats_counts_row_endpoints_not_the_vocabulary():
    g = graph_of(
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
        ("Compound::drugbank:DB1", "Hetionet::CbG::Compound:Gene", "Gene::ENSEMBL:9"),
        ("Compound::PubChem_Compounds:1", "Hetionet::CbG::Compound:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:2", "STRING::Binding::Gene:Gene", "Gene::NCBI:1"),
    )
    kept = g.where(b"\x01\x00\x01\x01")
    report = compute_stats(kept)
    assert report.node_total == len(kept.nodes) == len(kept.vocab.entities) - 2
    counts = {(r["type"], r["source"]): r["count"] for r in report.nodes_by_type_source}
    assert counts == Counter((n.entity_type, n.source) for n in kept.nodes)


# --- the output tree of each command ------------------------------------------


def _splits_config(tmp_path, graph) -> Path:
    """A config that runs only splits and audit, so the run's final graph is
    the input graph."""
    toggles = "".join(
        f"stages.{name} = {'true' if name in ('splits', 'audit') else 'false'}\n"
        for name in STAGE_NAMES
    )
    cfg = tmp_path / "splits.cfg"
    cfg.write_text(
        f"inputs.triplets = {graph}\nsplit.tasks = ppi,drug_repurposing\n"
        "split.seeds = 0,1\n" + toggles,
        encoding="utf-8",
    )
    return cfg


def _graph_file(tmp_path) -> Path:
    """ppi and drug_repurposing targets plus context rows, written so that
    input order is not text order."""
    graph = tmp_path / "g.tsv"
    rows = [f"Gene::NCBI:{i % 7}\tGNBR::B::Gene:Gene\tGene::NCBI:{i % 5 + 10}" for i in range(30)]
    rows += [f"Compound::drugbank:DB{i % 4}\tGNBR::A+::Compound:Gene\tGene::NCBI:{i}"
             for i in range(20)]
    rows += [f"Gene::NCBI:{i}\tGNBR::L::Gene:Disease\tDisease::MESH:D{i % 3}" for i in range(10)]
    graph.write_text("".join(r + "\n" for r in reversed(rows)), encoding="utf-8")
    return graph


def test_run_whose_audit_fails_leaves_no_graph_file(corpus, tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise StageError("audit failed")

    monkeypatch.setattr(split_audit, "detect_leakage", failing)
    out = tmp_path / "out"
    rc = main(["--quiet", "--config", str(corpus.config), "--out", str(out), "run"])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == ["stage failure: audit failed"]
    assert not (out / "splits").exists()
    assert not (out / "graph.tsv").exists()
    assert not list(out.rglob("*.partial"))


def test_run_renders_each_graph_row_once(corpus, tmp_path, monkeypatch):
    """The graph file and every split file come from one rendering of each
    row, and nothing is read back from the graph file."""
    rendered = Counter()
    real = ingest.render_chunks

    def counting(g, order, *texts):
        for lines in real(g, order, *texts):
            rendered.update(lines)
            yield lines

    def no_read_back(*args):
        raise AssertionError("a written file was read back")

    monkeypatch.setattr(ingest, "render_chunks", counting)
    monkeypatch.setattr(split_audit, "render_chunks", counting)
    monkeypatch.setattr(os, "pread", no_read_back)
    out = tmp_path / "out"
    assert main(["--quiet", "--config", str(corpus.config), "--out", str(out), "run"]) == 0
    assert rendered == Counter((out / "graph.tsv").read_bytes().splitlines(keepends=True))
    assert (out / "splits" / "side_effect" / "seed_2" / "train.tsv").stat().st_size > 0


def test_split_write_failure_leaves_no_graph_file_and_no_open_file(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    blocker = out / "splits" / "drug_repurposing" / "seed_1"
    blocker.parent.mkdir(parents=True)
    blocker.write_text("not a directory\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc = main(["--quiet", "--config", str(corpus.config), "--out", str(out), "run"])
        gc.collect()
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot write {blocker}: File exists"
    ]
    assert not (out / "graph.tsv").exists()
    assert not list(out.rglob("*.partial"))
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _fail_rendering_after_one_chunk(monkeypatch):
    """Every rendering of graph rows raises OSError after its first chunk of
    64 rows, as a full disk would."""
    real = ingest.render_chunks

    def failing(g, order, *texts):
        yield next(real(g, order, *texts))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(ingest, "_WRITE_CHUNK", 64)
    monkeypatch.setattr(ingest, "render_chunks", failing)
    monkeypatch.setattr(split_audit, "render_chunks", failing)


@pytest.mark.parametrize("command", [["run"], ["stage", "dedup"]])
def test_graph_write_failure_leaves_no_graph_file(corpus, tmp_path, monkeypatch, capsys,
                                                  command):
    """A run with the default stages, or a stage, whose graph write fails
    leaves no graph.tsv, whole or cut, and no temporary file."""
    cfg = corpus.config.with_name("default_stages.cfg")
    text = corpus.config.read_text(encoding="utf-8")
    cfg.write_text(text.replace("stages.splits = true\nstages.audit = true\n", ""),
                   encoding="utf-8")
    graph = ["--graph", str(corpus.triplets)] if command[0] == "stage" else []
    out = tmp_path / "out"
    _fail_rendering_after_one_chunk(monkeypatch)
    rc = main(["--quiet", "--config", str(cfg), "--out", str(out), *command, *graph])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: cannot write output: No space left on device"
    ]
    assert not (out / "graph.tsv").exists()
    assert not list(out.rglob("*.partial"))


def test_failed_rewrite_leaves_the_old_outputs(corpus, tmp_path, monkeypatch):
    """A run into an old output directory whose final write fails leaves
    every old file's bytes as they were."""
    out = tmp_path / "out"
    argv = ["--quiet", "--config", str(corpus.config), "--out", str(out), "run"]
    assert main(argv) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "graph.tsv" in before
    _fail_rendering_after_one_chunk(monkeypatch)
    assert main(argv) == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_split_opens_no_graph_file(tmp_path, monkeypatch):
    opened = []
    real = ingest.open_output

    def tracked(path, binary=False):
        opened.append(Path(path))
        return real(path, binary)

    monkeypatch.setattr(ingest, "open_output", tracked)
    monkeypatch.setattr(split_audit, "open_output", tracked)
    graph, out = _graph_file(tmp_path), tmp_path / "out"
    assert main(["--quiet", "--config", str(_splits_config(tmp_path, graph)),
                 "--out", str(out), "split", "--graph", str(graph)]) == 0
    assert opened
    assert all(out / "splits" in path.parents for path in opened), opened


def test_split_leaves_only_splits(tmp_path):
    graph, out = _graph_file(tmp_path), tmp_path / "out"
    rc = main(["--quiet", "--config", str(_splits_config(tmp_path, graph)),
               "--out", str(out), "split", "--graph", str(graph)])
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["splits"]
    assert sorted(p.name for p in (out / "splits").iterdir()) == ["drug_repurposing", "ppi"]


@pytest.mark.parametrize("preserve_order", [False, True])
def test_stage_splits_writes_the_graph_run_writes(tmp_path, preserve_order):
    graph = _graph_file(tmp_path)
    cfg = str(_splits_config(tmp_path, graph))
    order = ["--preserve-order"] if preserve_order else []
    run_out, stage_out = tmp_path / "run", tmp_path / "stage"
    assert main(["--quiet", "--config", cfg, "--out", str(run_out), *order, "run"]) == 0
    assert main(["--quiet", "--config", cfg, "--out", str(stage_out), *order,
                 "stage", "splits", "--graph", str(graph)]) == 0
    written = (stage_out / "graph.tsv").read_bytes()
    assert written == (run_out / "graph.tsv").read_bytes()
    assert (written == graph.read_bytes()) == preserve_order
    assert sorted(p.name for p in stage_out.iterdir()) == ["graph.tsv", "splits", "stage_splits.json"]


@pytest.fixture
def odd_gc_threshold():
    """A threshold no one sets, restored to the interpreter's afterwards."""
    saved = gc.get_threshold()
    gc.set_threshold(1234, 11, 12)
    yield gc.get_threshold()
    gc.set_threshold(*saved)


def test_main_raises_the_gc_threshold_while_a_command_runs(monkeypatch, odd_gc_threshold):
    seen = []
    monkeypatch.setitem(
        cli._COMMANDS, "stats", lambda args: seen.append((gc.get_threshold(), gc.isenabled())) or 0
    )
    assert main(["--quiet", "stats", "--graph", "unused.tsv"]) == 0
    assert seen == [((100_000, 50, 100), True)]
    assert gc.get_threshold() == odd_gc_threshold


def _raises(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("command, code", [
    (lambda args: 0, 0),
    (_raises(ConfigError("bad key")), 1),
    (_raises(OSError(28, "No space left on device", "out/graph.tsv")), 1),
    (_raises(InputError("bad row")), 2),
    (_raises(StageError("empty target")), 3),
])
def test_main_restores_the_gc_threshold(monkeypatch, capsys, odd_gc_threshold, command, code):
    monkeypatch.setitem(cli._COMMANDS, "stats", command)
    assert main(["--quiet", "stats", "--graph", "unused.tsv"]) == code
    assert gc.get_threshold() == odd_gc_threshold


def test_argparse_exit_leaves_the_gc_threshold(capsys, odd_gc_threshold):
    with pytest.raises(SystemExit):
        main(["--quiet", "no-such-command"])
    assert gc.get_threshold() == odd_gc_threshold

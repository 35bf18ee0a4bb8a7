"""One split plan per run: the graph's one text order serves graph.tsv and
every sorted split file; each (task, seed) permutation is shuffled once, and
the plan keeps only its byte per target row, so under --preserve-order the
writer shuffles each seed once more to write its files in shuffled order;
the audit reuses the splits stage's splits only for the graph they were made
for, and it builds each task's leak keys once, one class at a time, each
class probed for every seed."""

import builtins
import random

import pytest

from kgprep import split_audit
from kgprep.config import STAGE_NAMES, PipelineConfig
from kgprep.ingest import load_triplets
from kgprep.model import KnowledgeGraph
from kgprep.pipeline import PipelineRunner

from conftest import graph_of
from oracles import render

TASKS = ["ppi", "drug_repurposing", "side_effect"]
SEEDS = [0, 1, 2]


def _rows(seed: int) -> list[tuple[str, str, str]]:
    """Rows of all three tasks plus context, with literal duplicates and gene
    ids that extend another id by a character below TAB."""
    rng = random.Random(seed)
    genes = [f"Gene::NCBI:{i}" for i in range(10)]
    genes += [f"Gene::NCBI:{i}\x01x" for i in range(5)]
    compounds = [f"Compound::PubChem_Compounds:{i}" for i in range(6)]
    rows = []
    for _ in range(90):
        h, t = rng.sample(genes, 2)
        rows.append((h, rng.choice(["GNBR::B::Gene:Gene", "STRING::Binding::Gene:Gene"]), t))
    for _ in range(60):
        rows.append((rng.choice(compounds), "GNBR::A+::Compound:Gene", rng.choice(genes)))
    for _ in range(60):
        rows.append((rng.choice(compounds), "SIDER::causes::Compound:SideEffect",
                     f"SideEffect::UMLS:C{rng.randrange(8)}"))
    for _ in range(60):
        rows.append((rng.choice(genes), "GNBR::L::Gene:Disease",
                     f"Disease::MESH:D{rng.randrange(6)}"))
    rows += rows[::6]
    rng.shuffle(rows)
    return rows


def _config(tmp_path, splits: bool) -> PipelineConfig:
    graph = tmp_path / "graph_in.tsv"
    graph.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in _rows(5)), encoding="utf-8")
    config = PipelineConfig(triplets=str(graph), out_dir=str(tmp_path / "out"))
    config.stages = {name: splits and name in ("splits", "audit") for name in STAGE_NAMES}
    config.split_tasks, config.split_seeds = list(TASKS), list(SEEDS)
    return config


def _rendered_and_sorted(g: KnowledgeGraph) -> bytes:
    rendered = sorted(render(t) for t in g)
    return "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rendered).encode("utf-8")


@pytest.mark.parametrize("splits", [True, False])
def test_graph_tsv_equals_render_and_sort(tmp_path, splits):
    config = _config(tmp_path, splits)
    PipelineRunner(config).run()
    g, _ = load_triplets(config.triplets)
    expected = _rendered_and_sorted(g)
    assert (tmp_path / "out" / "graph.tsv").read_bytes() == expected
    lines = expected.decode("utf-8").splitlines(keepends=True)
    assert sorted(lines) != lines  # sorting whole lines would differ
    assert len(set(lines)) < len(lines)  # duplicate rows are kept
    assert (tmp_path / "out" / "splits").exists() == splits


def test_full_run_sorts_rows_once_and_shuffles_each_seed_once(tmp_path, monkeypatch):
    config = _config(tmp_path, splits=True)
    sorted_sizes = []
    shuffles = []
    real_sorted, real_shuffle = builtins.sorted, random.Random.shuffle

    def counting_sorted(iterable, *args, **kwargs):
        result = real_sorted(iterable, *args, **kwargs)
        sorted_sizes.append(len(result))
        return result

    def counting_shuffle(self, x):
        shuffles.append(len(x))
        return real_shuffle(self, x)

    monkeypatch.setattr(builtins, "sorted", counting_sorted)
    monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
    report = PipelineRunner(config).run()
    monkeypatch.undo()

    # the final order sorts the distinct entity texts, then one packed int
    # per row; every other sort orders a handful of counters or table keys
    assert [n for n in sorted_sizes if n >= 30] == [report.node_total, report.edge_total]
    assert len(shuffles) == len(TASKS) * len(SEEDS)


def test_preserve_order_run_shuffles_each_seed_once_more(tmp_path, monkeypatch):
    config = _config(tmp_path, splits=True)
    config.preserve_order = True
    shuffles = []
    real_shuffle = random.Random.shuffle

    def counting_shuffle(self, x):
        shuffles.append(len(x))
        return real_shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
    PipelineRunner(config).run()
    monkeypatch.undo()

    assert len(shuffles) == 2 * len(TASKS) * len(SEEDS)


def test_audit_builds_each_tasks_keys_once(tmp_path, monkeypatch):
    config = _config(tmp_path, splits=True)
    keyed, shuffles = [], []
    real_leak_keys, real_shuffle = split_audit.leak_keys, random.Random.shuffle

    def counting_leak_keys(split, *args):
        keyed.append(split.task)
        return real_leak_keys(split, *args)

    def counting_shuffle(self, x):
        shuffles.append(len(x))
        return real_shuffle(self, x)

    monkeypatch.setattr(split_audit, "leak_keys", counting_leak_keys)
    monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
    PipelineRunner(config).run()
    monkeypatch.undo()

    assert keyed == TASKS
    assert len(shuffles) == len(TASKS) * len(SEEDS)


def test_audit_of_another_graph_does_not_reuse_splits_bundles(tmp_path):
    def runner(out):
        config = _config(tmp_path, splits=True)
        config.out_dir = str(tmp_path / out)
        return PipelineRunner(config, stage="splits")

    g1 = graph_of(*_rows(1))
    g2 = graph_of(*_rows(2))
    assert len(g1) == len(g2) and list(g1) != list(g2)

    reused = runner("reused")
    reused.run_stage("splits", g1)
    _, log = reused.run_stage("audit", g2)
    _, fresh_log = runner("fresh").run_stage("audit", g2)
    _, stale_log = runner("stale").run_stage("audit", g1)
    assert log.details == fresh_log.details
    assert log.details != stale_log.details
    report = (tmp_path / "reused" / "leakage_report.json").read_bytes()
    assert report == (tmp_path / "fresh" / "leakage_report.json").read_bytes()

    # splits kept for g1 give way to the splits of g2 that a later splits
    # stage made
    resplit = runner("resplit")
    resplit.run_stage("splits", g1)
    resplit.run_stage("splits", g2)
    _, resplit_log = resplit.run_stage("audit", g2)
    assert resplit_log.details == fresh_log.details
    assert (tmp_path / "resplit" / "leakage_report.json").read_bytes() == report


def test_audit_keys_are_built_for_each_graph(tmp_path):
    def runner(out):
        config = _config(tmp_path, splits=True)
        config.out_dir = str(tmp_path / out)
        return PipelineRunner(config, stage="audit")

    g1, g2 = graph_of(*_rows(1)), graph_of(*_rows(2))
    reused = runner("reused")
    reused.run_stage("splits", g1)
    _, first = reused.run_stage("audit", g1)
    _, second = reused.run_stage("audit", g2)
    _, fresh = runner("fresh").run_stage("audit", g2)
    assert second.details == fresh.details
    assert second.details != first.details

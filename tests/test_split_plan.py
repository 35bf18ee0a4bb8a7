"""One split plan per run: the graph's one text order serves graph.tsv and
every sorted split file; each (task, seed) draws once, only the shuffle
steps that fix its valid and test positions, and the plan keeps only its
byte per target row, so under --preserve-order the writer shuffles each
seed once more, in full, to write its files in shuffled order;
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

from conftest import graph_of, rows_of
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
    rendered = sorted(render(t) for t in rows_of(g))
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


def _counting_shuffles(monkeypatch) -> list[tuple[int, int, int]]:
    """``(seed, n, stop)`` of each ``split_audit._shuffled`` call from now
    on; a call of the library's full shuffle fails the test."""
    calls, real = [], split_audit._shuffled

    def counting(seed, n, stop=1):
        calls.append((seed, n, stop))
        return real(seed, n, stop)

    def no_library_shuffle(self, x):
        raise AssertionError("random.Random.shuffle called")

    monkeypatch.setattr(split_audit, "_shuffled", counting)
    monkeypatch.setattr(random.Random, "shuffle", no_library_shuffle)
    return calls


def _draws(report, stop_at_train: bool = True) -> list[tuple[int, int, int]]:
    """One ``(seed, n, stop)`` per task and seed, in plan order: the plan's
    draws stop at the task's train size, a whole shuffle's at 1."""
    splits = next(s.details for s in report.stages if s.stage_name == "splits")
    return [(seed, splits[f"{task}_target"], splits[f"{task}_train"] if stop_at_train else 1)
            for task in TASKS for seed in SEEDS]


def test_full_run_sorts_rows_once_and_shuffles_each_seed_once(tmp_path, monkeypatch):
    config = _config(tmp_path, splits=True)
    sorted_sizes = []
    real_sorted = builtins.sorted

    def counting_sorted(iterable, *args, **kwargs):
        result = real_sorted(iterable, *args, **kwargs)
        sorted_sizes.append(len(result))
        return result

    monkeypatch.setattr(builtins, "sorted", counting_sorted)
    shuffles = _counting_shuffles(monkeypatch)
    report = PipelineRunner(config).run()
    monkeypatch.undo()

    # the final order sorts the distinct entity texts, then one packed int
    # per row; every other sort orders a handful of counters or table keys
    assert [n for n in sorted_sizes if n >= 30] == [report.node_total, report.edge_total]
    # each (task, seed) draws once, only the steps that fix valid and test
    assert shuffles == _draws(report)
    assert all(0 < stop < n for _, n, stop in shuffles)


def test_preserve_order_run_shuffles_each_seed_once_more(tmp_path, monkeypatch):
    config = _config(tmp_path, splits=True)
    config.preserve_order = True
    shuffles = _counting_shuffles(monkeypatch)
    report = PipelineRunner(config).run()
    monkeypatch.undo()

    # the plan's draws, then the writer's one whole shuffle per (task, seed)
    assert shuffles == _draws(report) + _draws(report, stop_at_train=False)


def test_audit_builds_each_tasks_keys_once(tmp_path, monkeypatch):
    config = _config(tmp_path, splits=True)
    keyed = []
    real_leak_keys = split_audit.leak_keys

    def counting_leak_keys(split, *args):
        keyed.append(split.task)
        return real_leak_keys(split, *args)

    monkeypatch.setattr(split_audit, "leak_keys", counting_leak_keys)
    shuffles = _counting_shuffles(monkeypatch)
    report = PipelineRunner(config).run()
    monkeypatch.undo()

    assert keyed == TASKS
    # the audit reuses the plan and draws nothing
    assert shuffles == _draws(report)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 100, 4116])
def test_truncated_shuffle_places_what_the_library_shuffle_places(n):
    """From ``stop`` on, the truncated shuffle's positions are those of
    ``random.Random(seed).shuffle``, whose steps it redraws; a change to
    the library's shuffle or to its draws fails here."""
    n_train = n - n // 10 - n // 5
    for seed in range(10):
        expected = list(range(n))
        random.Random(seed).shuffle(expected)
        for stop in (1, n_train, n):
            assert split_audit._shuffled(seed, n, stop)[stop:].tolist() == expected[stop:]
        assert split_audit._shuffled(seed, n, 1).tolist() == expected


def test_audit_of_another_graph_does_not_reuse_splits_bundles(tmp_path):
    def runner(out):
        config = _config(tmp_path, splits=True)
        config.out_dir = str(tmp_path / out)
        return PipelineRunner(config, stage="splits")

    g1 = graph_of(*_rows(1))
    g2 = graph_of(*_rows(2))
    assert len(g1) == len(g2) and rows_of(g1) != rows_of(g2)

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

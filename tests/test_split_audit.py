import errno
import os
import random
import sys
from contextlib import contextmanager
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgprep import ingest, model, split_audit
from kgprep.clean import HarmonizationTable
from kgprep.errors import StageError
from kgprep.model import KnowledgeGraph
from kgprep.split_audit import (
    BUILTIN_TASKS,
    DETECTORS,
    TaskSplits,
    audit_report,
    detect_leakage,
    leak_keys,
    make_splits,
    write_bundle,
)

from conftest import (
    BUCKET_TABLE_BYTES, T, fresh, graph_of, leakage_of, rows_of, splits_of, traced,
)
from oracles import (
    leaked_count_bruteforce,
    leaked_count_hashed,
    mean_and_population_std,
    render,
    split_context,
    split_file_texts,
    split_test,
    split_train,
    split_valid,
    splits_by_rescan,
    task_matches,
)


def target_graph(n_target: int = 10, n_context: int = 4) -> KnowledgeGraph:
    rows = [
        (f"Gene::NCBI:{i}", "GNBR::GENE_BIND::Gene:Gene", f"Gene::NCBI:{i + 1000}")
        for i in range(n_target)
    ]
    rows += [
        (f"Compound::PubChem_Compounds:{i}", "GNBR::TREATMENT::Compound:Disease", f"Disease::MESH:D{i}")
        for i in range(n_context)
    ]
    return graph_of(*rows)


def test_builtin_task_targets_are_disjoint(tiny_graph):
    for name_a, a in BUILTIN_TASKS.items():
        for name_b, b in BUILTIN_TASKS.items():
            if name_a == name_b:
                continue
            for t in rows_of(tiny_graph):
                assert not (task_matches(a, t) and task_matches(b, t))


def test_split_sizes_ten_targets():
    split = make_splits(target_graph(10), "ppi", [0])
    sizes = len(split_train(split, 0)), len(split_valid(split, 0)), len(split_test(split, 0))
    assert sizes == (7, 1, 2)
    assert len(split_context(split, 0)) == 4


def test_split_deterministic_per_seed():
    g = target_graph(50)
    a = make_splits(g, "ppi", [3])
    b = make_splits(g, "ppi", [3])
    assert [render(t) for t in split_train(a, 0)] == [render(t) for t in split_train(b, 0)]
    assert [render(t) for t in split_test(a, 0)] == [render(t) for t in split_test(b, 0)]


def test_split_seeds_differ_but_sizes_match():
    g = target_graph(1000)
    a = make_splits(g, "ppi", [0])
    b = make_splits(g, "ppi", [1])
    assert len(split_train(a, 0)) == len(split_train(b, 0))
    assert len(split_test(a, 0)) == len(split_test(b, 0))
    assert {render(t) for t in split_train(a, 0)} != {render(t) for t in split_train(b, 0)}


def test_split_empty_target_fatal():
    g = target_graph(0, n_context=3)
    with pytest.raises(StageError, match="ppi"):
        make_splits(g, "ppi", [0])


@settings(max_examples=40)
@given(n=st.integers(1, 300), seed=st.integers(0, 10_000))
def test_split_partition_property(n, seed):
    g = target_graph(n, n_context=0)
    split = make_splits(g, "ppi", [seed])
    assert len(split_valid(split, 0)) == n // 10
    assert len(split_test(split, 0)) == n // 5
    assert len(split_train(split, 0)) == n - n // 10 - n // 5
    whole = [render(t) for t in split_train(split, 0) + split_valid(split, 0) + split_test(split, 0)]
    assert len(whole) == n
    order = list(range(n))
    random.Random(seed).shuffle(order)
    codes = bytearray(n)
    for at, i in enumerate(order):
        codes[i] = 1 + (at >= n - n // 10 - n // 5) + (at >= n - n // 5)
    assert split.codes[0] == codes
    assert sorted(whole) == sorted(render(t) for t in rows_of(g) if task_matches(BUILTIN_TASKS["ppi"], t))


# --- leakage ---------------------------------------------------------------


def random_bundle(rng: random.Random, size: int):
    """Synthetic bundle with planted duplicates, inverses, relation synonyms
    and entity duplicates; returns the bundle plus the equivalence tables in
    both engine and oracle form."""
    entities = [f"Gene::NCBI:{i}" for i in range(12)]
    dup_entities = {f"Gene::NCBI:{100 + i}": entities[i] for i in range(4)}
    labels = [("GNBR", "B"), ("STRING", "Binding"), ("Hetionet", "GiG"), ("GNBR", "Q")]
    relation_rows = [
        ("GNBR", "B", "Gene", "Gene", "GENE_BIND"),
        ("STRING", "Binding", "Gene", "Gene", "GENE_BIND"),
        ("Hetionet", "GiG", "Gene", "Gene", "GENE_BIND"),
    ]
    table = HarmonizationTable.from_rows(relation_rows)
    pool = entities + list(dup_entities)

    def random_triplet():
        h, t = rng.sample(pool, 2)
        origin, label = rng.choice(labels)
        return T(h, f"{origin}::{label}::Gene:Gene", t)

    triplets = [random_triplet() for _ in range(size)]
    n_train = int(size * 0.7)
    n_valid = int(size * 0.1)
    bundle = splits_of(
        task="ppi",
        seed=0,
        train=triplets[:n_train],
        valid=triplets[n_train : n_train + n_valid],
        test=triplets[n_train + n_valid :],
    )
    oracle_entity_map = dict(dup_entities)
    oracle_relation_map = {tuple(row[:4]): row[4] for row in relation_rows}
    return bundle, table, oracle_entity_map, oracle_relation_map


def to_oracle_form(triplets):
    return [render(t) for t in triplets]


def test_literal_duplicate_leaks_under_all_detectors():
    shared = T("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2")
    bundle = splits_of("ppi", 0, train=[shared], valid=[shared], test=[shared])
    report = leakage_of(bundle)
    for detector in DETECTORS:
        for pair in ("train_valid", "train_test"):
            leaked, total = report[(detector, pair)]
            assert total > 0 and leaked == total


def test_inverse_duplicate_detected():
    train = [T("Gene::NCBI:B", "GNBR::B::Gene:Gene", "Gene::NCBI:A")]
    test = [T("Gene::NCBI:A", "GNBR::B::Gene:Gene", "Gene::NCBI:B")]
    bundle = splits_of("ppi", 0, train=train, valid=[], test=test)
    report = leakage_of(bundle)
    assert report[("duplicate_inverse", "train_test")][0] == 1
    no_inverse = leakage_of(bundle, include_inverse=False)
    assert no_inverse[("duplicate_inverse", "train_test")][0] == 0


def test_empty_tables_reduce_to_duplicate_inverse():
    rng = random.Random(5)
    for _ in range(10):
        bundle, _, _, _ = random_bundle(rng, 120)
        report = leakage_of(bundle, 0, {}, HarmonizationTable.from_rows([]))
        for pair in ("train_valid", "train_test"):
            dup = report[("duplicate_inverse", pair)]
            assert report[("relation_redundancy", pair)] == dup
            assert report[("entity_redundancy", pair)] == dup
            assert report[("any", pair)] == dup


def test_detector_monotonicity():
    rng = random.Random(6)
    for _ in range(10):
        bundle, table, entity_map, _ = random_bundle(rng, 150)
        report = leakage_of(bundle, 0, entity_map, table)
        for pair in ("train_valid", "train_test"):
            dup = report[("duplicate_inverse", pair)][0]
            rel = report[("relation_redundancy", pair)][0]
            ent = report[("entity_redundancy", pair)][0]
            any_ = report[("any", pair)][0]
            assert dup <= rel <= ent
            assert any_ >= max(dup, rel, ent)


def test_detectors_equal_exhaustive_oracle():
    rng = random.Random(7)
    for round_ in range(12):
        size = rng.randint(40, 220)
        bundle, table, entity_map, relation_map = random_bundle(rng, size)
        report = leakage_of(bundle, 0, entity_map, table)
        train = to_oracle_form(split_train(bundle, 0))
        for pair, eval_split in (("train_valid", split_valid(bundle, 0)),
                                 ("train_test", split_test(bundle, 0))):
            eval_rows = to_oracle_form(eval_split)
            for detector in DETECTORS:
                expected = leaked_count_bruteforce(
                    train, eval_rows, entity_map, relation_map, detector,
                    canonical_labels=set(table.canonical_labels),
                )
                got = report[(detector, pair)][0]
                assert got == expected, (round_, detector, pair)


# (origin, label, head type, tail type, canonical label): the drug labels are
# harmonized in the Compound:Gene signature only, and one ppi key is spelled
# in another case than the rows'
MIXED_HARMONIZATION = (
    ("DGIdb", "Agonist", "Compound", "Gene", "AGONIST"),
    ("GNBR", "A+", "Compound", "Gene", "AGONIST"),
    ("GNBR", "B", "Gene", "Gene", "GENE_BIND"),
    ("string", "binding", "Gene", "Gene", "GENE_BIND"),
)
MIXED_RELATIONS = {
    "ppi": ("GNBR::B::Gene:Gene", "STRING::Binding::Gene:Gene", "GNBR::Q::Gene:Gene"),
    "drug_repurposing": ("DGIdb::Agonist::Compound:Gene", "DGIdb::Agonist::Gene:Compound",
                         "GNBR::A+::Compound:Gene", "GNBR::A+::Gene:Compound"),
}
# xref merges: two genes onto a gene of the graph, two onto a gene absent
# from it, and a compound onto another
MIXED_ENTITIES = {
    "Gene::NCBI:10": "Gene::NCBI:0", "Gene::NCBI:11": "Gene::NCBI:0",
    "Gene::NCBI:12": "Gene::NCBI:99", "Gene::NCBI:13": "Gene::NCBI:99",
    "Compound::drugbank:DB1": "Compound::PubChem_Compounds:0",
}
MIXED_POOLS = {
    "Gene": [f"Gene::NCBI:{i}" for i in (0, 1, 2, 10, 11, 12, 13)],
    "Compound": ["Compound::PubChem_Compounds:0", "Compound::PubChem_Compounds:1",
                 "Compound::drugbank:DB1"],
}


def mixed_row(relation: str, h: int, t: int) -> tuple[str, str, str]:
    """A row of ``relation`` whose endpoints are the ``h``-th and ``t``-th
    entities of its types' pools, wrapping round."""
    head_type, tail_type = relation.rsplit("::", 1)[1].split(":")
    head_pool, tail_pool = MIXED_POOLS[head_type], MIXED_POOLS[tail_type]
    return head_pool[h % len(head_pool)], relation, tail_pool[t % len(tail_pool)]


def draw_mixed_rows(data, task: str) -> list[tuple[str, str, str]]:
    return [mixed_row(*drawn) for drawn in data.draw(st.lists(
        st.tuples(st.sampled_from(MIXED_RELATIONS[task]), st.integers(0, 6), st.integers(0, 6)),
        min_size=1, max_size=60,
    ))]


def mixed_tables() -> tuple[HarmonizationTable, dict]:
    """The mixed harmonization as the package's table and as the oracles' map."""
    table = HarmonizationTable.from_rows(list(MIXED_HARMONIZATION))
    return table, {tuple(row[:4]): row[4] for row in MIXED_HARMONIZATION}


@settings(max_examples=80)
@given(
    task=st.sampled_from(sorted(MIXED_RELATIONS)),
    seed=st.integers(0, 99),
    include_inverse=st.booleans(),
    data=st.data(),
)
def test_detectors_equal_exhaustive_oracle_on_mixed_signatures(task, seed, include_inverse, data):
    """Type-aware harmonization, both orientations of one drug label, self
    loops (ppi rows may join a gene to itself), merges that make two pairs
    equal only after canonicalization, and audits without inverse keys."""
    split = make_splits(graph_of(*draw_mixed_rows(data, task)), task, [seed])
    table, relation_map = mixed_tables()
    report = leakage_of(split, 0, MIXED_ENTITIES, table, include_inverse)
    # classes of a few rows each: pairs counted and probed bucket by bucket
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", 2)
        assert leakage_of(split, 0, MIXED_ENTITIES, table, include_inverse) == report
    train = to_oracle_form(split_train(split, 0))
    for pair, part in (("train_valid", split_valid(split, 0)), ("train_test", split_test(split, 0))):
        evaluated = to_oracle_form(part)
        for detector in DETECTORS:
            args = (train, evaluated, MIXED_ENTITIES, relation_map, detector, include_inverse,
                    set(table.canonical_labels))
            expected = leaked_count_bruteforce(*args)
            assert leaked_count_hashed(*args) == expected
            assert report[(detector, pair)] == (expected, len(evaluated)), (detector, pair)


def test_a_drug_label_with_two_canonical_labels_keeps_its_rows_in_one_group():
    # DGIdb::Agonist is AGONIST as Compound:Gene and its own raw label as
    # Gene:Compound, so only the raw label joins the first two rows (an
    # inverse duplicate), and only the canonical label the last two (a
    # relation synonym): a relation group must follow both links
    table, relation_map = mixed_tables()
    c0, c1 = MIXED_POOLS["Compound"][:2]
    g1, g2 = MIXED_POOLS["Gene"][1:3]
    train = [T(c0, "DGIdb::Agonist::Compound:Gene", g1), T(c1, "GNBR::A+::Compound:Gene", g2)]
    valid = [T(c1, "DGIdb::Agonist::Compound:Gene", g2)]
    test = [T(g1, "DGIdb::Agonist::Gene:Compound", c0)]
    split = splits_of("drug_repurposing", 0, train, valid, test)
    report = leakage_of(split, 0, MIXED_ENTITIES, table)
    assert report[("duplicate_inverse", "train_test")] == (1, 1)
    assert report[("relation_redundancy", "train_test")] == (0, 1)
    assert report[("duplicate_inverse", "train_valid")] == (0, 1)
    assert report[("relation_redundancy", "train_valid")] == (1, 1)
    for pair, part in (("train_valid", valid), ("train_test", test)):
        for detector in DETECTORS:
            expected = leaked_count_bruteforce(
                to_oracle_form(train), to_oracle_form(part), MIXED_ENTITIES, relation_map,
                detector, canonical_labels=set(table.canonical_labels),
            )
            assert report[(detector, pair)] == (expected, 1), (detector, pair)


@settings(max_examples=60)
@given(task=st.sampled_from(sorted(MIXED_RELATIONS)),
       sort_rows=st.sampled_from([2, model._SORT_ROWS]), data=st.data())
def test_candidates_hold_every_row_a_scan_matches(task, sort_rows, data):
    """Every target row that some other target row matches, under any
    detector and either orientation, is a candidate of ``leak_keys``, in
    classes of ``sort_rows`` rows."""
    split = make_splits(graph_of(*draw_mixed_rows(data, task)), task, [0])
    table, relation_map = mixed_tables()
    rows = to_oracle_form(rows_of(split.graph)[p] for p in split.target)
    matched = {i for i, row in enumerate(rows) if leaked_count_bruteforce(
        rows[:i] + rows[i + 1 :], [row], MIXED_ENTITIES, relation_map, "any",
        canonical_labels=set(table.canonical_labels),
    )}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", sort_rows)
        keys = leak_keys(split, MIXED_ENTITIES, table)
        assert matched <= {i for candidates, *_ in keys for i in candidates}


@settings(max_examples=40)
@given(sort_rows=st.sampled_from([2, model._SORT_ROWS]), data=st.data())
def test_pairs_recurring_only_across_relation_groups_give_no_candidates(sort_rows, data):
    """ppi's relations form two groups, GNBR::B with STRING::Binding (one
    canonical label) and GNBR::Q; each canonical pair here has one row in
    each group, in either orientation, so every pair recurs, no two rows of
    a pair can match, and ``leak_keys`` yields no class to key."""
    relations = MIXED_RELATIONS["ppi"]

    def canonical_pair(ends: tuple[int, int]) -> frozenset[str]:
        genes = map(MIXED_POOLS["Gene"].__getitem__, ends)
        return frozenset(MIXED_ENTITIES.get(gene, gene) for gene in genes)

    pairs = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                               min_size=1, unique_by=canonical_pair))
    rows = []
    for h, t in pairs:
        swapped = data.draw(st.booleans())
        rows += [mixed_row(data.draw(st.sampled_from(relations[:2])), h, t),
                 mixed_row(relations[2], *((t, h) if swapped else (h, t)))]
    split = make_splits(graph_of(*rows), "ppi", [0])
    table, _ = mixed_tables()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", sort_rows)
        assert list(leak_keys(split, MIXED_ENTITIES, table)) == []


def test_plan_holds_one_byte_per_target_row_and_seed():
    n, seeds = 20_000, range(5)
    g = target_graph(n, n_context=3)
    plans = []
    held, peak = traced(lambda: plans.append(make_splits(g, "ppi", seeds)))
    split, = plans
    assert len(split.target) == n
    assert [(len(codes), memoryview(codes).itemsize) for codes in split.codes] == [(n, 1)] * 5
    assert set().union(*map(set, split.codes)) == {1, 2, 3}
    # beyond the target positions, a byte per target row and seed and a
    # few small objects
    assert held - sys.getsizeof(split.target) - len(seeds) * n <= 2048
    # one seed's 4-byte permutation, and a slice of it, at a time; measured
    # 5.1 B/row for 1, 2 and 5 seeds
    assert peak - held <= 6 * n


# What one more seed may add to the audit's peak, per target row; measured
# 0.13 B/row. The audit reads each seed's split bytes from the plan, so it
# marks no part per seed, and holds nothing per seed but one class's marks.
AUDIT_BYTES_PER_TARGET_ROW = 2

# per target row, the arrays the audit holds beside one class's tables: the
# dealt row indices (4 B and growth), and an entity's canonical id per row
# endpoint when no two rows share one
LEAK_KEYS_ARRAY_BYTES = 16


def class_audit_peak(split: TaskSplits) -> tuple[int, list]:
    """The tracemalloc peak of the audit of every seed of ``split``, and
    its counts per seed."""
    def audit():
        report[:] = detect_leakage(leak_keys(split, {}, HarmonizationTable.from_rows([])), split)

    report = []
    return traced(audit)[1], report


def test_seed_audit_memory_scales_with_candidates_not_targets(monkeypatch):
    # classes of ~680 rows, so that one class's tables are small beside
    # every target row's: measured 24.8 B/row in all, 8 of them canonical
    # ids, ~4 of them one class's ids taken as tuples; keys built with a
    # dict over every entity text peaked at 190 B/row with classes of 8,192
    # rows
    monkeypatch.setattr(model, "_SORT_ROWS", model._SORT_ROWS // 8)
    n = 20_000
    g = graph_of(*((f"Gene::NCBI:{i}", "GNBR::B::Gene:Gene", f"Gene::NCBI:{n + i}")
                   for i in range(n)))
    peaks = {}
    for seeds in (1, 5):
        split = make_splits(g, "ppi", range(seeds))
        peaks[seeds], reports = class_audit_peak(split)
        assert [report[("any", "train_test")] for report in reports] == [(0, n // 5)] * seeds
    assert peaks[1] <= LEAK_KEYS_ARRAY_BYTES * n + BUCKET_TABLE_BYTES // 8
    assert peaks[5] - peaks[1] <= AUDIT_BYTES_PER_TARGET_ROW * (5 - 1) * n


def test_audit_tables_hold_one_class_when_every_pair_recurs(monkeypatch):
    # each pair once in each orientation, so every target row is a
    # candidate and most evaluation rows leak: measured, with every class's
    # keys built before the seeds are audited, 37.8 B/row held and 58.5
    # B/row at the peak (classes of 8,192 rows); 8.9 B/row with one class
    # of 1,024 rows at a time, for every seed
    monkeypatch.setattr(model, "_SORT_ROWS", model._SORT_ROWS // 8)
    genes = [f"Gene::NCBI:{i}" for i in range(250)]
    n = 60_000
    rows = []
    for h, t in islice(combinations(genes, 2), n // 2):
        rows += [(h, "GNBR::B::Gene:Gene", t), (t, "GNBR::B::Gene:Gene", h)]
    split = make_splits(graph_of(*rows), "ppi", range(5))
    peak, reports = class_audit_peak(split)
    assert all(0 < report[("any", "train_test")][0] < n // 5 for report in reports)
    assert peak <= LEAK_KEYS_ARRAY_BYTES * n + BUCKET_TABLE_BYTES // 8


def test_audit_report_aggregation():
    single = leakage_of(
        splits_of("ppi", 0,
                               train=[T("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2")],
                               valid=[T("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2")],
                               test=[T("Gene::NCBI:3", "GNBR::B::Gene:Gene", "Gene::NCBI:4")])
    )
    cell, = (r for r in audit_report("ppi", [0], [single])
             if (r["detector"], r["split_pair"]) == ("duplicate_inverse", "train_valid"))
    assert cell["mean"] == 1.0 and cell["std"] == 0.0

    # {0.6, 0.7} -> mean 0.65, population std 0.05
    mean, std = mean_and_population_std([0.6, 0.7])
    assert mean == pytest.approx(0.65) and std == pytest.approx(0.05)


def test_audit_five_seeds_matches_external_recompute():
    g = target_graph(200)
    # duplicate a third of the target rows so splits leak
    rows = rows_of(g)
    extra = [t for i, t in enumerate(rows) if i % 3 == 0 and task_matches(BUILTIN_TASKS["ppi"], t)]
    g2 = KnowledgeGraph([*rows, *extra])
    split = make_splits(g2, "ppi", range(5))
    reports = [leakage_of(split, k) for k in range(5)]
    records = audit_report("ppi", [0, 1, 2, 3, 4], reports)
    for cell in records:
        mean, std = mean_and_population_std(cell["ratio"])
        assert cell["mean"] == pytest.approx(mean)
        assert cell["std"] == pytest.approx(std)
        assert cell["seeds"] == [0, 1, 2, 3, 4]


def seed_dir(out, task: str, seed: int):
    return out / "splits" / task / f"seed_{seed}"


def test_write_bundle_files(tmp_path):
    split = make_splits(target_graph(20), "ppi", [0])
    write_bundle(tmp_path, "graph.tsv", split.graph, [split])
    for name in ("train", "valid", "test", "context"):
        path = seed_dir(tmp_path, "ppi", 0) / f"{name}.tsv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
    assert len((seed_dir(tmp_path, "ppi", 0) / "train.tsv").read_text().splitlines()) == 14
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.tsv", "splits"]


def test_write_bundle_context_same_bytes_per_seed_and_ordering(tmp_path):
    # the context rows span more than one rendered chunk
    g = target_graph(20, n_context=4100)
    g = KnowledgeGraph(list(reversed(rows_of(g))))
    context_rows = [t for t in rows_of(g) if not task_matches(BUILTIN_TASKS["ppi"], t)]
    graph_order = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in (render(c) for c in context_rows))
    by_text = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(render(c) for c in context_rows))
    assert graph_order != by_text
    split = make_splits(g, "ppi", [0, 1])
    for preserve_order, expected in ((False, by_text), (True, graph_order)):
        out = tmp_path / str(preserve_order)
        write_bundle(out, "graph.tsv", g, [split], preserve_order)
        for seed in split.seeds:
            assert (seed_dir(out, "ppi", seed) / "context.tsv").read_text() == expected
    write_bundle(out, "graph.tsv", g, [split])  # rewrite in place
    assert (seed_dir(out, "ppi", 1) / "context.tsv").read_text() == by_text


def test_write_bundle_needs_the_file_of_its_graph(tmp_path):
    split = make_splits(target_graph(20), "ppi", [0])
    with pytest.raises(ValueError, match="another graph"):
        write_bundle(tmp_path / "out", "graph.tsv", target_graph(20), [split])
    assert not (tmp_path / "out").exists()


def test_write_bundle_refuses_splits_that_share_a_target_row(tmp_path):
    g = target_graph(20)
    splits = [make_splits(g, "ppi", [0]), make_splits(g, "ppi", [1])]
    with pytest.raises(ValueError, match="share target rows"):
        write_bundle(tmp_path / "out", "graph.tsv", g, splits)
    assert not (tmp_path / "out").exists()


def test_write_bundle_holds_bytes_per_row_not_ints(tmp_path, many_rows_few_entities):
    g = fresh(many_rows_few_entities)
    splits = [make_splits(g, task, range(5)) for task in BUILTIN_TASKS]
    g.text_order
    _, peak = traced(lambda: write_bundle(tmp_path, "graph.tsv", g, splits))
    targets = [len(split.target) for split in splits]
    assert min(targets) >= len(g) // 5
    # per written row, its task byte, a graph-order scratch byte and a byte
    # of the mask that lists one task's target rows; per target row, a byte
    # for each seed's split, and 4 B of written position for the task whose
    # codes are being read
    own = 3 * len(g) + 5 * sum(targets) + 4 * max(targets)
    # beyond those, the open files' buffers and a couple of chunks of
    # rendered lines; measured: 36.9 B/row with a 4 B place and a split byte
    # per seed for every row, 12.9 B/row with bytes per target row
    files = 1 + len(splits) * (1 + 3 * 5)
    assert peak <= own + files * os.stat(tmp_path).st_blksize + 512 * ingest._WRITE_CHUNK


def mixed_graph() -> KnowledgeGraph:
    """Target rows of all three tasks, context rows with multi-byte UTF-8
    texts, literal duplicates and reversed rows, in an order that is not
    text order."""
    rng = random.Random(5)
    genes = [f"Gene::NCBI:{i}" for i in range(9)] + ["Gene::NCBI:7\u00e9"]
    compounds = [f"Compound::PubChem_Compounds:{i}" for i in range(5)]
    diseases = ["Disease::MESH:D1", "Disease::MESH:D\u20ac", "Disease::MESH:D\U0001d50a"]
    rows = []
    for _ in range(60):
        h, t = rng.sample(genes, 2)
        rows.append((h, "GNBR::B::Gene:Gene", t))
        rows.append((rng.choice(compounds), "GNBR::A+::Compound:Gene", rng.choice(genes)))
        rows.append((rng.choice(compounds), "SIDER::causes::Compound:SideEffect",
                     f"SideEffect::UMLS:C{rng.randrange(6)}"))
        rows.append((rng.choice(genes), "GNBR::L::Gene:Disease", rng.choice(diseases)))
    rows += rows[::7] + [(t, r, h) for h, r, t in rows[:40:4] if r.endswith("Gene:Gene")]
    rng.shuffle(rows)
    return graph_of(*rows)


def refuse_links(monkeypatch):
    def refused(source, target):
        raise OSError(errno.EPERM, "Operation not permitted", source, None, target)

    monkeypatch.setattr(os, "link", refused)


@pytest.mark.parametrize("preserve_order", [False, True])
@pytest.mark.parametrize("chunk, open_files",
                         [(4096, 128), (7, 128), (4096, 4), (5, 4), (4096, 3), (5, 2)])
def test_write_bundle_equals_per_seed_recipe(tmp_path, monkeypatch, preserve_order, chunk,
                                             open_files):
    """Every task's and seed's files equal the ones rendered and sorted on
    their own, also when rows straddle chunks and when the files take several
    passes; no more files are open at once than the bound. A task's context
    files are one file, hard linked."""
    check_per_seed_recipe(tmp_path, monkeypatch, preserve_order, chunk, open_files, links=True)


@pytest.mark.parametrize("preserve_order", [False, True])
@pytest.mark.parametrize("chunk, open_files", [(4096, 128), (5, 4)])
def test_write_bundle_without_hard_links_equals_per_seed_recipe(
    tmp_path, monkeypatch, preserve_order, chunk, open_files
):
    """Where the file system refuses hard links, every seed's context file
    is written, with the same bytes."""
    refuse_links(monkeypatch)
    check_per_seed_recipe(tmp_path, monkeypatch, preserve_order, chunk, open_files, links=False)


def check_per_seed_recipe(tmp_path, monkeypatch, preserve_order, chunk, open_files, links):
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
    monkeypatch.setattr(split_audit, "_OPEN_FILES", open_files)
    opened = []
    most_open = [0]

    @contextmanager
    def tracked(path, binary=False):
        with ingest.open_output(path, binary) as fh:
            opened.append(fh)
            most_open[0] = max(most_open[0], sum(not fh.closed for fh in opened))
            yield fh

    monkeypatch.setattr(split_audit, "open_output", tracked)
    g = mixed_graph()
    seeds = [0, 1, 2]
    splits = [make_splits(g, task, seeds) for task in BUILTIN_TASKS]
    write_bundle(tmp_path, "graph.tsv", g, splits, preserve_order)

    ingest.write_triplets(tmp_path / "expected.tsv", g, preserve_order)
    assert (tmp_path / "graph.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()
    for task, endpoint_types in BUILTIN_TASKS.items():
        for seed in seeds:
            parts = splits_by_rescan(rows_of(g), endpoint_types, seed)
            for name, text in split_file_texts(parts, preserve_order).items():
                assert (seed_dir(tmp_path, task, seed) / name).read_text("utf-8") == text, (
                    task, seed, name)
    written_contexts = 1 if links else len(seeds)
    assert len(opened) == 1 + len(splits) * (len(seeds) * 3 + written_contexts)
    assert all(fh.closed for fh in opened)
    assert most_open[0] <= open_files
    for task in BUILTIN_TASKS:
        inodes = {(seed_dir(tmp_path, task, seed) / "context.tsv").stat().st_ino for seed in seeds}
        assert len(inodes) == written_contexts
    assert not list(tmp_path.rglob("*.link"))
    assert not list(tmp_path.rglob("*.partial"))


def test_rewriting_a_bundle_leaves_other_names_of_its_old_files_alone(tmp_path):
    """A rewrite replaces each file rather than writing into it: a name that
    shares an old context file's inode keeps the old bytes."""
    out, kept = tmp_path / "out", tmp_path / "kept.tsv"
    old = make_splits(target_graph(10, n_context=3), "ppi", [0, 1])
    write_bundle(out, "graph.tsv", old.graph, [old])
    os.link(seed_dir(out, "ppi", 0) / "context.tsv", kept)
    before = kept.read_bytes()
    new = make_splits(target_graph(10, n_context=5), "ppi", [0, 1])
    write_bundle(out, "graph.tsv", new.graph, [new])
    assert kept.read_bytes() == before
    for seed in (0, 1):
        context = (seed_dir(out, "ppi", seed) / "context.tsv").read_bytes()
        assert context != before and context.count(b"\n") == 5


def test_a_failed_context_link_leaves_no_temporary_file(tmp_path):
    """A directory where a seed's context file goes makes the rename of its
    hard link fail: the error propagates, and the link's temporary name is
    removed with it."""
    split = make_splits(target_graph(10, n_context=3), "ppi", [0, 1])
    (seed_dir(tmp_path, "ppi", 1) / "context.tsv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        write_bundle(tmp_path, "graph.tsv", split.graph, [split])
    assert not list(tmp_path.rglob("*.partial"))
    assert not list(tmp_path.rglob("*.link"))


@pytest.mark.parametrize("preserve_order", [False, True])
def test_write_bundle_writes_empty_valid_and_test(tmp_path, preserve_order):
    split = make_splits(target_graph(4), "ppi", [0, 1])
    assert split.n_train == len(split.target)
    write_bundle(tmp_path, "graph.tsv", split.graph, [split], preserve_order)
    for seed in split.seeds:
        files = seed_dir(tmp_path, "ppi", seed)
        assert (files / "valid.tsv").read_bytes() == b""
        assert (files / "test.tsv").read_bytes() == b""
        assert len((files / "train.tsv").read_text().splitlines()) == 4
        assert len((files / "context.tsv").read_text().splitlines()) == 4

# --- leak keys, one class at a time for every seed ---------------------------


def leaky_graph() -> KnowledgeGraph:
    """ppi rows with literal duplicates, reversed rows, relation synonyms and
    xref-duplicate genes (the tables of ``leak_equivalence``), plus context."""
    rng = random.Random(17)
    genes = [f"Gene::NCBI:{i}" for i in range(12)] + [f"Gene::NCBI:{100 + i}" for i in range(4)]
    relations = ["GNBR::B::Gene:Gene", "STRING::Binding::Gene:Gene", "Hetionet::GiG::Gene:Gene",
                 "GNBR::Q::Gene:Gene"]
    rows = []
    for _ in range(200):
        h, t = rng.sample(genes, 2)
        rows.append((h, rng.choice(relations), t))
    rows += rows[::5] + [(t, r, h) for h, r, t in rows[1::9]]
    rows += [(g, "GNBR::L::Gene:Disease", f"Disease::MESH:D{i % 3}") for i, g in enumerate(genes)]
    rng.shuffle(rows)
    return graph_of(*rows)


def leak_equivalence() -> tuple[dict[str, str], HarmonizationTable]:
    table = HarmonizationTable.from_rows([
        ("GNBR", "B", "Gene", "Gene", "GENE_BIND"),
        ("STRING", "Binding", "Gene", "Gene", "GENE_BIND"),
        ("Hetionet", "GiG", "Gene", "Gene", "GENE_BIND"),
    ])
    return {f"Gene::NCBI:{100 + i}": f"Gene::NCBI:{i}" for i in range(4)}, table


def test_seeds_audited_together_equal_each_seed_alone():
    g, equivalence = leaky_graph(), leak_equivalence()
    split = make_splits(g, "ppi", [0, 1, 2])
    together = detect_leakage(leak_keys(split, *equivalence), split)
    alone = [leakage_of(make_splits(g, "ppi", [s]), 0, *equivalence) for s in (0, 1, 2)]
    assert together == alone
    assert together[0] != together[1]
    leaked = [together[0][(d, "train_test")][0] for d in DETECTORS[:3]]
    assert 0 < leaked[0] < leaked[1] < leaked[2]  # every detector adds leaks here
    # classes of a few rows each: every class probed for every seed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", 2)
        assert detect_leakage(leak_keys(split, *equivalence), split) == alone


def test_task_keys_are_rebuilt_for_another_equivalence():
    g, equivalence = leaky_graph(), leak_equivalence()
    split = make_splits(g, "ppi", [0, 1])
    identity = detect_leakage(leak_keys(split, {}, HarmonizationTable.from_rows([])), split)
    mapped = detect_leakage(leak_keys(split, *equivalence), split)
    for k, seed in enumerate(split.seeds):
        fresh = make_splits(g, "ppi", [seed])
        assert identity[k] == leakage_of(fresh)
        assert mapped[k] == leakage_of(fresh, 0, *equivalence)
        assert identity[k] != mapped[k]

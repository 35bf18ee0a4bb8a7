"""Task-specific train/valid/test split generation and the three-detector
leakage audit.

A split shuffles the task's target triplets under a seed and partitions them
70/10/20 (valid and test sizes floored, remainder to train); every non-target
triplet stays in the context set. A task's rows are partitioned once and
shared by all its seeds, and every sorted file filters the graph's one text
order. The audit asks, for each evaluation triplet, whether the training
split contains an equivalent counterpart:

* duplicate_inverse - same origin and label, endpoints equal or swapped;
* relation_redundancy - endpoints equal or swapped, labels equal after
  relation standardization;
* entity_redundancy - labels equal after standardization, endpoints equal or
  swapped after identifier standardization;
* any - the union of the three.

With empty equivalence tables, standardization is the identity and all
detectors reduce to duplicate_inverse.
"""

from __future__ import annotations

import random
import shutil
import statistics
from array import array
from dataclasses import dataclass, field
from itertools import compress, filterfalse
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .clean import HarmonizationTable
from .errors import StageError
from .ingest import open_output, write_json
from .model import KnowledgeGraph, Triplet, tsv_line

DETECTORS = ("duplicate_inverse", "relation_redundancy", "entity_redundancy", "any")


@dataclass(frozen=True)
class TaskSpec:
    """A link-prediction task: its name and unordered endpoint-type target."""

    name: str
    endpoint_types: frozenset[str]

    def matches_types(self, types: tuple[str, str]) -> bool:
        """Whether a (head type, tail type) pair is the task's target."""
        return set(types) == self.endpoint_types


BUILTIN_TASKS: dict[str, TaskSpec] = {
    "ppi": TaskSpec("ppi", frozenset({"Gene"})),
    "drug_repurposing": TaskSpec("drug_repurposing", frozenset({"Compound", "Gene"})),
    "side_effect": TaskSpec("side_effect", frozenset({"Compound", "SideEffect"})),
}


class _Memo(dict):
    """``key -> compute(key)``, computed on first lookup, so a hit is one
    dict lookup with no Python call."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


@dataclass
class TaskRows:
    """One task's partition of a graph: ``target`` lists the positions of the
    task's target rows in graph order; every other row is context. Every
    seed's bundle of the task shares it. It holds one int array, so the
    splits stage can leave it to the audit at little cost."""

    task: str
    graph: KnowledgeGraph
    target: array
    # ordering (preserve_order flag) -> first context.tsv written for it
    _context_files: dict[bool, Path] = field(default_factory=dict, init=False, repr=False)

    def context_positions(self, preserve_order: bool) -> Iterator[int]:
        """Context row positions in graph order, or in the graph's text order."""
        is_target = bytearray(len(self.graph))
        for p in self.target:
            is_target[p] = 1
        walk = range(len(self.graph)) if preserve_order else self.graph.text_order
        return filterfalse(is_target.__getitem__, walk)

    def write_context(self, path: Path, preserve_order: bool) -> None:
        """Write context.tsv: the first call per ordering renders it, later
        calls copy that file, so every seed gets the same bytes."""
        first = self._context_files.get(preserve_order)
        if first is not None and first != path:
            shutil.copyfile(first, path)
            return
        positions = self.context_positions(preserve_order)
        with open_output(path) as fh:
            fh.writelines(map(tsv_line, map(self.graph.triplets.__getitem__, positions)))
        self._context_files[preserve_order] = path


@dataclass
class SplitBundle:
    """One seed's split of a task. ``order`` is the seeded permutation of
    indices into ``rows.target``: its first ``n_train`` indices are train,
    the next ``n_valid`` valid and the rest test."""

    rows: TaskRows
    seed: int
    order: Sequence[int]
    n_train: int
    n_valid: int

    @property
    def task(self) -> str:
        return self.rows.task

    def cuts(self) -> tuple[int, int, int, int]:
        """Where train, valid and test start in ``order``, and its end."""
        end_valid = self.n_train + self.n_valid
        return 0, self.n_train, end_valid, len(self.order)

    def rows_between(self, start: int, stop: int) -> Iterator[Triplet]:
        """The rows that ``order[start:stop]`` names, in that order."""
        positions = map(self.rows.target.__getitem__, self.order[start:stop])
        return map(self.rows.graph.triplets.__getitem__, positions)

    def target_size(self) -> int:
        return len(self.order)

    def split_of(self) -> bytearray:
        """Split of every graph row: 0 context, 1 train, 2 valid, 3 test."""
        split = bytearray(len(self.rows.graph))
        target, cuts = self.rows.target, self.cuts()
        for code in (1, 2, 3):
            for p in map(target.__getitem__, self.order[cuts[code - 1] : cuts[code]]):
                split[p] = code
        return split


_ENDPOINT_TYPES = attrgetter("head.entity_type", "tail.entity_type")


def make_splits(
    g: KnowledgeGraph, task: TaskSpec, seeds: Iterable[int]
) -> list[SplitBundle]:
    """Seeded uniform 70/10/20 partitions of the task's target triplets, one
    bundle per seed (valid and test sizes floored, remainder to train).

    The graph is partitioned once, testing each distinct endpoint-type pair
    once; each seed then shuffles indices into the target positions.
    ``random.Random(seed).shuffle`` draws depend only on the sequence length,
    so index k of a seed's order names the row that shuffling a copy of the
    target list would put at k.
    """
    hit = _Memo(task.matches_types)
    is_target = bytearray(map(hit.__getitem__, map(_ENDPOINT_TYPES, g.triplets)))
    target = array("i", compress(range(len(g)), is_target))
    if not target:
        raise StageError(f"task {task.name}: target triplet set is empty")
    rows = TaskRows(task.name, g, target)
    n = len(target)
    n_valid = n // 10
    n_train = n - n_valid - n // 5
    bundles = []
    for seed in seeds:
        order = array("i", range(n))
        random.Random(seed).shuffle(order)
        bundles.append(SplitBundle(rows, seed, order, n_train, n_valid))
    return bundles


@dataclass(frozen=True)
class LeakCell:
    leaked: int
    total: int

    @property
    def ratio(self) -> float:
        return self.leaked / self.total if self.total else 0.0


@dataclass
class LeakageReport:
    task: str
    seed: int
    cells: dict[tuple[str, str], LeakCell] = field(default_factory=dict)


class Equivalence:
    """The audit's standardization: entity identifiers as a text -> canonical
    text map (converted once), and ``canon_label`` memoized per relation.
    Build one per audit and share it across tasks and seeds."""

    def __init__(
        self,
        equiv_entities: dict | None = None,
        equiv_relations: HarmonizationTable | None = None,
    ):
        self.entities: dict[str, str] = {
            getattr(k, "text", k): getattr(v, "text", v)
            for k, v in (equiv_entities or {}).items()
        }
        self.relations = _Memo((equiv_relations or HarmonizationTable.empty()).canon_label)


def detect_leakage(
    bundle: SplitBundle,
    equivalence: Equivalence | None = None,
    include_inverse: bool = True,
) -> LeakageReport:
    """Leaked-count report for train/valid and train/test under every
    detector and their union. Without an equivalence, standardization is the
    identity."""
    equivalence = equivalence or Equivalence()
    canon_e = equivalence.entities.get
    canon_r = equivalence.relations.__getitem__

    # A train row whose endpoints the entity map leaves unmapped has the same
    # key in both standardized indexes, so it shares one tuple. Until a train
    # row has a mapped endpoint (after the remap stage, none has), the entity
    # index is the relation index itself.
    raw_index: set = set()
    rel_index: set = set()
    ent_index = rel_index
    _, end_train, end_valid, end = bundle.cuts()
    for t in bundle.rows_between(0, end_train):
        h, tl, r = t.head.text, t.tail.text, t.relation
        cr = canon_r(r)
        ch, ct = canon_e(h, h), canon_e(tl, tl)
        rel_key = (h, cr, tl)
        unmapped = ch is h and ct is tl
        if ent_index is rel_index and not unmapped:
            ent_index = set(rel_index)
        raw_index.add((h, r.origin, r.label, tl))
        rel_index.add(rel_key)
        ent_index.add(rel_key if unmapped else (ch, cr, ct))

    report = LeakageReport(task=bundle.task, seed=bundle.seed)
    for pair_name, start, stop in (
        ("train_valid", end_train, end_valid),
        ("train_test", end_valid, end),
    ):
        n_dup = n_rel = n_ent = n_any = 0
        for t in bundle.rows_between(start, stop):
            h, tl, r = t.head.text, t.tail.text, t.relation
            cr = canon_r(r)
            ch, ct = canon_e(h, h), canon_e(tl, tl)
            dup = (h, r.origin, r.label, tl) in raw_index or (
                include_inverse and (tl, r.origin, r.label, h) in raw_index
            )
            rel_leak = (h, cr, tl) in rel_index or (
                include_inverse and (tl, cr, h) in rel_index
            )
            ent_leak = (ch, cr, ct) in ent_index or (
                include_inverse and (ct, cr, ch) in ent_index
            )
            n_dup += dup
            n_rel += rel_leak
            n_ent += ent_leak
            n_any += dup or rel_leak or ent_leak
        for d, leaked in zip(DETECTORS, (n_dup, n_rel, n_ent, n_any)):
            report.cells[(d, pair_name)] = LeakCell(leaked, stop - start)
    return report


@dataclass
class AggregatedLeakage:
    """Per-cell mean and population standard deviation across seeded runs."""

    task: str
    seeds: list[int]
    cells: dict[tuple[str, str], dict]

    def to_records(self) -> list[dict]:
        records = []
        for (detector, split_pair), cell in sorted(self.cells.items()):
            records.append({
                "task": self.task,
                "detector": detector,
                "split_pair": split_pair,
                "leaked": cell["leaked"],
                "total": cell["total"],
                "ratio": cell["ratio"],
                "mean": cell["mean"],
                "std": cell["std"],
                "seeds": self.seeds,
            })
        return records


def audit_report(reports: list[LeakageReport]) -> AggregatedLeakage:
    """Aggregate seeded leakage reports for one task: mean and population
    standard deviation of each (detector, split-pair) ratio."""
    if not reports:
        raise ValueError("audit_report needs at least one run")
    tasks = {r.task for r in reports}
    if len(tasks) != 1:
        raise ValueError(f"cannot aggregate across tasks {sorted(tasks)}")
    keys = set(reports[0].cells)
    cells: dict[tuple[str, str], dict] = {}
    for key in keys:
        ratios = [r.cells[key].ratio for r in reports]
        cells[key] = {
            "leaked": [r.cells[key].leaked for r in reports],
            "total": [r.cells[key].total for r in reports],
            "ratio": ratios,
            "mean": statistics.fmean(ratios),
            "std": statistics.pstdev(ratios),
        }
    return AggregatedLeakage(
        task=reports[0].task,
        seeds=[r.seed for r in reports],
        cells=cells,
    )


def write_bundle(out_dir, bundle: SplitBundle, preserve_order: bool = False) -> None:
    """train/valid/test/context TSVs in triplet format. Rows are in the
    graph's text order unless ``preserve_order``, which keeps shuffled order
    for the splits and graph order for context. Each seed filters the graph's
    one text order, so nothing is sorted per task or seed."""
    out = Path(out_dir)
    rows = bundle.rows
    triplets = rows.graph.triplets
    split_of = bundle.split_of()
    if preserve_order:
        walk = map(rows.target.__getitem__, bundle.order)
    else:
        walk = filter(split_of.__getitem__, rows.graph.text_order)
    with (
        open_output(out / "train.tsv") as train,
        open_output(out / "valid.tsv") as valid,
        open_output(out / "test.tsv") as test,
    ):
        files = (None, train, valid, test)
        for p in walk:
            files[split_of[p]].write(tsv_line(triplets[p]))
    rows.write_context(out / "context.tsv", preserve_order)


def write_leakage_json(path, aggregates: list[AggregatedLeakage]) -> None:
    records = []
    for agg in aggregates:
        records.extend(agg.to_records())
    write_json(path, records)

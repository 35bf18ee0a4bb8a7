"""Task-specific train/valid/test split generation and the three-detector
leakage audit.

A split shuffles the task's target triplets under a seed and partitions them
70/10/20 (valid and test sizes floored, remainder to train); every non-target
triplet stays in the context set. A task's rows are partitioned, rendered and
sorted once and shared by all its seeds. The audit asks, for each evaluation
triplet, whether the training split contains an equivalent counterpart:

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

import json
import random
import shutil
import statistics
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .clean import HarmonizationTable
from .errors import StageError
from .model import KnowledgeGraph, RelationRef, Triplet
from .normalize import IdMapTable

DETECTORS = ("duplicate_inverse", "relation_redundancy", "entity_redundancy", "any")
SPLIT_PAIRS = ("train_valid", "train_test")


@dataclass(frozen=True)
class TaskSpec:
    """A link-prediction task: its name and unordered endpoint-type target."""

    name: str
    endpoint_types: frozenset[str]

    def matches(self, t: Triplet) -> bool:
        return {t.head.entity_type, t.tail.entity_type} == set(self.endpoint_types)


BUILTIN_TASKS: dict[str, TaskSpec] = {
    "ppi": TaskSpec("ppi", frozenset({"Gene"})),
    "drug_repurposing": TaskSpec("drug_repurposing", frozenset({"Compound", "Gene"})),
    "side_effect": TaskSpec("side_effect", frozenset({"Compound", "SideEffect"})),
}


# The sort key of output rows: the same tuple as Triplet.render, built in C.
_TEXT = attrgetter("head.text", "relation.text", "tail.text")


def _line(t: Triplet) -> str:
    return f"{t.head.text}\t{t.relation.text}\t{t.tail.text}\n"


def _open(path: Path):
    return path.open("w", encoding="utf-8", newline="\n")


@dataclass
class TaskRows:
    """One task's partition of a graph: target rows and context rows (all the
    others), both in graph order. Every seed's bundle of the task shares it, so
    the rows are partitioned, rendered and sorted once per task."""

    task: str
    target: list[Triplet]
    context: list[Triplet]
    # ordering (preserve_order flag) -> first context.tsv written for it
    _context_files: dict[bool, Path] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def target_by_text(self) -> array:
        """Target positions sorted by the rendered (head, relation, tail)."""
        keys = list(map(_TEXT, self.target))
        return array("i", sorted(range(len(keys)), key=keys.__getitem__))

    def write_context(self, path: Path, preserve_order: bool) -> None:
        """Write context.tsv: the first call per ordering renders it, later
        calls copy that file, so every seed gets the same bytes."""
        first = self._context_files.get(preserve_order)
        if first is not None and first != path:
            shutil.copyfile(first, path)
            return
        rows = self.context if preserve_order else sorted(self.context, key=_TEXT)
        with _open(path) as fh:
            fh.writelines(map(_line, rows))
        self._context_files[preserve_order] = path


@dataclass
class SplitBundle:
    """One seed's split of a task. ``order`` is the seeded permutation of
    positions in ``rows.target``: its first ``n_train`` positions are train,
    the next ``n_valid`` valid and the rest test."""

    rows: TaskRows
    seed: int
    order: Sequence[int]
    n_train: int
    n_valid: int

    @classmethod
    def from_lists(
        cls,
        task: str,
        seed: int,
        train: list[Triplet],
        valid: list[Triplet],
        test: list[Triplet],
    ) -> "SplitBundle":
        """A bundle of given splits, in the given order, with no context."""
        rows = TaskRows(task, [*train, *valid, *test], [])
        return cls(rows, seed, array("i", range(len(rows.target))), len(train), len(valid))

    @property
    def task(self) -> str:
        return self.rows.task

    def _slice(self, start: int, stop: int | None) -> list[Triplet]:
        target = self.rows.target
        return [target[i] for i in self.order[start:stop]]

    @property
    def train(self) -> list[Triplet]:
        return self._slice(0, self.n_train)

    @property
    def valid(self) -> list[Triplet]:
        return self._slice(self.n_train, self.n_train + self.n_valid)

    @property
    def test(self) -> list[Triplet]:
        return self._slice(self.n_train + self.n_valid, None)

    @property
    def context(self) -> list[Triplet]:
        return self.rows.context

    def target_size(self) -> int:
        return len(self.order)

    def split_of(self) -> bytearray:
        """Split of every target position: 0 train, 1 valid, 2 test."""
        split = bytearray(len(self.order))
        for i in self.order[self.n_train : self.n_train + self.n_valid]:
            split[i] = 1
        for i in self.order[self.n_train + self.n_valid :]:
            split[i] = 2
        return split


def make_splits(
    g: KnowledgeGraph, task: TaskSpec, seeds: Iterable[int]
) -> list[SplitBundle]:
    """Seeded uniform 70/10/20 partitions of the task's target triplets, one
    bundle per seed (valid and test sizes floored, remainder to train).

    The graph is partitioned once; each seed then shuffles target positions.
    ``random.Random(seed).shuffle`` draws depend only on the sequence length,
    so position k of a seed's order names the row that shuffling a copy of
    the target list would put at k.
    """
    target: list[Triplet] = []
    context: list[Triplet] = []
    is_target: dict[tuple[str, str], bool] = {}
    for t in g.triplets:
        types = (t.head.entity_type, t.tail.entity_type)
        hit = is_target.get(types)
        if hit is None:
            hit = is_target[types] = task.matches(t)
        (target if hit else context).append(t)
    if not target:
        raise StageError(f"task {task.name}: target triplet set is empty")
    rows = TaskRows(task.name, target, context)
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

    def ratio(self, detector: str, split_pair: str) -> float:
        return self.cells[(detector, split_pair)].ratio


class Equivalence:
    """The audit's standardization: entity identifiers as a text -> canonical
    text map (converted once), and ``canon_label`` memoized per relation.
    Build one per audit and share it across tasks and seeds."""

    def __init__(
        self,
        equiv_entities: IdMapTable | dict | None = None,
        equiv_relations: HarmonizationTable | None = None,
    ):
        if isinstance(equiv_entities, IdMapTable):
            equiv_entities = equiv_entities.mapping
        if not isinstance(equiv_entities, (dict, type(None))):
            raise TypeError("equiv_entities must be an IdMapTable, dict or None")
        self.entities: dict[str, str] = {
            getattr(k, "text", k): getattr(v, "text", v)
            for k, v in (equiv_entities or {}).items()
        }
        self._table = equiv_relations or HarmonizationTable.empty()
        self._relations: dict[RelationRef, tuple] = {}

    def relation(self, r: RelationRef) -> tuple:
        canon = self._relations.get(r)
        if canon is None:
            canon = self._relations[r] = self._table.canon_label(r)
        return canon


def detect_leakage(
    bundle: SplitBundle,
    equivalence: Equivalence | None = None,
    detector: str = "all",
    include_inverse: bool = True,
) -> LeakageReport:
    """Leaked-count report for train/valid and train/test under the chosen
    detector ("all" computes every detector plus their union). Without an
    equivalence, standardization is the identity."""
    if detector != "all" and detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    wanted = DETECTORS if detector == "all" else (detector,)
    equivalence = equivalence or Equivalence()
    canon_e = equivalence.entities.get
    canon_r = equivalence.relation

    raw_index: set = set()
    rel_index: set = set()
    ent_index: set = set()
    for t in bundle.train:
        h, tl, r = t.head.text, t.tail.text, t.relation
        cr = canon_r(r)
        raw_index.add((h, r.origin, r.label, tl))
        rel_index.add((h, cr, tl))
        ent_index.add((canon_e(h, h), cr, canon_e(tl, tl)))

    report = LeakageReport(task=bundle.task, seed=bundle.seed)
    for pair_name, eval_split in (("train_valid", bundle.valid), ("train_test", bundle.test)):
        n_dup = n_rel = n_ent = n_any = 0
        for t in eval_split:
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
        counts = dict(zip(DETECTORS, (n_dup, n_rel, n_ent, n_any)))
        total = len(eval_split)
        for d in wanted:
            report.cells[(d, pair_name)] = LeakCell(counts[d], total)
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
    """train/valid/test/context TSVs in triplet format. Rows are sorted by the
    rendered (head, relation, tail) unless ``preserve_order``, which keeps
    shuffled order for the splits and graph order for context. Each seed walks
    the task's shared order once, so nothing is sorted per seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = bundle.rows
    target = rows.target
    split_of = bundle.split_of()
    walk = bundle.order if preserve_order else rows.target_by_text
    with (
        _open(out / "train.tsv") as train,
        _open(out / "valid.tsv") as valid,
        _open(out / "test.tsv") as test,
    ):
        files = (train, valid, test)
        for i in walk:
            files[split_of[i]].write(_line(target[i]))
    rows.write_context(out / "context.tsv", preserve_order)


def write_leakage_json(path, aggregates: list[AggregatedLeakage]) -> None:
    records = []
    for agg in aggregates:
        records.extend(agg.to_records())
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")

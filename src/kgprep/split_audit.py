"""Task-specific train/valid/test split generation and the three-detector
leakage audit.

A split shuffles the task's target triplets under a seed and partitions them
70/10/20 (valid and test sizes floored, remainder to train); every non-target
triplet stays in the context set. A task's rows are partitioned once, into
one ``TaskSplits`` that holds every seed's permutation. Split files are cut
from the bytes of the graph file the run writes once: a seed marks each
written row with its split, and each file is the byte runs of its split's
rows, so no row is rendered again. The audit asks, for each evaluation
triplet, whether the training split contains an equivalent counterpart:

* duplicate_inverse - same origin and label, endpoints equal or swapped;
* relation_redundancy - endpoints equal or swapped, labels equal after
  relation standardization;
* entity_redundancy - labels equal after standardization, endpoints equal or
  swapped after identifier standardization;
* any - the union of the three.

With empty equivalence tables, standardization is the identity and all
detectors reduce to duplicate_inverse. Each detector's keys of a task's
target rows are packed into ints once (``leak_keys``), and every seed
probes them.
"""

from __future__ import annotations

import math
import os
import random
import re
import statistics
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add, getitem, mul, or_, sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .clean import HarmonizationTable
from .errors import StageError
from .ingest import open_output, write_json, write_triplets
from .model import _SPAN, KnowledgeGraph

DETECTORS = ("duplicate_inverse", "relation_redundancy", "entity_redundancy", "any")


# each link-prediction task's target: the set of a target row's head and tail types
BUILTIN_TASKS: dict[str, frozenset[str]] = {
    "ppi": frozenset({"Gene"}),
    "drug_repurposing": frozenset({"Compound", "Gene"}),
    "side_effect": frozenset({"Compound", "SideEffect"}),
}


@dataclass
class TaskSplits:
    """One task's seeded splits of a graph. ``target`` lists the positions of
    the task's target rows in graph order; every other row is context.
    ``orders[k]`` is seed ``seeds[k]``'s permutation of indices into
    ``target``: its first ``n_train`` indices are train, the next ``n_valid``
    valid and the rest test."""

    task: str
    graph: KnowledgeGraph
    target: array
    seeds: list[int]
    orders: list[array]
    n_train: int
    n_valid: int

    def parts(self, k: int) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """Seed ``seeds[k]``'s train, valid and test: indices into
        ``target`` in shuffled order."""
        end_valid = self.n_train + self.n_valid
        order = self.orders[k]
        return order[: self.n_train], order[self.n_train : end_valid], order[end_valid:]


def make_splits(g: KnowledgeGraph, task_name: str, seeds: Iterable[int]) -> TaskSplits:
    """Seeded uniform 70/10/20 partitions of the task's target triplets, one
    per seed (valid and test sizes floored, remainder to train). A row is a
    target when its endpoint types are the task's.

    Each distinct relation id is classified once (a row's endpoint types
    are its relation's); each seed then shuffles indices into the target
    positions.
    ``random.Random(seed).shuffle`` draws depend only on the sequence length,
    so index k of a seed's order names the row that shuffling a copy of the
    target list would put at k.
    """
    types = BUILTIN_TASKS[task_name]
    hit = bytes({r.head_type, r.tail_type} == types for r in g.vocab.relations)
    target = array("i", compress(range(len(g)), g.flags(relation=hit)))
    if not target:
        raise StageError(f"task {task_name}: target triplet set is empty")
    n = len(target)
    n_valid = n // 10
    seeds = list(seeds)
    orders = []
    for seed in seeds:
        order = array("i", range(n))
        random.Random(seed).shuffle(order)
        orders.append(order)
    return TaskSplits(task_name, g, target, seeds, orders, n - n_valid - n // 5, n_valid)


def leak_keys(
    split: TaskSplits, entities: dict[str, str], relations: HarmonizationTable
) -> tuple[tuple[array, array], ...]:
    """(keys, inverse keys) of the task's target rows, in target order, for
    each detector: raw keys ``(head, (origin, label), tail)``, relation keys
    ``(head, canonical label, tail)`` and entity keys, which also map the
    endpoints' texts through ``entities``; an inverse key swaps head and
    tail. Each key packs its endpoint and label ids into one int. When the
    map leaves every endpoint unmapped, the entity keys are the relation
    keys. Labels are computed once per relation id.
    Build them once per task: every seed's ``detect_leakage`` reuses them."""
    g, target = split.graph, split.target
    vocab = g.vocab
    heads, rels, tails = (
        array("i", map(getitem, repeat(column), target))
        for column in (g.heads, g.relations, g.tails)
    )
    # each relation's raw and canonical label as an id: the first relation's
    # with that label
    raw_ids: dict = {}
    canon_ids: dict = {}
    raw, canon = {}, {}
    for r in set(rels):
        rel = vocab.relations[r]
        raw[r] = raw_ids.setdefault((rel.origin, rel.label), r)
        canon[r] = canon_ids.setdefault(relations.canon_label(rel), r)
    n_entity = len(vocab.entities)
    # a key is its label's id times n_entity**2 plus its endpoint pair's int

    def pairs(first: Sequence[int], last: Sequence[int]) -> array:
        return array("q", map(add, map(mul, first, repeat(n_entity)), last))

    def packed(label: dict, pair: array, inverse: array) -> tuple[array, array]:
        offsets = list(map(mul, map(label.__getitem__, rels), repeat(n_entity * n_entity)))
        return array("q", map(add, offsets, pair)), array("q", map(add, offsets, inverse))

    pair, inverse = pairs(heads, tails), pairs(tails, heads)
    raw_keys, relation_keys = packed(raw, pair, inverse), packed(canon, pair, inverse)
    texts = {e: vocab.entities[e].text for e in set(heads).union(tails)}
    if entities.keys().isdisjoint(texts.values()):
        return raw_keys, relation_keys, relation_keys
    # canonical texts as ids; there are no more of them than entities
    ids: dict[str, int] = {}
    canon_of = {e: ids.setdefault(entities.get(text, text), len(ids)) for e, text in texts.items()}
    heads, tails = list(map(canon_of.__getitem__, heads)), list(map(canon_of.__getitem__, tails))
    return raw_keys, relation_keys, packed(canon, pairs(heads, tails), pairs(tails, heads))


def _leaks(
    keys: tuple[array, array],
    train: Sequence[int],
    evals: Iterable[Sequence[int]],
    include_inverse: bool,
) -> list[list[int]]:
    """For each evaluation part, whether each row's key (or, with
    ``include_inverse``, inverse key) is some train row's key."""
    keys, inverse = keys
    in_train = set(map(getitem, repeat(keys), train)).__contains__

    def hits(part: Sequence[int], side: array):
        return map(in_train, map(getitem, repeat(side), part))

    if include_inverse:
        return [list(map(or_, hits(part, keys), hits(part, inverse))) for part in evals]
    return [list(hits(part, keys)) for part in evals]


def detect_leakage(
    keys: tuple[tuple[array, array], ...],
    parts: tuple[Sequence[int], Sequence[int], Sequence[int]],
    include_inverse: bool = True,
) -> dict[tuple[str, str], tuple[int, int]]:
    """``(detector, split pair) -> (leaked, total)`` for train/valid and
    train/test under every detector and their union, from a task's
    ``leak_keys`` and one seed's ``TaskSplits.parts``. The seed collects
    its train rows' keys and looks up each evaluation row's."""
    raw, relation, entity = keys
    train, valid, test = parts
    evals = (valid, test)
    dup = _leaks(raw, train, evals, include_inverse)
    rel = _leaks(relation, train, evals, include_inverse)
    ent = rel if entity is relation else _leaks(entity, train, evals, include_inverse)
    counts = {}
    for pair_name, part, *hits in zip(("train_valid", "train_test"), evals, dup, rel, ent):
        leaked = [*map(sum, hits), sum(map(max, *hits))]
        for detector, n in zip(DETECTORS, leaked):
            counts[(detector, pair_name)] = (n, len(part))
    return counts


def audit_report(
    task: str, seeds: list[int], reports: list[dict[tuple[str, str], tuple[int, int]]]
) -> list[dict]:
    """One task's ``leakage_report.json`` records from the ``detect_leakage``
    counts of its seeds, in (detector, split pair) order: each seed's leaked
    and total counts and ratio, and the mean and population standard
    deviation of the ratios."""
    records = []
    for detector, split_pair in sorted(reports[0]):
        leaked = [report[(detector, split_pair)][0] for report in reports]
        total = [report[(detector, split_pair)][1] for report in reports]
        ratios = [n / d if d else 0.0 for n, d in zip(leaked, total)]
        records.append({
            "task": task,
            "detector": detector,
            "split_pair": split_pair,
            "leaked": leaked,
            "total": total,
            "ratio": ratios,
            "mean": statistics.fmean(ratios),
            "std": _pstdev(ratios),
            "seeds": seeds,
        })
    return records


def _pstdev(ratios: list[float]) -> float:
    """The population standard deviation, correctly rounded, as Python
    3.11's ``statistics.pstdev`` computes it (3.10's rounds twice): the
    exact variance as a fraction n/m, then the root of n/m times 4**-q,
    which has 55 or 56 bits before the point, cut to an integer rounded to
    odd, then rounded once, to a float, and scaled back by 2**q."""
    exact = list(map(Fraction, ratios))
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / len(exact)
    n, m = variance.numerator, variance.denominator
    q = (n.bit_length() - m.bit_length() - 2 * sys.float_info.mant_dig - 3) // 2
    n, m = (n, m << 2 * q) if q >= 0 else (n << -2 * q, m)
    root = math.isqrt(n // m)
    return math.ldexp(root | (root * root * m != n), q)


# a run of rows of each split code (0 context, 1 train, 2 valid, 3 test), of
# at most this many rows, so that no read holds much of the file
_RUN_ROWS = 4096
_RUNS = tuple(re.compile(b"%c{1,%d}" % (code, _RUN_ROWS)) for code in range(4))


class GraphFile:
    """A graph written once as triplet TSV by ``ingest.write_triplets``: in
    its text order, or in graph order under ``preserve_order``. The k-th
    written row starts at byte ``offsets[k]``. Split files are cut from
    these bytes."""

    def __init__(self, path, g: KnowledgeGraph, preserve_order: bool = False):
        self.path = Path(path)
        self.graph = g
        self.preserve_order = preserve_order
        self.offsets = write_triplets(self.path, g, preserve_order)

    @cached_property
    def place(self) -> Sequence[int]:
        """``place[p]``: which written row graph row ``p`` is."""
        if self.preserve_order:
            return range(len(self.graph))
        place = array("i", [0]) * len(self.graph)
        for k, p in enumerate(self.graph.text_order):
            place[p] = k
        return place

    def runs(self, codes: bytes, code: int) -> Iterator[bytes]:
        """The bytes of each run of written rows whose code is ``code``, in
        file order."""
        spans = chain.from_iterable(map(_SPAN, _RUNS[code].finditer(codes)))
        edges = array("q", map(self.offsets.__getitem__, spans))
        return self._read(edges[::2], edges[1::2])

    def rows_at(self, written: array) -> Iterator[bytes]:
        """The bytes of these written rows, in the given order."""
        starts = array("q", map(self.offsets.__getitem__, written))
        ends = array("q", map(self.offsets.__getitem__, map(add, written, repeat(1))))
        return self._read(starts, ends)

    def _read(self, starts: array, ends: array) -> Iterator[bytes]:
        with open(self.path, "rb") as fh:
            yield from map(os.pread, repeat(fh.fileno()), map(sub, ends, starts), starts)


def write_bundle(out_dir, split: TaskSplits, k: int, graph: GraphFile) -> None:
    """Seed ``split.seeds[k]``'s train/valid/test/context TSVs in triplet
    format, cut from the bytes of ``graph``, the graph of ``split``. Rows are
    in the graph's text order unless ``graph`` was written under
    ``preserve_order``: then the splits keep shuffled order and context keeps
    graph order. Nothing is rendered or sorted per task or seed."""
    if split.graph is not graph.graph:
        raise ValueError(f"task {split.task}: splits of another graph than {graph.path}")
    out = Path(out_dir)
    parts = split.parts(k)
    place, target = graph.place, split.target
    # the split code of each written row
    codes = bytearray(len(place))
    for code, part in enumerate(parts, start=1):
        for j in part:
            codes[place[target[j]]] = code
    for code, name in enumerate(("context", "train", "valid", "test")):
        with open_output(out / f"{name}.tsv", binary=True) as fh:
            if code and graph.preserve_order:
                fh.writelines(graph.rows_at(array("i", map(target.__getitem__, parts[code - 1]))))
            else:
                fh.writelines(graph.runs(codes, code))


def write_leakage_json(path, records: list[dict]) -> None:
    write_json(path, records)

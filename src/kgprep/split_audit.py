"""Task-specific train/valid/test split generation and the three-detector
leakage audit.

A split shuffles the task's target triplets under a seed and partitions them
70/10/20 (valid and test sizes floored, remainder to train); every non-target
triplet stays in the context set. A task's rows are partitioned once, into
one ``TaskSplits`` that holds a byte per target row and seed naming its
split, from the steps of ``random.Random(seed).shuffle`` that fix its valid
and test positions: the rest only reorder train. The graph file and every
split file are written from one rendering of each row: a byte per row names
the task it is a target of, a byte per target row names a seed's split of
it, and each file keeps the rendered lines of its rows. The audit asks, for
each evaluation triplet, whether the training split contains an equivalent
counterpart:

* duplicate_inverse - same origin and label, endpoints equal or swapped;
* relation_redundancy - endpoints equal or swapped, labels equal after
  relation standardization;
* entity_redundancy - labels equal after standardization, endpoints equal or
  swapped after identifier standardization;
* any - the union of the three.

With empty equivalence tables, standardization is the identity and all
detectors reduce to duplicate_inverse. A match joins two rows with one
unordered pair of canonical endpoints and one relation group (relations
linked, through any chain, by a shared raw or canonical label), so only
target rows whose pair and group recur together can leak: ``leak_keys``
finds them one class of rows at a time, and every seed probes a class before
the next is built.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, count, groupby, repeat
from operator import add, gt, itemgetter, mul
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .clean import HarmonizationTable
from .errors import StageError
from .ingest import encoded, open_output, render_chunks, write_json
from .model import KnowledgeGraph, deal, gather, marks, pair_keys, scatter, take

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
    ``codes[k]`` names seed ``seeds[k]``'s split of each target row, one
    byte per row in ``target``'s order: 1 train, 2 valid, 3 test. The seed's
    first ``n_train`` shuffled rows are train, the next ``n_valid`` valid and
    the rest test."""

    task: str
    graph: KnowledgeGraph
    target: array
    seeds: list[int]
    codes: list[bytearray]
    n_train: int
    n_valid: int

    def parts(self, k: int) -> tuple[array, array, array]:
        """Seed ``seeds[k]``'s train, valid and test: indices into
        ``target`` in shuffled order, from the seed's permutation shuffled
        again."""
        order, end_valid = _shuffled(self.seeds[k], len(self.target)), self.n_train + self.n_valid
        return order[: self.n_train], order[self.n_train : end_valid], order[end_valid:]


def _shuffled(seed: int, n: int, stop: int = 1) -> array:
    """The indices below ``n`` after the steps ``i = n - 1 ... stop`` of
    ``random.Random(seed).shuffle``, each a swap of ``i`` with ``j`` drawn as
    its ``_randbelow(i + 1)`` draws. Step ``i`` fixes position ``i``, so from
    ``stop`` on, position k names the row the whole shuffle puts at k."""
    order, getrandbits = array("i", range(n)), random.Random(seed).getrandbits
    for i in range(n - 1, stop - 1, -1):
        k, j = (i + 1).bit_length(), i + 1
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


def make_splits(g: KnowledgeGraph, task_name: str, seeds: Iterable[int]) -> TaskSplits:
    """Seeded uniform 70/10/20 partitions of the task's target triplets, one
    per seed (valid and test sizes floored, remainder to train). A row is a
    target when its endpoint types are the task's.

    Each distinct relation id is classified once (a row's endpoint types
    are its relation's); each seed then draws only the shuffle steps that
    fix its valid and test positions (the rest only reorder train), marks
    the indices there in its bytes and drops them before the next draws.
    """
    types = BUILTIN_TASKS[task_name]
    hit = bytes({r.head_type, r.tail_type} == types for r in g.vocab.relations)
    target = array("i", compress(range(len(g)), g.flags(relation=hit)))
    if not target:
        raise StageError(f"task {task_name}: target triplet set is empty")
    n = len(target)
    n_valid = n // 10
    n_train = n - n_valid - n // 5
    seeds = list(seeds)
    codes = [_codes(_shuffled(seed, n, n_train), n_train, n_valid) for seed in seeds]
    return TaskSplits(task_name, g, target, seeds, codes, n_train, n_valid)


def _codes(order: array, n_train: int, n_valid: int) -> bytearray:
    """A byte per index below ``len(order)``: 2 for the ``n_valid``
    indices from position ``n_train`` on of the permutation ``order``, 3 for
    those after them and 1 for the rest."""
    codes = bytearray(b"\x01") * len(order)
    scatter(codes, order[n_train : n_train + n_valid], repeat(2))
    scatter(codes, order[n_train + n_valid :], repeat(3))
    return codes


# leak_keys takes ids as tuples, an int object (~40 B) a value: the deal's
# keys this many target rows at a time, and one class more per this many
# rows than model.deal's one per _SORT_ROWS, so a class has ~1,600 rows
_CLASS_ROWS = 2048


def leak_keys(
    split: TaskSplits, entities: dict[str, str], relations: HarmonizationTable
) -> Iterator[tuple]:
    """One ``(candidates, raw, relation, entity)`` per class that has
    candidates, each built when it is asked for. A row's block is its
    unordered pair of canonical endpoints (texts mapped through
    ``entities``) and its relation's group, a component of the relations
    linked by a shared raw ``(origin, label)`` or canonical label. Every
    match joins two rows of one block: duplicate_inverse needs equal raw
    labels, the other detectors equal canonical labels, and all one
    canonical pair; harmonization is type-aware, so one raw label may have
    two canonical labels, and a group takes both links. So only target rows
    whose block recurs among the task's can leak or be leaked. Target rows
    are dealt into classes by the sum of their canonical endpoint ids
    (``model.deal``), so the rows of a block share a class; a class's
    candidates are its rows whose block recurs, as indices into ``target``.
    Each detector's (keys, inverse keys) of them pack ``(head, (origin,
    label), tail)``, ``(head, canonical label, tail)`` or the latter on
    canonical endpoints into ints; an inverse key swaps head and tail.
    Nothing per target row outlives the dealing but the classes' row
    positions."""
    g, target, vocab = split.graph, split.target, split.graph.vocab
    n_entity = len(vocab.entities)
    # each entity's canonical id: the first entity's with its canonical text;
    # only an xref key, or the canonical text of one, can share it
    canon = array("i", range(n_entity))
    shared = {entities[e.text] for e in vocab.entities if e.text in entities}
    first_of: dict[str, int] = {}
    for i, e in enumerate(vocab.entities):
        text = entities.get(e.text, e.text)
        if text in shared:
            canon[i] = first_of.setdefault(text, i)
    # a relation's raw and canonical labels as ids: the first relation's with each
    raws, canons = {}, {}
    raw = list(map(raws.setdefault, ((r.origin, r.label) for r in vocab.relations), count()))
    label = list(map(canons.setdefault, map(relations.canon_label, vocab.relations), count()))
    # a relation's group: the least relation of its component, where a shared
    # raw or canonical label id links two relations; only rows of one group
    # match. A row's block key is its pair key plus 2n² times its group
    group = list(range(len(raw)))

    def root(r: int) -> int:
        while group[r] != r:
            r = group[r]
        return r

    for ids in zip(raw, label, count()):
        roots = set(map(root, ids))
        scatter(group, roots, repeat(min(roots)))
    group = array("q", map(mul, map(root, range(len(raw))), repeat(2 * n_entity * n_entity)))

    def canonical(positions: Sequence[int]) -> list[tuple]:
        return [take(canon, take(column, positions)) for column in (g.heads, g.tails)]

    def pairs(first: Iterable[int], last: Iterable[int]) -> Iterable[int]:
        return map(add, map(mul, first, repeat(n_entity)), last)

    # a key is (label id * n_entity + head) * n_entity + tail
    def packed(labels: list, heads: Sequence[int], tails: Sequence[int]) -> tuple[array, array]:
        of_rows = array("i", map(labels.__getitem__, rels))
        return (array("q", pairs(pairs(of_rows, heads), tails)),
                array("q", pairs(pairs(of_rows, tails), heads)))

    sums = chain.from_iterable(map(add, *canonical(target[at : at + _CLASS_ROWS]))
                               for at in range(0, len(target), _CLASS_ROWS))
    for positions in deal(target, sums, len(target) // _CLASS_ROWS):
        ends = canonical(positions)
        blocks = array("q", map(add, pair_keys(*ends, n_entity),
                                take(group, take(g.relations, positions))))
        seen = Counter(blocks)
        if len(seen) == len(blocks):  # no block recurs: no candidates
            continue
        recurs = bytes(map(gt, map(seen.__getitem__, blocks), repeat(1)))
        del seen, blocks
        positions = array("i", compress(positions, recurs))
        # a candidate's index into target, which lists positions in order
        candidates = array("i", map(bisect_left, repeat(target), positions))
        heads, rels, tails = (array("i", gather(column, positions))
                              for column in (g.heads, g.relations, g.tails))
        ends = [array("i", compress(column, recurs)) for column in ends]
        relation_keys = packed(label, heads, tails)
        # no candidate endpoint shares its canonical text: entity keys are relation keys
        entity_keys = relation_keys if ends == [heads, tails] else packed(label, *ends)
        yield candidates, packed(raw, heads, tails), relation_keys, entity_keys


def detect_leakage(
    keys: Iterable, split: TaskSplits, include_inverse: bool = True
) -> list[dict[tuple[str, str], tuple[int, int]]]:
    """Per seed of ``split``, ``(detector, split pair) -> (leaked, total)``
    for train/valid and train/test under every detector and their union,
    from the task's ``leak_keys``. Only candidates can leak: one class at a
    time, each seed reads its candidates' split bytes and probes each
    detector's train candidates' keys with its evaluation candidates'; the
    class is dropped before the next is built."""
    names, leaked = ("train_valid", "train_test"), [Counter() for _ in split.codes]
    for candidates, *detectors in keys:
        sides = [both[: 1 + include_inverse] for both in detectors]
        for codes, counts in zip(split.codes, leaked):
            in_class = bytes(map(codes.__getitem__, candidates))
            train = marks(in_class, 1)
            evals = [array("i", compress(range(len(in_class)), marks(in_class, code)))
                     for code in (2, 3)]
            dup, rel = _leaks(train, evals, sides[0]), _leaks(train, evals, sides[1])
            ent = rel if detectors[2] is detectors[1] else _leaks(train, evals, sides[2])
            for name, *hits in zip(names, dup, rel, ent):
                found = [*map(len, hits), len(set().union(*hits))]
                counts.update(dict(zip(zip(DETECTORS, repeat(name)), found)))
    totals = (split.n_valid, len(split.target) - split.n_train - split.n_valid)
    return [{(detector, name): (counts[detector, name], total)
             for name, total in zip(names, totals) for detector in DETECTORS}
            for counts in leaked]


def _leaks(train: bytes, evals: list[array], sides: tuple[array, ...]) -> list[set[int]]:
    """The rows of each of ``evals`` (indices into a class's candidates)
    whose key on any of ``sides`` (keys, then inverse keys) is the key of a
    candidate marked in ``train``."""
    in_train = set(compress(sides[0], train)).__contains__
    return [set().union(*(compress(rows, map(in_train, map(side.__getitem__, rows)))
                          for side in sides)) for rows in evals]


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


# the most files a write holds open at once, well under the usual limit of
# 1,024 descriptors; files past it take another pass over the rows
_OPEN_FILES = 128


def write_bundle(
    out_dir, graph_name: str | None, g: KnowledgeGraph, splits: Sequence[TaskSplits],
    preserve_order: bool = False,
) -> None:
    """Write ``g`` as triplet TSV to ``out_dir/graph_name`` (no graph file
    if it is None), and each seed's train/valid/test/context TSVs to
    ``out_dir/splits/<task>/seed_<n>/``, from one rendering of each row in
    text order. A byte per written row names the task it is a target of
    (1 + its index in ``splits``, or 0 for none), and a byte per target row
    of a task, in written order, names the seed's split of it (1 train, 2
    valid, 3 test). A split file gets the task's target lines whose byte is
    its split's; context gets every other line. A seed's bytes are its
    ``TaskSplits.codes`` scattered onto the graph rows and read back in
    written order. Context is every seed's alike: a task's first seed's is
    cut, and the other seeds' are hard links to it, or cut alike where
    linking fails. Under ``preserve_order`` the graph and context keep graph
    order, and each seed shuffles its permutation again and renders its
    target rows once more, in that order. The splits must be of ``g``, and
    no two may share a target row."""
    out, n = Path(out_dir), len(g)
    # one encoding of the vocabulary serves every rendering; it is made when
    # rows are first rendered, after the first batch's bytes are cut
    texts = cache(partial(encoded, g.vocab))
    order = range(n) if preserve_order else g.text_order
    by_row = bytearray(n)  # per graph row: its task byte, then a seed's split
    for i, split in enumerate(splits):
        if split.graph is not g:
            raise ValueError(f"task {split.task}: splits of another graph")
        scatter(by_row, split.target, repeat(i + 1))
    if n - by_row.count(0) != sum(len(split.target) for split in splits):
        raise ValueError("splits share target rows")
    tasks = bytes(by_row if preserve_order else gather(by_row, order))

    # every file, with its task and seed (None for the graph and contexts)
    files = [(out / graph_name, None, None, 0)] if graph_name is not None else []
    shuffled = []
    for i, split in enumerate(splits):
        for k, seed in enumerate(split.seeds):
            seed_dir = out / "splits" / split.task / f"seed_{seed}"
            if k == 0:
                files.append((seed_dir / "context.tsv", i, None, 0))
            parts = [(seed_dir / f"{name}.tsv", i, k, code)
                     for code, name in enumerate(("train", "valid", "test"), start=1)]
            (shuffled if preserve_order else files).extend(parts)

    def cut(files: list) -> None:
        for at in range(0, len(files), _OPEN_FILES):
            batch, codes = files[at : at + _OPEN_FILES], {}
            # a task's files are consecutive: list its target rows once a batch
            seeds = dict.fromkeys((i, k) for _, i, k, _ in batch if k is not None)
            for i, same_task in groupby(seeds, itemgetter(0)):
                split = splits[i]
                written = array("i", compress(order, marks(tasks, i + 1)))
                for _, k in same_task:
                    scatter(by_row, split.target, split.codes[k])
                    codes[i, k] = bytes(gather(by_row, written))
                del written  # freed before the next task's target rows are listed
            _fan_out(render_chunks(g, order, texts()), tasks,
                     [(path, i, codes.get((i, k)), code) for path, i, k, code in batch])

    cut(files)
    for (i, k), same_seed in groupby(shuffled, itemgetter(1, 2)):
        for (path, *_), part in zip(same_seed, splits[i].parts(k)):
            rows = array("i", map(splits[i].target.__getitem__, part))
            _fan_out(render_chunks(g, rows, texts()), None, [(path, None, None, 0)])
    contexts = [[out / "splits" / s.task / f"seed_{seed}" / "context.tsv" for seed in s.seeds]
                for s in splits]
    cut([(path, i, None, 0) for i, (first, *others) in enumerate(contexts)
         for path in others if not _linked(first, path)])


def _linked(source: Path, path: Path) -> bool:
    """Hard-link ``source`` to ``path`` via a temporary name; False if refused."""
    partial = path.with_name(path.name + ".link")
    partial.unlink(missing_ok=True)
    try:
        os.link(source, partial)
    except OSError:
        return False
    os.replace(partial, path)
    return True


def _fan_out(chunks: Iterable[list[bytes]], tasks: bytes | None, files: list) -> None:
    """Write the lines ``render_chunks`` yields as ``chunks``, each rendered
    once, to each ``(path, task, codes, code)`` of ``files``: every row when
    ``task`` is None; else, when ``codes`` is None, the rows that are not
    the task's targets (``tasks`` holds each row's task byte, as
    ``write_bundle`` makes it); else the task's target rows whose byte in
    ``codes`` (one per target row, in order) is ``code``. Files that get the
    same rows get bytes joined once."""
    with ExitStack() as stack:
        sinks: dict = {}
        for path, task, codes, code in files:
            fh = stack.enter_context(open_output(path, binary=True))
            sinks.setdefault((task, id(codes), code), (task, codes, code, []))[3].append(fh)
        picked = {task for task, *_ in sinks.values() if task is not None}
        start, taken = 0, Counter()
        for lines in chunks:
            end = start + len(lines)
            hits = {task: marks(tasks[start:end], task + 1) for task in picked}
            targets = {task: list(compress(lines, hit)) for task, hit in hits.items()}
            for task, codes, code, handles in sinks.values():
                if task is None:
                    kept = lines
                elif codes is None:
                    kept = compress(lines, marks(hits[task], 0))
                else:
                    at = taken[task]
                    kept = compress(targets[task], marks(codes[at : at + len(targets[task])], code))
                data = b"".join(kept)
                for fh in handles:
                    fh.write(data)
            taken.update({task: len(rows) for task, rows in targets.items()})
            start = end


def write_leakage_json(path, records: list[dict]) -> None:
    write_json(path, records)

"""Core domain types: entities, relations, the in-memory graph store, and
the per-stage provenance log.

Entity identity is fully qualified as ``entity_type::source:local_id`` and
relations as ``origin::label::HeadType:TailType``. The graph is an ordered
multiset of (head, relation, tail) rows, held as int columns of ids into a
vocabulary of entities and relations: input order is preserved so that
first-occurrence deduplication and all serialized outputs are reproducible.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter, deque
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from operator import add, attrgetter, floordiv, getitem, itemgetter, methodcaller, mod, mul, ne, sub
from typing import Iterable, Iterator, KeysView, Sequence

from .errors import StageError

# The 13 node categories accepted by the pipeline.
ENTITY_TYPES: frozenset[str] = frozenset({
    "Anatomy",
    "Atc",
    "BiologicalProcess",
    "CellularComponent",
    "Compound",
    "Disease",
    "Gene",
    "MolecularFunction",
    "Pathway",
    "PharmacologicClass",
    "SideEffect",
    "Symptom",
    "Tax",
})

# Raw exports spell several categories with spaces; map any accepted spelling
# to the canonical name used everywhere downstream.
ENTITY_TYPE_ALIASES: dict[str, str] = {t: t for t in ENTITY_TYPES}
ENTITY_TYPE_ALIASES.update({
    "Biological Process": "BiologicalProcess",
    "Cellular Component": "CellularComponent",
    "Molecular Function": "MolecularFunction",
    "Side Effect": "SideEffect",
    "Pharmacologic Class": "PharmacologicClass",
})

# Node categories collapsed into gene feature vectors, in manifest block order.
ANNOTATION_TYPES: tuple[str, ...] = (
    "Pathway",
    "MolecularFunction",
    "BiologicalProcess",
    "CellularComponent",
)


@dataclass(frozen=True, init=False)
class EntityRef:
    """One node identity, held as its rendered ``entity_type::source:local_id``
    text and its type. ``source`` and ``local_id`` are read back from the
    text, exactly, as a source holds no ':'. The type starts the text, so refs
    are equal exactly when their texts are; the hash is the text's, cached."""

    # slots named here: under ``slots=True`` assigning ``source`` or
    # ``local_id`` raises TypeError, not FrozenInstanceError
    __slots__ = ("entity_type", "text")
    entity_type: str
    text: str

    def __init__(self, entity_type: str, source: str, local_id: str) -> None:
        if ":" in source:
            raise ValueError(f"entity source {source!r} contains ':'")
        object.__setattr__(self, "entity_type", entity_type)
        object.__setattr__(self, "text", f"{entity_type}::{source}:{local_id}")

    @classmethod
    def rendered(cls, entity_type: str, text: str) -> "EntityRef":
        """The ref whose text is ``text``, already known to be
        ``entity_type::source:local_id`` with no ':' in the source."""
        ref = cls.__new__(cls)
        object.__setattr__(ref, "entity_type", entity_type)
        object.__setattr__(ref, "text", text)
        return ref

    @property
    def source(self) -> str:
        return self.text[len(self.entity_type) + 2 :].partition(":")[0]

    @property
    def local_id(self) -> str:
        return self.text[len(self.entity_type) + 2 :].partition(":")[2]

    def __hash__(self) -> int:
        return hash(self.text)

    def __reduce__(self):
        # through the constructor: frozen slots refuse the default state restore
        return EntityRef, (self.entity_type, self.source, self.local_id)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class RelationRef:
    """A relation qualified by origin database and endpoint-type signature.

    ``(origin, label, head_type, tail_type)`` is the harmonization key;
    ``text`` renders it, so like ``EntityRef`` the hash is the text's.
    """

    # slots named here, as for every row type: under ``slots=True`` assigning
    # a name that is not a field raises TypeError, not FrozenInstanceError;
    # ``text`` is a slot but not a field, so it takes no part in equality
    __slots__ = ("origin", "label", "head_type", "tail_type", "text")
    origin: str
    label: str
    head_type: str
    tail_type: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "text",
            f"{self.origin}::{self.label}::{self.head_type}:{self.tail_type}",
        )

    def __hash__(self) -> int:
        return hash(self.text)

    def __reduce__(self):
        return RelationRef, (self.origin, self.label, self.head_type, self.tail_type)

    def with_label(self, label: str) -> "RelationRef":
        return RelationRef(self.origin, label, self.head_type, self.tail_type)

    def __str__(self) -> str:
        return self.text


# a vocabulary entry's rendered text
_TEXT = attrgetter("text")
# the runs of kept rows in a graph's keep flags, and a match's bounds
_KEPT = re.compile(b"\x01+")
_SPAN = methodcaller("span")
# rows per bucket of a sort or hash table built one bucket at a time
_SORT_ROWS = 8192


@dataclass
class StageLog:
    """Row accounting for one pipeline stage.

    ``rows_out == rows_in - rows_removed + rows_added`` is enforced at
    construction; ``details`` holds per-defect-class counters.
    """

    stage_name: str
    rows_in: int
    rows_removed: int
    rows_added: int
    rows_out: int
    wall_time: float = 0.0
    details: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows_out != self.rows_in - self.rows_removed + self.rows_added:
            raise ValueError(
                f"stage {self.stage_name}: conservation violated "
                f"({self.rows_in} - {self.rows_removed} + {self.rows_added} "
                f"!= {self.rows_out})"
            )

    def to_dict(self) -> dict:
        return {
            "stage": self.stage_name,
            "rows_in": self.rows_in,
            "rows_removed": self.rows_removed,
            "rows_added": self.rows_added,
            "rows_out": self.rows_out,
            "wall_time": self.wall_time,
            "details": dict(sorted(self.details.items())),
        }


class Interned(list):
    """Distinct values in order of first sight; a value's id is its place
    here, and ``ids`` maps each value to it."""

    __slots__ = ("ids",)

    def __init__(self) -> None:
        super().__init__()
        self.ids: dict = {}

    def id_of(self, value) -> int:
        """The value's id, given on first sight."""
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self)
            self.append(value)
        return i


class Vocabulary:
    """The entities and relations a graph's id columns refer to. A graph
    derived from another shares its vocabulary, which only ever grows, so
    the ids of every graph stay valid."""

    __slots__ = ("entities", "relations")

    def __init__(self) -> None:
        self.entities = Interned()
        self.relations = Interned()


class KnowledgeGraph:
    """Ordered multiset of rows, held as four int columns: ``heads``,
    ``relations`` and ``tails`` are ids into ``vocab``, and ``lines`` holds
    each row's origin line. A stage decides once per distinct id and
    applies the decision to the columns.

    A graph is owned when its holder keeps no other reference to it, as the
    pipeline runner does with the graph it loads (``owned``). ``where``,
    ``mapped`` and ``plus`` compact, rewrite or extend an owned graph's
    columns in place and hand them to the graph they return, which is owned
    in turn; the graph they were called on is consumed, and any later use of
    it raises TypeError. On any other graph they run the same code on copies
    of the columns they change, so a graph a library caller holds never
    changes once built.

    ``node_ids``, which ``nodes`` views, is derived from the rows on first
    use, so a chain of row stages that never asks for nodes never builds it.
    ``text_order`` is likewise computed on first use.
    """

    __slots__ = (
        "vocab", "heads", "relations", "tails", "lines", "_nodes", "_text_order", "_owned"
    )

    def __init__(self, rows: Iterable[tuple[EntityRef, RelationRef, EntityRef, int]] = ()):
        """A graph of ``(head, relation, tail, line)`` rows, each checked
        against its relation's endpoint types."""
        rows = list(rows)
        for head, rel, tail, _ in rows:
            if (head.entity_type, tail.entity_type) != (rel.head_type, rel.tail_type):
                raise StageError(
                    f"endpoint/relation type mismatch: ({head.entity_type}, "
                    f"{rel.head_type}:{rel.tail_type}, {tail.entity_type}) for relation {rel}"
                )
        self.vocab = Vocabulary()
        entity, relation = self.vocab.entities.id_of, self.vocab.relations.id_of
        heads, relations, tails, lines = zip(*rows) if rows else ((),) * 4
        self.heads = array("i", map(entity, heads))
        self.relations = array("i", map(relation, relations))
        self.tails, self.lines = array("i", map(entity, tails)), array("i", lines)
        self._nodes: dict[int, None] | None = None
        self._text_order: array | None = None
        self._owned = False

    @classmethod
    def _from_clean(
        cls, vocab: Vocabulary, heads: array, relations: array, tails: array, lines: array
    ) -> "KnowledgeGraph":
        """Bulk constructor for stage outputs whose rows were already validated."""
        g = cls.__new__(cls)
        g.vocab = vocab
        g.heads, g.relations, g.tails, g.lines = heads, relations, tails, lines
        g._nodes = None
        g._text_order = None
        g._owned = False
        return g

    def _columns(self) -> tuple[array, array, array, array]:
        return self.heads, self.relations, self.tails, self.lines

    def owned(self) -> "KnowledgeGraph":
        """These rows as an owned graph, for a holder with no other
        reference to them; this graph is consumed."""
        self._owned = True
        return self._successor((False,) * 4, nodes=True)

    def _successor(self, changed: Sequence[bool], nodes: bool = False) -> "KnowledgeGraph":
        """A graph of these rows whose columns flagged in ``changed`` the
        caller may change in place. An owned graph hands its columns over
        and is consumed: its class becomes one whose every use raises. Any
        other stays as it is, as those columns are copied and the rest
        shared. ``nodes`` carries a built node set over, for the caller to
        extend."""
        owned, vocab, columns = self._owned, self.vocab, self._columns()
        node_set = self._nodes if nodes else None
        if owned:
            for name in KnowledgeGraph.__slots__:
                setattr(self, name, None)
            self.__class__ = _Consumed
        else:
            columns = [column[:] if c else column for column, c in zip(columns, changed)]
            node_set = None if node_set is None else dict(node_set)
        g = KnowledgeGraph._from_clean(vocab, *columns)
        g._nodes, g._owned = node_set, owned
        return g

    def where(self, keep: bytes) -> "KnowledgeGraph":
        """The rows whose byte in ``keep`` is 1, in order; every byte is 0
        or 1. The kept rows move down the columns, which are then truncated:
        an owned graph's own columns, and it is consumed, or copies of
        another's. When nothing is dropped, nothing moves and nothing is
        copied. Each run of kept rows moves as one block, unless the runs
        number more than an eighth of the rows: a block costs about as much
        as picking eight rows one by one, so then the rows are picked
        ``_SORT_ROWS`` at a time and each slice's picks written back at the
        cursor, below the rows not yet read."""
        if 0 not in keep:
            return self._successor((False,) * 4)
        g = self._successor((True,) * 4)
        columns, at = g._columns(), 0
        if 8 * (keep.count(b"\0\1") + keep.startswith(b"\1")) > len(keep):
            for start in range(0, len(keep), _SORT_ROWS):
                kept = keep[start : start + _SORT_ROWS]
                end = at + kept.count(1)
                for column in columns:
                    column[at:end] = array("i", compress(column[start : start + _SORT_ROWS], kept))
                at = end
        else:
            views = list(map(memoryview, columns))
            for a, b in map(_SPAN, _KEPT.finditer(keep)):
                if a != at:
                    for view in views:
                        view[at : at + b - a] = view[a:b]
                at += b - a
            deque(map(memoryview.release, views), maxlen=0)
        for column in columns:
            del column[at:]
        return g

    def mapped(
        self, entity: Sequence[int] | None = None, relation: Sequence[int] | None = None
    ) -> "KnowledgeGraph":
        """The rows with each endpoint id ``e`` replaced by ``entity[e]`` and
        each relation id ``r`` by ``relation[r]``, rewritten ``_SORT_ROWS``
        rows at a time: an owned graph's own columns, and it is consumed, or
        copies of another's. A column no table rewrites is not copied."""
        tables = (entity, relation, entity, None)
        g = self._successor([table is not None for table in tables])
        for table, column in zip(tables, g._columns()):
            if table is not None:
                for at in range(0, len(column), _SORT_ROWS):
                    rows = column[at : at + _SORT_ROWS]
                    column[at : at + _SORT_ROWS] = array("i", map(table.__getitem__, rows))
        return g

    def plus(self, heads: array, relations: array, tails: array, lines: array) -> "KnowledgeGraph":
        """These rows followed by rows of these id columns, already
        validated: an owned graph's own columns are extended, and it is
        consumed, or copies of another's are. A node set already built here
        is extended by the added endpoints, not rebuilt."""
        g = self._successor((True,) * 4, nodes=True)
        deque(map(array.extend, g._columns(), (heads, relations, tails, lines)), maxlen=0)
        if g._nodes is not None:
            g._nodes.update(_first_appearance(heads, tails))
        return g

    def flags(self, entity: bytes | None = None, relation: bytes | None = None) -> bytes:
        """Per row, ``entity[head] | entity[tail] | relation[relation]``:
        decisions taken once per id, applied to the rows. A table left out
        adds nothing. The rows' bytes are OR-ed as one big int each."""
        parts = []
        if entity is not None:
            at = list(entity).__getitem__
            parts += (map(at, self.heads), map(at, self.tails))
        if relation is not None:
            parts.append(map(list(relation).__getitem__, self.relations))
        combined = 0
        for part in parts:
            combined |= int.from_bytes(bytes(part), "little")
        return combined.to_bytes(len(self), "little")

    @property
    def node_ids(self) -> KeysView[int]:
        """The ids of the row endpoints, in order of first appearance."""
        if self._nodes is None:
            self._nodes = _first_appearance(self.heads, self.tails)
        return self._nodes.keys()

    @property
    def nodes(self) -> "NodeView":
        """The row endpoints, in order of first appearance, as a set-like
        view over ``node_ids``."""
        return NodeView(self.vocab.entities, self.node_ids)

    @property
    def text_order(self) -> array:
        """Row positions sorted by the rendered (head, relation, tail) tuple;
        rows that render alike stay in graph order. Every sorted output of
        the graph walks this one order.

        Each entity id (heads and tails share one table) and relation id is
        replaced by its text's rank, so rank triples compare as text triples
        do, and a row's triple packs into one int. Rows are dealt into
        buckets of consecutive head ranks, about ``_SORT_ROWS`` rows each;
        each bucket's rows are packed, triple then position, into plain
        ints, sorted, and copied into their place in the order. Nothing but
        the buckets and the order holds every row, and the tables by id
        are arrays, not lists of int objects: this runs at the final write,
        where a run's peak is set."""
        if self._text_order is None:
            n = len(self)
            entity, n_entity = _ranks(self.vocab.entities)
            relation, n_relation = _ranks(self.vocab.relations)
            # rows before each head rank, hence the bucket of each head id; the
            # rows are counted by head id, so no rank is read per row
            sizes = array("i", [0]) * n_entity
            for head, size in Counter(self.heads).items():
                sizes[entity[head]] += size
            before = accumulate(sizes, initial=0)
            bucket_of = array("i", map(floordiv, before, repeat(_SORT_ROWS)))
            bucket_of = array("i", map(bucket_of.__getitem__, entity))
            del sizes, before  # a count per head rank: freed before the buckets are dealt
            # a row packs into ((head * n_relation + relation) * n_entity + tail) * n
            # + position: scale each id's rank once, not each row's
            entity = array("q", map(mul, entity, repeat(n)))
            relation = array("q", map(mul, relation, repeat(n_entity * n)))
            order, at = array("i", [0]) * n, 0
            # a bucket number is below the bucket count: it is its own residue
            for rows in deal(range(n), map(bucket_of.__getitem__, self.heads)):
                heads = map(entity.__getitem__, gather(self.heads, rows))
                heads = map(mul, heads, repeat(n_relation * n_entity))
                relations = map(relation.__getitem__, gather(self.relations, rows))
                tails = map(entity.__getitem__, gather(self.tails, rows))
                packed = map(add, map(add, map(add, heads, relations), tails), rows)
                order[at : at + len(rows)] = array("i", map(mod, sorted(packed), repeat(n)))
                at += len(rows)
            self._text_order = order
        return self._text_order

    def __len__(self) -> int:
        return len(self.heads)

    def nodes_of_type(self, entity_type: str) -> list[EntityRef]:
        return [n for n in self.nodes if n.entity_type == entity_type]


class NodeView(Set):
    """A graph's row endpoints as ``EntityRef``s, in order of first
    appearance; membership goes through the vocabulary's ids."""

    __slots__ = ("_entities", "_ids")

    def __init__(self, entities: Interned, ids: KeysView[int]):
        self._entities = entities
        self._ids = ids

    def __contains__(self, node: object) -> bool:
        return self._entities.ids.get(node) in self._ids

    def __iter__(self) -> Iterator[EntityRef]:
        return map(self._entities.__getitem__, self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class _Consumed(KnowledgeGraph):
    """A graph whose columns ``where``, ``mapped``, ``plus`` or ``owned``
    handed over to the graph it returned."""

    __slots__ = ()

    def __getattribute__(self, name: str):
        raise TypeError(
            f"graph read (.{name}) after it was consumed: its rows belong to the "
            "graph the consuming call returned"
        )


def _ranks(refs: list) -> tuple[array, int]:
    """Each ref's rank among the distinct texts in sorted order, by id, and
    the number of distinct texts: the ids are sorted by text, and a rank
    grows where the text changes."""
    texts = list(map(_TEXT, refs))
    ids = array("i", sorted(range(len(texts)), key=texts.__getitem__))
    texts, rank = list(map(texts.__getitem__, ids)), array("i", [0]) * len(ids)
    scatter(rank, ids, accumulate(map(ne, texts[1:], texts), initial=0))
    return rank, len(ids) and rank[ids[-1]] + 1


def _first_appearance(heads: array, tails: array) -> dict[int, None]:
    """The ids of these rows' endpoints, head before tail, in order of first
    appearance, gathered ``_SORT_ROWS`` rows at a time."""
    nodes: dict[int, None] = {}
    for at in range(0, len(heads), _SORT_ROWS):
        both = heads[at : at + _SORT_ROWS] * 2
        both[::2], both[1::2] = heads[at : at + _SORT_ROWS], tails[at : at + _SORT_ROWS]
        deque(map(nodes.setdefault, both), maxlen=0)
    return nodes


def gather(column: Sequence, rows: Iterable[int]) -> Iterator:
    """``column[p]`` for each position ``p`` of ``rows``, lazily; the
    lookups run in C, with no Python frame per row."""
    return map(getitem, repeat(column), rows)


def take(column: Sequence, rows: Sequence[int]) -> tuple:
    """``column[p]`` for each position ``p`` of ``rows``, as one tuple made
    in one C call, where ``gather`` steps an iterator per row: about twice
    as fast, but it holds every value at once, an int object each."""
    return itemgetter(*rows)(column) if len(rows) > 1 else tuple(gather(column, rows))


def scatter(target, rows: Iterable[int], values: Iterable) -> None:
    """``target[p] = v`` for each position ``p`` of ``rows`` and value ``v``
    of ``values`` in step, with no Python frame per row."""
    deque(map(target.__setitem__, rows, values), maxlen=0)


def pair_keys(heads: Sequence[int], tails: Sequence[int], n: int) -> Iterator[int]:
    """Each unordered pair of ids below ``n`` as ``|h - t| * 2n + h + t``,
    below ``2n²``: the sum, which varies most, is the part residues read."""
    return map(add, map(mul, map(abs, map(sub, heads, tails)), repeat(2 * n)), map(add, heads, tails))


def deal(items: Sequence[int], keys: Iterable[int], groups: int = 1) -> list[array]:
    """``items`` dealt into an odd number ``n`` of buckets, one per
    ``_SORT_ROWS`` items plus one for each of ``groups``: item ``i`` goes to
    bucket ``keys[i] % n``, each bucket in the items' order, so equal keys
    share a bucket and the first of them comes first in it. Keys all even,
    say, still spread; with one bucket the keys are not read."""
    n = (len(items) // _SORT_ROWS + groups) | 1
    if n == 1:
        return [array("i", items)]
    buckets = [array("i") for _ in range(n)]
    deque(map(array.append, map(buckets.__getitem__, map(mod, keys, repeat(n))), items), maxlen=0)
    return buckets


def marks(codes: bytes, *values: int) -> bytes:
    """1 for each code that is one of ``values``, else 0."""
    table = bytearray(256)
    for value in values:
        table[value] = 1
    return codes.translate(table)

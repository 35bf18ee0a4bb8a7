"""Core domain types: entities, relations, triplets, the in-memory graph store,
and the per-stage provenance log.

Entity identity is fully qualified as ``entity_type::source:local_id`` and
relations as ``origin::label::HeadType:TailType``. The graph is an ordered
multiset of triplets: input order is preserved so that first-occurrence
deduplication and all serialized outputs are reproducible.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import add, attrgetter, mod, mul
from typing import Callable, Iterable, Iterator, KeysView

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


@dataclass(frozen=True, slots=True)
class EntityRef:
    """One fully qualified node identity.

    ``text`` caches the rendered ``entity_type::source:local_id`` form; it is
    derived and excluded from equality. Equal refs render alike, so the hash
    is the text's, which Python caches.
    """

    entity_type: str
    source: str
    local_id: str
    text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "text", f"{self.entity_type}::{self.source}:{self.local_id}"
        )

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, slots=True)
class RelationRef:
    """A relation qualified by origin database and endpoint-type signature.

    ``(origin, label, head_type, tail_type)`` is the harmonization key;
    ``text`` renders it, so like ``EntityRef`` the hash is the text's.
    """

    origin: str
    label: str
    head_type: str
    tail_type: str
    text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "text",
            f"{self.origin}::{self.label}::{self.head_type}:{self.tail_type}",
        )

    def __hash__(self) -> int:
        return hash(self.text)

    def with_label(self, label: str) -> "RelationRef":
        return RelationRef(self.origin, label, self.head_type, self.tail_type)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, slots=True)
class Triplet:
    """One directed edge. ``origin_line`` is provenance only and never takes
    part in identity; it is dropped at final serialization."""

    head: EntityRef
    relation: RelationRef
    tail: EntityRef
    origin_line: int = field(default=-1, compare=False)

    def signature_ok(self) -> bool:
        return (
            self.head.entity_type == self.relation.head_type
            and self.tail.entity_type == self.relation.tail_type
        )


# A row's rendered columns and endpoints, head first, and a relation's
# endpoint types (its rows', since the graph checks them); built in C.
_HEAD_TEXT = attrgetter("head.text")
_RELATION_TEXT = attrgetter("relation.text")
_TAIL_TEXT = attrgetter("tail.text")
_ENDPOINTS = attrgetter("head", "tail")
_SIGNATURE = attrgetter("head_type", "tail_type")


# A step of a row-local stage: the row to keep (possibly rewritten), or None to drop it.
Step = Callable[[Triplet], Triplet | None]


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


class KnowledgeGraph:
    """Ordered multiset of triplets; its rows never change once built.

    ``nodes`` is derived from the rows on first use, so a chain of row
    stages that never asks for nodes never builds it. ``text_order`` is
    likewise computed on first use.
    """

    __slots__ = ("triplets", "_nodes", "_text_order")

    def __init__(self, triplets: Iterable[Triplet] = ()):
        self.triplets: list[Triplet] = list(triplets)
        for t in self.triplets:
            if not t.signature_ok():
                raise StageError(
                    f"endpoint/relation type mismatch: ({t.head.entity_type}, "
                    f"{t.relation.head_type}:{t.relation.tail_type}, "
                    f"{t.tail.entity_type}) for relation {t.relation}"
                )
        self._nodes: dict[EntityRef, None] | None = None
        self._text_order: array | None = None

    @classmethod
    def _from_clean(cls, triplets: list[Triplet]) -> "KnowledgeGraph":
        """Bulk constructor for stage outputs whose rows were already validated."""
        g = cls.__new__(cls)
        g.triplets = triplets
        g._nodes = None
        g._text_order = None
        return g

    def plus(self, added: list[Triplet]) -> "KnowledgeGraph":
        """A new graph of these rows followed by ``added``, whose rows were
        already validated. A node set already built here is extended by the
        added endpoints, not rebuilt."""
        g = KnowledgeGraph._from_clean(self.triplets + added)
        if self._nodes is not None:
            g._nodes = {**self._nodes, **_endpoints(added)}
        return g

    @property
    def nodes(self) -> KeysView[EntityRef]:
        """The row endpoints, in order of first appearance."""
        if self._nodes is None:
            self._nodes = _endpoints(self.triplets)
        return self._nodes.keys()

    @property
    def text_order(self) -> array:
        """Row positions sorted by the rendered (head, relation, tail) tuple;
        rows that render alike stay in graph order. Every sorted output of
        the graph walks this one order.

        Each distinct entity text (heads and tails share one table) and
        relation text is replaced by its rank, so rank triples compare as
        text triples do; a row packs into one int, its triple's ranks then
        its position, and the plain ints are sorted."""
        if self._text_order is None:
            rows = self.triplets
            n = len(rows)
            heads, tails = list(map(_HEAD_TEXT, rows)), list(map(_TAIL_TEXT, rows))
            relations = list(map(_RELATION_TEXT, rows))
            entity, relation = _ranks(chain(heads, tails)), _ranks(relations)
            rank = entity.__getitem__
            packed = map(mul, map(rank, heads), repeat(len(relation)))
            packed = map(add, packed, map(relation.__getitem__, relations))
            packed = map(add, map(mul, packed, repeat(len(entity))), map(rank, tails))
            packed = sorted(map(add, map(mul, packed, repeat(n)), range(n)))
            self._text_order = array("i", map(mod, packed, repeat(n)))
        return self._text_order

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    def nodes_of_type(self, entity_type: str) -> list[EntityRef]:
        return [n for n in self.nodes if n.entity_type == entity_type]

    def map_rows(self, step: Step) -> "KnowledgeGraph":
        """The rows ``step`` keeps, as it returns them, in order; the step
        sees every row once."""
        return KnowledgeGraph._from_clean([t for t in map(step, self.triplets) if t is not None])


def _ranks(texts: Iterable[str]) -> dict[str, int]:
    """Each distinct text's place in sorted order."""
    return dict(zip(sorted(set(texts)), count()))


def _endpoints(triplets: list[Triplet]) -> dict[EntityRef, None]:
    return dict.fromkeys(chain.from_iterable(map(_ENDPOINTS, triplets)))

"""Streaming parsers for triplet TSVs and the auxiliary data files, and the
one way outputs are opened.

All parsers are pure, and nothing is memoized across calls: a triplet load
parses each distinct entity and relation text once.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import IO, Iterator, Sequence

from .config import VALID_TIERS
from .errors import InputError, ParseError
from .model import (
    ENTITY_TYPE_ALIASES, EntityRef, KnowledgeGraph, RelationRef, StageLog, Vocabulary, gather,
)

log = logging.getLogger(__name__)

# Default database-origin tag per node category, applied when the raw
# identifier omits the source segment. Compound and Disease defer to
# id-pattern rules below.
SOURCE_DEFAULTS: dict[str, str] = {
    "Anatomy": "UBERON",
    "Atc": "drugbank",
    "BiologicalProcess": "GO",
    "CellularComponent": "GO",
    "Gene": "NCBI",
    "MolecularFunction": "GO",
    "Pathway": "Reactome",
    "PharmacologicClass": "ndfrt",
    "SideEffect": "umls",
    "Symptom": "MESH",
    "Tax": "NCBI",
}

_COMPOUND_ID_RULES: tuple[tuple[re.Pattern, str], ...] = (
    (re.compile(r"^DB\d"), "drugbank"),
    (re.compile(r"^\d+$"), "PubChem_Compounds"),
    (re.compile(r"^CHEMBL", re.IGNORECASE), "CHEMBL"),
    (re.compile(r"^CHEBI", re.IGNORECASE), "CHEBI"),
    (re.compile(r"^ZINC", re.IGNORECASE), "zinc"),
    (re.compile(r"^MolPort", re.IGNORECASE), "molport"),
)

_DISEASE_ID_RULES: tuple[tuple[re.Pattern, str], ...] = (
    (re.compile(r"^DOID", re.IGNORECASE), "DOID"),
    (re.compile(r"^\d+$"), "OMIM"),
    (re.compile(r"^[CD]\d+$"), "MESH"),
)

UNKNOWN_SOURCE = "unknown"


def infer_source(entity_type: str, local_id: str) -> str:
    """Deterministic source inference for identifiers lacking a source tag."""
    if entity_type == "Compound":
        for pattern, source in _COMPOUND_ID_RULES:
            if pattern.match(local_id):
                return source
        return UNKNOWN_SOURCE
    if entity_type == "Disease":
        for pattern, source in _DISEASE_ID_RULES:
            if pattern.match(local_id):
                return source
        return UNKNOWN_SOURCE
    return SOURCE_DEFAULTS.get(entity_type, UNKNOWN_SOURCE)


def parse_entity(text: str) -> EntityRef:
    """Parse ``entity_type::source:local_id`` (source inferred when absent).
    A text already in that canonical form becomes the ref's text itself.

    Identifiers containing ';' or '|' are accepted here; removing them is the
    format-filter stage's job.
    """
    if not text:
        raise ParseError("empty entity text")
    head, sep, rest = text.partition("::")
    if not sep:
        raise ParseError(f"entity {text!r}: missing '::' type separator")
    entity_type = ENTITY_TYPE_ALIASES.get(head.strip())
    if entity_type is None:
        raise ParseError(f"entity {text!r}: unknown entity type {head!r}")
    source, sep, local_id = rest.partition(":")
    if not sep:
        # no source segment; infer it from the category and id pattern
        local_id = source
        source = infer_source(entity_type, local_id)
    if not local_id:
        raise ParseError(f"entity {text!r}: empty identifier")
    if not source:
        raise ParseError(f"entity {text!r}: empty source segment")
    if not sep or head != entity_type:
        text = f"{entity_type}::{source}:{local_id}"
    return EntityRef.rendered(entity_type, text)


def parse_relation(text: str) -> RelationRef:
    """Parse ``origin::label::HeadType:TailType`` into a RelationRef."""
    parts = text.split("::")
    if len(parts) < 3:
        raise ParseError(f"relation {text!r}: expected origin::label::Head:Tail")
    origin = parts[0]
    signature = parts[-1]
    label = "::".join(parts[1:-1])
    if not origin or not label:
        raise ParseError(f"relation {text!r}: empty origin or label")
    head_txt, sep, tail_txt = signature.partition(":")
    if not sep:
        raise ParseError(f"relation {text!r}: malformed type signature {signature!r}")
    head_type = ENTITY_TYPE_ALIASES.get(head_txt.strip())
    tail_type = ENTITY_TYPE_ALIASES.get(tail_txt.strip())
    if head_type is None or tail_type is None:
        raise ParseError(f"relation {text!r}: unknown endpoint type in {signature!r}")
    return RelationRef(origin, label, head_type, tail_type)


def _is_header(columns: list[str]) -> bool:
    """First line is a header only when entity parsing fails on every column."""
    for col in columns:
        try:
            parse_entity(col)
            return False
        except ParseError:
            continue
    return True


def _lines(path: Path, what: str) -> Iterator[tuple[int, str]]:
    """(line number, text without its line end) for each line of a UTF-8
    file. A file that cannot be opened or decoded is an InputError naming
    it."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                # text mode has already turned CRLF into LF
                yield line_no, line.rstrip("\n")
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the codec's position counts from the start of a read buffer, not
        # of the file, so it is left out
        raise InputError(f"cannot read {what} file {path}: not UTF-8 ({exc.reason})") from exc


def load_triplets(path: str | Path) -> tuple[KnowledgeGraph, StageLog]:
    """Load a 3-column triplet TSV into a graph.

    Malformed lines are skipped, never silently: the stage log details count
    every skip by reason and ``loaded + skipped == physical lines - header``.
    Each distinct entity or relation text is parsed and interned once.
    """
    start = time.perf_counter()
    path = Path(path)
    vocab = Vocabulary()
    entities, relations = vocab.entities, vocab.relations
    # input text -> vocabulary id; several texts may name one entity
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    columns = heads, rels, tails, lines = tuple(array("i") for _ in range(4))
    skipped = {
        "bad_columns": 0,
        "bad_entity": 0,
        "bad_relation": 0,
        "signature_mismatch": 0,
        "blank": 0,
    }
    physical = 0
    header = 0
    for line_no, line in _lines(path, "triplet"):
        physical += 1
        if not line.strip():
            skipped["blank"] += 1
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            skipped["bad_columns"] += 1
            log.debug("%s:%d: %d columns, expected 3", path, line_no, len(cols))
            continue
        if line_no == 1 and _is_header(cols):
            header = 1
            continue
        head_text, rel_text, tail_text = cols
        h = entity_ids.get(head_text)
        t = entity_ids.get(tail_text)
        try:
            if h is None:
                h = entity_ids[head_text] = entities.id_of(parse_entity(head_text))
            if t is None:
                t = entity_ids[tail_text] = entities.id_of(parse_entity(tail_text))
        except ParseError as exc:
            skipped["bad_entity"] += 1
            log.debug("%s:%d: %s", path, line_no, exc)
            continue
        r = relation_ids.get(rel_text)
        if r is None:
            try:
                r = relation_ids[rel_text] = relations.id_of(parse_relation(rel_text))
            except ParseError as exc:
                skipped["bad_relation"] += 1
                log.debug("%s:%d: %s", path, line_no, exc)
                continue
        head, relation, tail = entities[h], relations[r], entities[t]
        if head.entity_type != relation.head_type or tail.entity_type != relation.tail_type:
            skipped["signature_mismatch"] += 1
            log.debug(
                "%s:%d: endpoint types (%s, %s) do not match relation %s",
                path, line_no, head.entity_type, tail.entity_type, relation,
            )
            continue
        heads.append(h)
        rels.append(r)
        tails.append(t)
        lines.append(line_no)

    g = KnowledgeGraph._from_clean(vocab, *columns)
    n_skipped = sum(skipped.values())
    details = {f"skipped_{k}": v for k, v in skipped.items()}
    details["physical_lines"] = physical
    details["header_lines"] = header
    return g, StageLog(
        stage_name="ingest",
        rows_in=physical - header,
        rows_removed=n_skipped,
        rows_added=0,
        rows_out=len(g),
        wall_time=time.perf_counter() - start,
        details=details,
    )


@dataclass(frozen=True)
class TableSchema:
    """Declared shape of an auxiliary input file."""

    name: str
    columns: tuple[str, ...]
    # column index -> allowed values (checked case-sensitively)
    allowed: dict[int, frozenset[str]] = field(default_factory=dict)
    # indices of the columns that hold entity ids
    entities: tuple[int, ...] = ()


XREF_SCHEMA = TableSchema("xref", ("from_id", "to_id"), entities=(0, 1))
TAXONOMY_SCHEMA = TableSchema("taxonomy", ("gene_id", "species_tag"), entities=(0,))
SMILES_SCHEMA = TableSchema("smiles", ("compound_id", "smiles"))
REACTOME_SCHEMA = TableSchema("reactome", ("gene_id", "pathway_id"), entities=(0, 1))
HARMONIZATION_SCHEMA = TableSchema(
    "harmonization", ("origin", "label", "head_type", "tail_type", "canonical_label")
)
ONSIDES_SCHEMA = TableSchema(
    "onsides",
    ("compound_id", "side_effect_id", "confidence_tier"),
    allowed={2: frozenset(VALID_TIERS)},
)


class Rows(list):
    """A table's rows in file order; ``lines[i]`` is the file line of row
    ``i``."""

    def __init__(self):
        super().__init__()
        self.lines: list[int] = []


def read_rows(path: str | Path, schema: TableSchema) -> Rows:
    """Read and validate the rows of a declared-schema TSV. Blank and ``#``
    lines are skipped, and the first other line may be the literal header.
    Schema violations, including an id in an entity column that does not
    parse, are fatal with the offending line number."""
    path = Path(path)
    n = len(schema.columns)
    rows = Rows()
    first = True
    for line_no, line in _lines(path, schema.name):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != n:
            raise ParseError(
                f"{schema.name} file {path}: expected {n} columns, got {len(cols)}",
                line=line_no,
            )
        if first:
            first = False
            if cols == list(schema.columns):
                continue  # optional header, checked before value validation
        for idx, allowed in schema.allowed.items():
            if cols[idx] not in allowed:
                raise ParseError(
                    f"{schema.name} file {path}: {schema.columns[idx]} "
                    f"{cols[idx]!r} not in {sorted(allowed)}",
                    line=line_no,
                )
        for idx in schema.entities:
            try:
                parse_entity(cols[idx])
            except ParseError as exc:
                raise ParseError(f"{schema.name} file {path}: {exc}", line=line_no) from exc
        rows.append(tuple(cols))
        rows.lines.append(line_no)
    return rows


def load_table(path: str | Path, schema: TableSchema) -> dict[str, str]:
    """Load a two-column keyed table per its schema, last row wins on a
    repeated key (with a warning)."""
    table: dict[str, str] = {}
    for key, value in read_rows(path, schema):
        if key in table and table[key] != value:
            log.warning(
                "%s: duplicate key %r (%r replaces %r)",
                schema.name, key, value, table[key],
            )
        table[key] = value
    return table


def load_xref(path: str | Path) -> dict[str, str]:
    return load_table(path, XREF_SCHEMA)


def load_taxonomy(path: str | Path) -> dict[str, str]:
    return load_table(path, TAXONOMY_SCHEMA)


def load_smiles_dict(path: str | Path) -> dict[str, str]:
    return load_table(path, SMILES_SCHEMA)


def load_reactome(path: str | Path) -> Rows:
    """Gene-to-pathway rows in file order (merge semantics need ordering)."""
    rows = read_rows(path, REACTOME_SCHEMA)
    out = Rows()
    seen: set[tuple[str, str]] = set()
    for line_no, (gene, pathway) in zip(rows.lines, rows):
        if (gene, pathway) in seen:
            log.warning("reactome: duplicate row (%s, %s) collapsed", gene, pathway)
            continue
        seen.add((gene, pathway))
        out.append((gene, pathway))
        out.lines.append(line_no)
    return out


def load_onsides(path: str | Path) -> Rows:
    """Compound/side-effect/tier rows in file order."""
    return read_rows(path, ONSIDES_SCHEMA)


@contextmanager
def open_output(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open an output file for writing as UTF-8 with LF line ends, or for
    bytes, creating its directory first. Every output is opened here and
    appears whole: it is written as ``<name>.partial``, which replaces the
    file once closed cleanly (the old file's other hard-linked names keep
    their bytes) and is deleted on error."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    fh = partial.open("wb") if binary else partial.open("w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, data) -> None:
    with open_output(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# rows rendered per chunk; a chunk's lines are held at once while they are
# written, at the final write, where a run's peak RSS is set
_WRITE_CHUNK = 1024


def encoded(vocab: Vocabulary) -> tuple[list[bytes], list[bytes]]:
    """Each entity's and each relation's text in ``vocab``, as bytes."""
    return [e.text.encode() for e in vocab.entities], [r.text.encode() for r in vocab.relations]


def render_chunks(g: KnowledgeGraph, order: Sequence[int], texts=None) -> Iterator[list[bytes]]:
    """The triplet TSV lines of the rows at ``order``'s positions, in that
    order, ``_WRITE_CHUNK`` rows to a list. Every file of graph rows is
    rendered here.

    Each vocabulary entry is encoded once: ``texts`` is ``encoded(g.vocab)``,
    made here unless a writer of several files of ``g`` passes it. A line
    joins its head's, relation's and tail's bytes and the separators."""
    entities, relations = texts or encoded(g.vocab)
    tab, end = repeat(b"\t"), repeat(b"\n")
    for start in range(0, len(order), _WRITE_CHUNK):
        rows = order[start : start + _WRITE_CHUNK]
        heads = map(entities.__getitem__, gather(g.heads, rows))
        rels = map(relations.__getitem__, gather(g.relations, rows))
        tails = map(entities.__getitem__, gather(g.tails, rows))
        yield list(map(b"".join, zip(heads, tab, rels, tab, tails, end)))


def write_triplets(path: str | Path, g: KnowledgeGraph, preserve_order: bool = False) -> None:
    """Serialize a graph as triplet TSV: in the graph's text order, or in
    input order if requested."""
    with open_output(path, binary=True) as fh:
        for lines in render_chunks(g, range(len(g)) if preserve_order else g.text_order):
            fh.write(b"".join(lines))

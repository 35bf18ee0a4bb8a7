"""Circular (Morgan-style) fingerprints over parsed molecular graphs.

Every atom contributes one environment identifier per radius level. The level-0
identifier hashes the atom's local invariant (element, degree, total hydrogen
count, formal charge, aromatic flag, ring flag); each further level hashes the
previous identifier together with the sorted (bond order, neighbor previous
identifier) list. Degree-0 atoms gain no information from iteration and keep
their level-0 identifier, so an isolated atom yields exactly one identifier.

The input is ``parse_smiles``' flat per-atom columns. Ring flags come from one
DFS over its adjacency lists; hydrogen counts are worked out only when an
atom's level-0 key is new to the memo, the one place they are hashed.

Identifiers from all levels are collected as a set and folded onto a
fixed-length bit vector via ``identifier mod nbits``. Hashing is 64-bit
FNV-1a over a little-endian byte layout, chosen for cross-platform
determinism; stereochemistry never participates.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from ..errors import SmilesError, StageError
from ..ingest import open_output
from ..model import KnowledgeGraph
from .smiles import Molecule, implicit_hydrogens, parse_smiles, ring_flags

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# A neighbour code is ``order << 64 | identifier``: 3 order bits over the
# identifier's 64. A level-k memo key is 1, the centre identifier and each
# code, as fixed-width fields: the leading 1 fixes the field count.
_CODE_BITS = 67
_SENTINEL = 1 << 64

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 2048


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _atom_seed(atom: tuple, degree: int, valence2: int, in_ring: bool) -> int:
    element, charge, aromatic, _ = atom
    elem = element.encode("utf-8")
    return fnv1a64(
        b"A"
        + struct.pack("<B", len(elem))
        + elem
        + struct.pack(
            "<BHhBB",
            degree,
            implicit_hydrogens(atom, valence2),
            charge,
            aromatic,
            in_ring,
        )
    )


def atom_environments(
    mol: Molecule, radius: int, memo: dict | None = None
) -> list[list[int]]:
    """Per-level identifier lists: result[k][i] is atom i's identifier at
    radius k. Levels run 0..radius inclusive. ``memo`` maps each hash input
    to its identifier; environments recur across molecules, so a caller
    fingerprinting many passes one dict. A level-0 key is the atom's
    invariant tuple, degree, doubled valence and ring flag; hydrogens are
    counted only on a miss. A level-k key is one int packing the centre
    identifier and the neighbour codes, sorted as ints."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if memo is None:
        memo = {}
    atoms, neighbours, valence2 = mol
    current = []
    flags = ring_flags(neighbours)
    for atom, bonds, doubled, ring in zip(atoms, neighbours, valence2, flags):
        key = (atom, len(bonds), doubled, ring)
        ident = memo.get(key)
        if ident is None:
            ident = memo[key] = _atom_seed(*key)
        current.append(ident)
    levels = [current]
    for _ in range(radius):
        nxt = []
        for centre, bonds in zip(current, neighbours):
            if not bonds:
                nxt.append(centre)
                continue
            codes = [order << 64 | current[nbr] for nbr, order in bonds]
            codes.sort()
            key = centre | _SENTINEL
            for code in codes:
                key = key << _CODE_BITS | code
            ident = memo.get(key)
            if ident is None:
                # sorted codes are in (order, identifier) order
                payload = b"E" + struct.pack("<Q", centre) + b"".join(
                    [struct.pack("<BQ", code >> 64, code & _MASK64) for code in codes]
                )
                ident = memo[key] = fnv1a64(payload)
            nxt.append(ident)
        levels.append(nxt)
        current = nxt
    return levels


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """Fixed-length binary vector held as one int: bit index b is the
    ``1 << (nbits - 1 - b)`` bit of ``value``, so index 0 is the most
    significant bit, as in the hex form."""

    nbits: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << self.nbits:
            raise ValueError("value has bits beyond nbits")

    def to_hex(self) -> str:
        """Lowercase hex, ``nbits / 4`` characters, bit index 0 at the most
        significant position."""
        return format(self.value, f"0{self.nbits // 4}x")


def morgan_fingerprint(
    mol: Molecule,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
    memo: dict | None = None,
) -> Fingerprint:
    """Fold all environment identifiers of radii 0..radius onto nbits bits;
    ``memo`` is passed to ``atom_environments``."""
    ids = set()
    for level in atom_environments(mol, radius, memo):
        ids.update(level)
    top = nbits - 1
    value = 0
    for shift in {top - ident % nbits for ident in ids}:
        value |= 1 << shift
    return Fingerprint(nbits, value)


def fingerprint_all(
    g: KnowledgeGraph,
    smiles_dict: dict[str, str],
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
    known: dict[str, Fingerprint] | None = None,
) -> tuple[dict[str, Fingerprint], dict[str, int]]:
    """One fingerprint per Compound node in the graph, keyed and ordered by the
    rendered compound id. The SMILES-less filter must already have run: any
    missing or unparseable entry here is a pipeline-order bug and is fatal.
    ``known`` maps compound ids to fingerprints already made of their
    ``smiles_dict`` entries at this radius and width; those are reused."""
    table: dict[str, Fingerprint] = {}
    memo: dict = {}
    known = known or {}
    for node in sorted(g.nodes_of_type("Compound"), key=lambda n: n.text):
        if node.text in known:
            table[node.text] = known[node.text]
            continue
        smiles = smiles_dict.get(node.text)
        if smiles is None:
            raise StageError(
                f"fingerprints: no SMILES for {node.text}; "
                "run the SMILES filter stage first"
            )
        try:
            mol = parse_smiles(smiles)
        except SmilesError as exc:
            raise StageError(
                f"fingerprints: unparseable SMILES for {node.text}: {exc}"
            ) from exc
        table[node.text] = morgan_fingerprint(mol, radius, nbits, memo)
    return table, {"fingerprints_generated": len(table)}


def fingerprinter(table: dict, radius: int, nbits: int) -> Callable[[str, Molecule], None]:
    """A callback that puts the fingerprint of each ``(compound id,
    molecule)`` it is called with into ``table``; its calls share one memo,
    freed with the callback."""
    memo: dict = {}

    def fingerprint(compound: str, mol: Molecule) -> None:
        table[compound] = morgan_fingerprint(mol, radius, nbits, memo)

    return fingerprint


def write_fingerprints(path, table: dict[str, Fingerprint]) -> None:
    """TSV: compound_id, lowercase hex bits (index 0 = most significant)."""
    with open_output(path) as fh:
        for compound in sorted(table):
            fh.write(f"{compound}\t{table[compound].to_hex()}\n")

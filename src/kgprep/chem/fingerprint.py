"""Circular (Morgan-style) fingerprints over parsed molecular graphs.

Every atom contributes one environment identifier per radius level. The level-0
identifier hashes the atom's local invariant (element, degree, total hydrogen
count, formal charge, aromatic flag, ring flag); each further level hashes the
previous identifier together with the sorted (bond order, neighbor previous
identifier) list. Degree-0 atoms gain no information from iteration and keep
their level-0 identifier, so an isolated atom yields exactly one identifier.

Identifiers from all levels are collected as a set and folded onto a
fixed-length bit vector via ``identifier mod nbits``. Hashing is 64-bit
FNV-1a over a little-endian byte layout, chosen for cross-platform
determinism; stereochemistry never participates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

from ..errors import StageError
from ..ingest import open_output
from ..model import KnowledgeGraph
from .smiles import MoleculeGraph, parse_smiles

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 2048


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _atom_seed(atom) -> int:
    elem = atom.element.encode("utf-8")
    return fnv1a64(
        b"A"
        + struct.pack("<B", len(elem))
        + elem
        + struct.pack(
            "<BHhBB",
            atom.degree,
            atom.hydrogens,
            atom.charge,
            int(atom.aromatic),
            int(atom.in_ring),
        )
    )


def atom_environments(
    mol: MoleculeGraph, radius: int, memo: dict | None = None
) -> list[list[int]]:
    """Per-level identifier lists: result[k][i] is atom i's identifier at
    radius k. Levels run 0..radius inclusive. ``memo`` maps each hash input
    (atom invariants, or the centre identifier followed by the sorted bond
    orders and neighbor identifiers) to its identifier; environments recur
    across molecules, so a caller fingerprinting many passes one dict."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if memo is None:
        memo = {}
    adj = mol.neighbors()
    current = []
    for atom in mol.atoms:
        key = (atom.element, atom.degree, atom.hydrogens, atom.charge,
               atom.aromatic, atom.in_ring)
        ident = memo.get(key)
        if ident is None:
            ident = memo[key] = _atom_seed(atom)
        current.append(ident)
    levels = [current]
    for _ in range(radius):
        nxt = []
        for centre, incident in zip(current, adj):
            if not incident:
                nxt.append(centre)
                continue
            pairs = [(order, current[nbr]) for nbr, order in incident]
            pairs.sort()
            key = (centre, *chain.from_iterable(pairs))
            ident = memo.get(key)
            if ident is None:
                payload = b"E" + struct.pack("<Q", centre)
                for order, nbr_id in pairs:
                    payload += struct.pack("<BQ", order, nbr_id)
                ident = memo[key] = fnv1a64(payload)
            nxt.append(ident)
        levels.append(nxt)
        current = nxt
    return levels


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-length binary vector held as one int: bit index b is the
    ``1 << (nbits - 1 - b)`` bit of ``value``, so index 0 is the most
    significant bit, as in the hex form."""

    nbits: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << self.nbits:
            raise ValueError("value has bits beyond nbits")

    @classmethod
    def from_bits(cls, nbits: int, bits) -> "Fingerprint":
        if any(b < 0 or b >= nbits for b in bits):
            raise ValueError("bit index out of range")
        return cls(nbits, sum(1 << (nbits - 1 - b) for b in set(bits)))

    def to_hex(self) -> str:
        """Lowercase hex, ``nbits / 4`` characters, bit index 0 at the most
        significant position."""
        return format(self.value, f"0{self.nbits // 4}x")


def morgan_fingerprint(
    mol: MoleculeGraph,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
    memo: dict | None = None,
) -> Fingerprint:
    """Fold all environment identifiers of radii 0..radius onto nbits bits;
    ``memo`` is passed to ``atom_environments``."""
    ids = set()
    for level in atom_environments(mol, radius, memo):
        ids.update(level)
    return Fingerprint.from_bits(nbits, {i % nbits for i in ids})


def fingerprint_all(
    g: KnowledgeGraph,
    smiles_dict: dict[str, str],
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> tuple[dict[str, Fingerprint], dict[str, int]]:
    """One fingerprint per Compound node in the graph, keyed and ordered by the
    rendered compound id. The SMILES-less filter must already have run: any
    missing or unparseable entry here is a pipeline-order bug and is fatal."""
    table: dict[str, Fingerprint] = {}
    memo: dict = {}
    for node in sorted(g.nodes_of_type("Compound"), key=lambda n: n.text):
        smiles = smiles_dict.get(node.text)
        if smiles is None:
            raise StageError(
                f"fingerprints: no SMILES for {node.text}; "
                "run the SMILES filter stage first"
            )
        try:
            mol = parse_smiles(smiles)
        except Exception as exc:
            raise StageError(
                f"fingerprints: unparseable SMILES for {node.text}: {exc}"
            ) from exc
        table[node.text] = morgan_fingerprint(mol, radius, nbits, memo)
    return table, {"fingerprints_generated": len(table)}


def write_fingerprints(path, table: dict[str, Fingerprint]) -> None:
    """TSV: compound_id, lowercase hex bits (index 0 = most significant)."""
    with open_output(path) as fh:
        for compound in sorted(table):
            fh.write(f"{compound}\t{table[compound].to_hex()}\n")

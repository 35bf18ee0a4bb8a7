"""SMILES parsing and circular fingerprint generation."""

from .fingerprint import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    Fingerprint,
    atom_environments,
    fingerprint_all,
    fingerprint_smiles,
    fnv1a64,
    morgan_fingerprint,
    write_fingerprints,
)
from .smiles import AROMATIC, Atom, Bond, MoleculeGraph, check_smiles, parse_smiles

__all__ = [
    "AROMATIC",
    "Atom",
    "Bond",
    "DEFAULT_NBITS",
    "DEFAULT_RADIUS",
    "Fingerprint",
    "MoleculeGraph",
    "atom_environments",
    "check_smiles",
    "fingerprint_all",
    "fingerprint_smiles",
    "fnv1a64",
    "morgan_fingerprint",
    "parse_smiles",
    "write_fingerprints",
]

"""Test-side readers and writers of parsed molecules.

``molecule_view`` reads a flat ``Molecule`` as atom and bond records, with
hydrogen counts and ring flags derived as the fingerprint stage derives
them. ``random_smiles`` re-serializes a molecule with a random atom order.
Every atom is written as a bracket atom with its explicit hydrogen count and
every bond with an explicit symbol, so reparsing reproduces exactly the same
labeled graph regardless of traversal order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kgprep.chem.smiles import AROMATIC, Molecule, implicit_hydrogens, ring_flags

_BOND_SYMBOL = {1: "-", 2: "=", 3: "#", AROMATIC: ":"}


@dataclass(frozen=True)
class AtomView:
    element: str
    charge: int
    aromatic: bool
    hydrogens: int
    degree: int
    in_ring: bool


@dataclass(frozen=True)
class BondView:
    a: int
    b: int
    order: int


@dataclass(frozen=True)
class MoleculeView:
    atoms: list[AtomView]
    bonds: list[BondView]


def molecule_view(mol: Molecule) -> MoleculeView:
    """Atoms in index order; bonds ordered by their lower endpoint, then in
    the order that atom's bonds were written."""
    atoms = [
        AtomView(atom[0], atom[1], atom[2], implicit_hydrogens(atom, doubled), len(bonds), ring)
        for atom, bonds, doubled, ring in zip(
            mol.atoms, mol.neighbours, mol.valence2, ring_flags(mol.neighbours)
        )
    ]
    bonds = [
        BondView(a, b, order)
        for a, pairs in enumerate(mol.neighbours)
        for b, order in pairs
        if a < b
    ]
    return MoleculeView(atoms, bonds)


def _bracket(atom: AtomView) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    h = "" if atom.hydrogens == 0 else ("H" if atom.hydrogens == 1 else f"H{atom.hydrogens}")
    if atom.charge == 0:
        charge = ""
    elif atom.charge in (1, -1):
        charge = "+" if atom.charge == 1 else "-"
    else:
        charge = f"{atom.charge:+d}"
    return f"[{symbol}{h}{charge}]"


def random_smiles(mol: Molecule, rng: random.Random) -> str:
    """One random-order serialization of ``mol``."""
    mol = molecule_view(mol)
    n = len(mol.atoms)
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for bond in mol.bonds:
        adj[bond.a].append((bond.b, bond.order))
        adj[bond.b].append((bond.a, bond.order))
    for neighbors in adj.values():
        rng.shuffle(neighbors)

    visited: set[int] = set()
    tree: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    back_edges: list[tuple[int, int, int]] = []
    seen_edges: set[frozenset[int]] = set()

    def explore(root: int) -> None:
        stack = [root]
        visited.add(root)
        while stack:
            node = stack.pop()
            for nbr, order in adj[node]:
                edge = frozenset((node, nbr))
                if edge in seen_edges:
                    continue
                if nbr in visited:
                    seen_edges.add(edge)
                    back_edges.append((node, nbr, order))
                else:
                    seen_edges.add(edge)
                    visited.add(nbr)
                    tree[node].append((nbr, order))
                    stack.append(nbr)

    # ring markers: first endpoint written opens the marker, second closes it
    marker_of: dict[frozenset[int], int] = {}
    ring_at: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}

    def write(node: int) -> str:
        out = _bracket(mol.atoms[node])
        for marker, order in ring_at[node]:
            digits = str(marker) if marker < 10 else f"%{marker:02d}"
            out += _BOND_SYMBOL[order] + digits
        children = tree[node]
        for i, (child, order) in enumerate(children):
            segment = _BOND_SYMBOL[order] + write(child)
            out += f"({segment})" if i < len(children) - 1 else segment
        return out

    roots = list(range(n))
    rng.shuffle(roots)
    pieces = []
    for root in roots:
        if root in visited:
            continue
        explore(root)
        for next_marker, (a, b, order) in enumerate(back_edges, start=1):
            edge = frozenset((a, b))
            if edge not in marker_of:
                marker_of[edge] = next_marker
                ring_at[a].append((next_marker, order))
                ring_at[b].append((next_marker, order))
        pieces.append(write(root))
    return ".".join(pieces)

"""SMILES parser producing molecular graphs.

Supported subset: organic-subset atoms (B C N O P S F Cl Br I), bracket atoms
with isotope / charge / explicit H count, bond symbols ``- = # :``, aromatic
lowercase atoms, branches, ring closures (single digit and %nn), and
dot-separated components. Stereo markers (``/ \\ @``) are accepted and
ignored. Implicit hydrogens are assigned to organic-subset atoms by standard
valence; bracket atoms carry exactly their written H count.

Errors report the 0-based character position; end-of-input problems (such as
an unclosed branch) point one past the last character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import SmilesError

# Aromatic bonds are stored with this order code; valence math counts them 1.5.
AROMATIC = 4

_BOND_ORDER = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}

_ORGANIC_TWO = ("Cl", "Br")
_ORGANIC_ONE = frozenset("BCNOPSFI")
_ORGANIC_AROMATIC = frozenset("bcnops")

# Standard valences for implicit-H assignment (organic subset only).
_VALENCES = {
    "B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5),
    "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
}

ELEMENTS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co "
    "Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb "
    "Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re "
    "Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es "
    "Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split()
)

_AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "as", "se"})

_BRACKET = re.compile(
    r"""\[
    (?P<isotope>\d+)?
    (?P<element>[A-Z][a-z]{0,2}|as|se|[bcnops])
    (?P<stereo>@{1,2}(?:TH[12]|AL[12]|SP[1-3]|OH\d{1,2}|TB\d{1,2})?)?
    (?P<hcount>H\d*)?
    (?P<charge>\+\d+|-\d+|\++|-+)?
    (?::(?P<cls>\d+))?
    \]""",
    re.VERBOSE,
)


@dataclass
class Atom:
    element: str
    charge: int = 0
    hydrogens: int = 0
    aromatic: bool = False
    in_ring: bool = False
    degree: int = 0
    explicit_h: bool = False  # True for bracket atoms; blocks valence filling


@dataclass
class Bond:
    a: int
    b: int
    order: int  # 1, 2, 3 or AROMATIC


@dataclass
class MoleculeGraph:
    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of (neighbor index, bond order)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append((bond.b, bond.order))
            adj[bond.b].append((bond.a, bond.order))
        return adj


def _parse_bracket(text: str, start: int) -> tuple[Atom, int]:
    """Parse a bracket atom beginning at ``start``; returns atom and end index."""
    end = text.find("]", start)
    if end < 0:
        raise SmilesError("unclosed bracket atom", start)
    token = text[start : end + 1]
    m = _BRACKET.fullmatch(token)
    if m is None:
        raise SmilesError(f"malformed bracket atom {token!r}", start)
    raw = m.group("element")
    aromatic = raw[0].islower()
    if aromatic and raw not in _AROMATIC_BRACKET:
        raise SmilesError(f"unknown aromatic atom symbol {raw!r}", start)
    element = raw.capitalize()
    if element not in ELEMENTS:
        raise SmilesError(f"unknown atom symbol {raw!r}", start)
    hcount = m.group("hcount")
    if hcount is None:
        hydrogens = 0
    elif hcount == "H":
        hydrogens = 1
    else:
        hydrogens = int(hcount[1:])
    charge_txt = m.group("charge")
    if charge_txt is None:
        charge = 0
    elif charge_txt in ("+", "-") or set(charge_txt) in ({"+"}, {"-"}):
        charge = len(charge_txt) * (1 if charge_txt[0] == "+" else -1)
    else:
        charge = int(charge_txt)
    # isotope, stereo and atom class are accepted and ignored
    return (
        Atom(element, charge=charge, hydrogens=hydrogens, aromatic=aromatic,
             explicit_h=True),
        end + 1,
    )


def _mark_rings(mol: MoleculeGraph) -> None:
    """Set in_ring on atoms via bridge detection: a bond is a ring bond iff it
    is not a bridge. Iterative DFS keeps long chains safe."""
    n = len(mol.atoms)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, bond in enumerate(mol.bonds):
        adj[bond.a].append((bond.b, idx))
        adj[bond.b].append((bond.a, idx))
    disc = [0] * n  # discovery order from 1; 0 is unvisited
    low = [0] * n
    is_bridge = [False] * len(mol.bonds)
    counter = 0
    for root in range(n):
        if disc[root]:
            continue
        counter += 1
        disc[root] = low[root] = counter
        stack = [(root, -1, iter(adj[root]))]  # node, entry edge, unseen edges
        while stack:
            node, in_edge, edges = stack[-1]
            for nxt, edge_idx in edges:
                if edge_idx == in_edge:
                    continue
                if disc[nxt]:
                    low[node] = min(low[node], disc[nxt])
                else:
                    counter += 1
                    disc[nxt] = low[nxt] = counter
                    stack.append((nxt, edge_idx, iter(adj[nxt])))
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        is_bridge[in_edge] = True
    for idx, bond in enumerate(mol.bonds):
        if not is_bridge[idx]:
            mol.atoms[bond.a].in_ring = True
            mol.atoms[bond.b].in_ring = True


def _fill_hydrogens(mol: MoleculeGraph) -> None:
    """Degrees, and standard-valence implicit hydrogens for organic-subset
    atoms. Aromatic atoms use only their lowest valence; aromatic bonds count
    1.5."""
    degree = [0] * len(mol.atoms)
    bondsum = [0] * len(mol.atoms)
    for bond in mol.bonds:
        weight = 1.5 if bond.order == AROMATIC else bond.order
        degree[bond.a] += 1
        degree[bond.b] += 1
        bondsum[bond.a] += weight
        bondsum[bond.b] += weight
    for atom, atom_degree, total in zip(mol.atoms, degree, bondsum):
        atom.degree = atom_degree
        if atom.explicit_h:
            continue
        candidates = _VALENCES.get(atom.element)
        if candidates is None:
            continue
        if atom.aromatic:
            valence = candidates[0]
        else:
            valence = next((v for v in candidates if v >= total), None)
            if valence is None:
                atom.hydrogens = 0
                continue
        atom.hydrogens = max(0, int(valence - total))


def check_smiles(text: str) -> MoleculeGraph:
    """Tokenize and validate SMILES text over the supported subset.

    Raises ``SmilesError`` exactly where ``parse_smiles`` does. The returned
    graph holds the written atoms and bonds only: ring flags, degrees and
    implicit hydrogens are left to the passes in ``parse_smiles``.
    """
    if not text:
        raise SmilesError("empty SMILES", 0)
    mol = MoleculeGraph()
    bonded: set[tuple[int, int]] = set()  # (lower, higher) atom index
    anchor: int | None = None
    pending: tuple[int, int] | None = None  # (order, position of bond symbol)
    branch_stack: list[tuple[int | None, int]] = []  # (anchor, '(' position)
    open_rings: dict[int, tuple[int, int | None, int]] = {}  # marker -> (atom, order, pos)

    def add_atom(atom: Atom, pos: int) -> None:
        nonlocal anchor, pending
        mol.atoms.append(atom)
        idx = len(mol.atoms) - 1
        if anchor is not None:
            _add_bond(anchor, idx, pending[0] if pending else None, pos)
        elif pending is not None:
            raise SmilesError("bond symbol without preceding atom", pending[1])
        pending = None
        anchor = idx

    def _add_bond(a: int, b: int, order: int | None, pos: int) -> None:
        if a == b:
            raise SmilesError("bond between an atom and itself", pos)
        key = (a, b) if a < b else (b, a)
        if key in bonded:
            raise SmilesError("duplicate bond between the same atoms", pos)
        if order is None:
            order = (
                AROMATIC
                if mol.atoms[a].aromatic and mol.atoms[b].aromatic
                else 1
            )
        bonded.add(key)
        mol.bonds.append(Bond(a, b, order))

    def close_ring(marker: int, pos: int) -> None:
        nonlocal pending
        if anchor is None:
            raise SmilesError("ring closure before any atom", pos)
        here_order = pending[0] if pending else None
        pending = None
        if marker in open_rings:
            other, other_order, _ = open_rings.pop(marker)
            if here_order is not None and other_order is not None and here_order != other_order:
                raise SmilesError(f"conflicting bond orders for ring closure {marker}", pos)
            order = here_order if here_order is not None else other_order
            _add_bond(other, anchor, order, pos)
        else:
            open_rings[marker] = (anchor, here_order, pos)

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            atom, end = _parse_bracket(text, i)
            add_atom(atom, i)
            i = end
        elif ch in _ORGANIC_ONE:
            if text[i : i + 2] in _ORGANIC_TWO:
                add_atom(Atom(text[i : i + 2]), i)
                i += 2
            else:
                add_atom(Atom(ch), i)
                i += 1
        elif ch in _ORGANIC_AROMATIC:
            add_atom(Atom(ch.upper(), aromatic=True), i)
            i += 1
        elif ch in _BOND_ORDER:
            if pending is not None:
                raise SmilesError("two consecutive bond symbols", i)
            pending = (_BOND_ORDER[ch], i)
            i += 1
        elif ch == "(":
            if anchor is None:
                raise SmilesError("branch before any atom", i)
            if pending is not None:
                raise SmilesError("bond symbol before branch open", pending[1])
            branch_stack.append((anchor, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            if pending is not None:
                raise SmilesError("dangling bond before ')'", pending[1])
            anchor = branch_stack.pop()[0]
            i += 1
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= n or not text[i + 1 : i + 3].isdigit():
                raise SmilesError("'%' ring closure needs two digits", i)
            close_ring(int(text[i + 1 : i + 3]), i)
            i += 3
        elif ch == ".":
            if pending is not None:
                raise SmilesError("dangling bond before '.'", pending[1])
            anchor = None
            i += 1
        else:
            raise SmilesError(f"unknown atom symbol {ch!r}", i)

    if pending is not None:
        raise SmilesError("dangling bond at end of input", n)
    if branch_stack:
        raise SmilesError("unclosed branch", n)
    if open_rings:
        marker, (_, _, pos) = min(open_rings.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unmatched ring closure {marker}", pos)
    if not mol.atoms:
        raise SmilesError("no atoms in SMILES", 0)
    return mol


def parse_smiles(text: str) -> MoleculeGraph:
    """Parse SMILES text into a MoleculeGraph over the supported subset: the
    validated graph of ``check_smiles`` with ring flags, degrees and implicit
    hydrogens filled in. Only ``check_smiles`` raises."""
    mol = check_smiles(text)
    _mark_rings(mol)
    _fill_hydrogens(mol)
    return mol

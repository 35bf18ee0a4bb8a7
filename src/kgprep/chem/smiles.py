"""SMILES tokenizer producing flat molecular graphs.

Supported subset: organic-subset atoms (B C N O P S F Cl Br I), bracket atoms
with isotope / charge / explicit H count, bond symbols ``- = # :``, aromatic
lowercase atoms, branches, ring closures (single digit and %nn), and
dot-separated components. Stereo markers (``/ \\ @``) are accepted and
ignored. Digits are ASCII digits only. Implicit hydrogens are assigned to
organic-subset atoms by standard valence; bracket atoms carry exactly their
written H count.

``parse_smiles`` makes one pass over the text and builds, per atom, three
things: an invariant tuple ``(element, charge, aromatic, hydrogens)``, whose
``hydrogens`` is a bracket atom's written count or None for an organic-subset
atom; a list of ``(neighbour, order)`` pairs; and the sum of its bond orders
doubled, so that an aromatic bond (1.5) stays an int. Ring membership
(``ring_flags``) and hydrogen counts (``implicit_hydrogens``) are derived from
these only by the callers that need them.

Errors report the 0-based character position; end-of-input problems (such as
an unclosed branch) point one past the last character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import SmilesError

# Aromatic bonds are stored with this order code; valence math counts them 1.5.
AROMATIC = 4

_BOND_ORDER = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}
# Twice each order code's contribution to an atom's valence.
_DOUBLED = (0, 2, 4, 6, 3)
# The fingerprint identifier packs an atom's degree as u8.
_MAX_DEGREE = 255

# Organic-subset symbol -> the invariant tuple every such atom shares.
_ORGANIC = {
    **{s: (s, 0, False, None) for s in ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")},
    **{s: (s.upper(), 0, True, None) for s in "bcnops"},
}

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
    re.VERBOSE | re.ASCII,
)


class Molecule(NamedTuple):
    """Per-atom columns: invariant tuples, ``(neighbour, order)`` lists, and
    doubled bond-order sums."""

    atoms: list[tuple[str, int, bool, int | None]]
    neighbours: list[list[tuple[int, int]]]
    valence2: list[int]


def _parse_bracket(text: str, start: int) -> tuple[tuple[str, int, bool, int], int]:
    """Parse a bracket atom beginning at ``start``; returns its invariant
    tuple and end index."""
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
    # the fingerprint identifier packs these as u16 and i16
    if hydrogens > 0xFFFF:
        raise SmilesError(f"hydrogen count {hydrogens} out of range", start)
    if not -0x8000 <= charge <= 0x7FFF:
        raise SmilesError(f"charge {charge} out of range", start)
    # isotope, stereo and atom class are accepted and ignored
    return (element, charge, aromatic, hydrogens), end + 1


def parse_smiles(text: str) -> Molecule:
    """Tokenize and validate SMILES text over the supported subset, in one
    pass. Raises ``SmilesError`` and nothing else on rejected text."""
    if not text:
        raise SmilesError("empty SMILES", 0)
    atoms: list[tuple] = []
    neighbours: list[list[tuple[int, int]]] = []
    valence2: list[int] = []
    anchor = -1  # the atom the next bond starts from; -1 for none
    order = 0  # pending bond order; 0 for none
    bond_pos = 0  # position of the pending bond symbol
    branches: list[int] = []  # anchors to return to at ')'
    open_rings: dict[int, tuple[int, int, int]] = {}  # marker -> (atom, order, pos)
    i = 0
    n = len(text)
    while i < n:
        start = i
        ch = text[i]
        if ch in _ORGANIC:
            if text[i : i + 2] in ("Cl", "Br"):
                atom = _ORGANIC[text[i : i + 2]]
                i += 2
            else:
                atom = _ORGANIC[ch]
                i += 1
        elif ch == "[":
            atom, i = _parse_bracket(text, i)
        elif "0" <= ch <= "9" or ch == "%":
            if ch == "%":
                digits = text[i + 1 : i + 3]
                if len(digits) < 2 or not ("0" <= digits[0] <= "9" and "0" <= digits[1] <= "9"):
                    raise SmilesError("'%' ring closure needs two digits", start)
                marker = int(digits)
                i += 3
            else:
                marker = ord(ch) - 48
                i += 1
            if anchor < 0:
                raise SmilesError("ring closure before any atom", start)
            opened = open_rings.pop(marker, None)
            if opened is None:
                open_rings[marker] = (anchor, order, start)
                order = 0
                continue
            other, other_order, _ = opened
            if order and other_order and order != other_order:
                raise SmilesError(f"conflicting bond orders for ring closure {marker}", start)
            if other == anchor:
                raise SmilesError("bond between an atom and itself", start)
            # a chain or branch bond always reaches a new atom, so only a ring
            # closure can repeat a bond
            for nbr, _ in neighbours[anchor]:
                if nbr == other:
                    raise SmilesError("duplicate bond between the same atoms", start)
            if _MAX_DEGREE in (len(neighbours[other]), len(neighbours[anchor])):
                raise SmilesError(f"atom with more than {_MAX_DEGREE} bonds", start)
            order = order or other_order or (
                AROMATIC if atoms[other][2] and atoms[anchor][2] else 1
            )
            neighbours[other].append((anchor, order))
            neighbours[anchor].append((other, order))
            valence2[other] += _DOUBLED[order]
            valence2[anchor] += _DOUBLED[order]
            order = 0
            continue
        else:
            if ch in _BOND_ORDER:
                if order:
                    raise SmilesError("two consecutive bond symbols", start)
                order = _BOND_ORDER[ch]
                bond_pos = start
            elif ch == "(":
                if anchor < 0:
                    raise SmilesError("branch before any atom", start)
                if order:
                    raise SmilesError("bond symbol before branch open", bond_pos)
                branches.append(anchor)
            elif ch == ")":
                if not branches:
                    raise SmilesError("unmatched ')'", start)
                if order:
                    raise SmilesError("dangling bond before ')'", bond_pos)
                anchor = branches.pop()
            elif ch == ".":
                if order:
                    raise SmilesError("dangling bond before '.'", bond_pos)
                anchor = -1
            else:
                raise SmilesError(f"unknown atom symbol {ch!r}", start)
            i += 1
            continue
        # an atom
        idx = len(atoms)
        atoms.append(atom)
        if anchor >= 0:
            if not order:
                order = AROMATIC if atom[2] and atoms[anchor][2] else 1
            bonds = neighbours[anchor]
            if len(bonds) == _MAX_DEGREE:
                raise SmilesError(f"atom with more than {_MAX_DEGREE} bonds", start)
            bonds.append((idx, order))
            neighbours.append([(anchor, order)])
            valence2[anchor] += _DOUBLED[order]
            valence2.append(_DOUBLED[order])
            order = 0
        elif order:
            raise SmilesError("bond symbol without preceding atom", bond_pos)
        else:
            neighbours.append([])
            valence2.append(0)
        anchor = idx

    if order:
        raise SmilesError("dangling bond at end of input", n)
    if branches:
        raise SmilesError("unclosed branch", n)
    if open_rings:
        marker, (_, _, pos) = min(open_rings.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unmatched ring closure {marker}", pos)
    if not atoms:
        raise SmilesError("no atoms in SMILES", 0)
    return Molecule(atoms, neighbours, valence2)


def implicit_hydrogens(atom: tuple[str, int, bool, int | None], valence2: int) -> int:
    """Hydrogen count of an atom from its invariant tuple and doubled
    bond-order sum: a bracket atom's written count, or standard-valence
    filling for an organic-subset atom. Aromatic atoms use only their lowest
    valence; other atoms the lowest valence that covers their bonds, and no
    hydrogens if none does."""
    element, _, aromatic, written = atom
    if written is not None:
        return written
    valences = _VALENCES[element]
    if aromatic:
        valence = valences[0]
    else:
        valence = next((v for v in valences if 2 * v >= valence2), None)
        if valence is None:
            return 0
    return max(0, (2 * valence - valence2) // 2)


def ring_flags(neighbours: list[list[tuple[int, int]]]) -> list[bool]:
    """Per atom, whether it lies on a ring: whether one of its bonds is not a
    bridge. An iterative DFS keeps long chains safe; it skips the edge back
    to the tree parent by atom, which is exact because ``parse_smiles``
    rejects duplicate bonds."""
    n = len(neighbours)
    disc = [0] * n  # discovery order from 1; 0 is unvisited
    low = [0] * n
    in_ring = [False] * n
    counter = 0
    for root in range(n):
        if disc[root]:
            continue
        counter += 1
        disc[root] = low[root] = counter
        stack = [(root, -1, iter(neighbours[root]))]  # atom, tree parent, unseen bonds
        while stack:
            node, parent, bonds = stack[-1]
            for nxt, _ in bonds:
                if nxt == parent:
                    continue
                if disc[nxt]:
                    # undirected DFS has no cross edges: this bond closes a cycle
                    in_ring[node] = in_ring[nxt] = True
                    if disc[nxt] < low[node]:
                        low[node] = disc[nxt]
                else:
                    counter += 1
                    disc[nxt] = low[nxt] = counter
                    stack.append((nxt, node, iter(neighbours[nxt])))
                    break
            else:
                stack.pop()
                if parent >= 0:
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if low[node] <= disc[parent]:  # the tree bond is not a bridge
                        in_ring[node] = in_ring[parent] = True
    return in_ring

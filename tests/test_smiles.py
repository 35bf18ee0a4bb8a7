import random

import pytest

from kgprep.chem.smiles import AROMATIC, check_smiles, parse_smiles
from kgprep.errors import SmilesError

from conftest import FIXTURE_MOLECULES


def test_ethanol():
    m = parse_smiles("CCO")
    assert [a.element for a in m.atoms] == ["C", "C", "O"]
    assert [(b.a, b.b, b.order) for b in m.bonds] == [(0, 1, 1), (1, 2, 1)]
    assert [a.hydrogens for a in m.atoms] == [3, 2, 1]
    assert not any(a.in_ring for a in m.atoms)


def test_benzene():
    m = parse_smiles("c1ccccc1")
    assert len(m.atoms) == 6 and len(m.bonds) == 6
    assert all(a.aromatic and a.in_ring for a in m.atoms)
    assert all(b.order == AROMATIC for b in m.bonds)
    assert all(a.hydrogens == 1 for a in m.atoms)


def test_unbalanced_branch_position():
    with pytest.raises(SmilesError) as err:
        parse_smiles("C(C")
    assert err.value.position == 3


def test_error_positions():
    with pytest.raises(SmilesError) as err:
        parse_smiles("CC)C")
    assert err.value.position == 2
    with pytest.raises(SmilesError) as err:
        parse_smiles("C1CC")
    assert err.value.position == 1  # the unmatched ring marker
    with pytest.raises(SmilesError) as err:
        parse_smiles("CC=")
    assert err.value.position == 3
    with pytest.raises(SmilesError) as err:
        parse_smiles("CxC")
    assert err.value.position == 1


def test_bond_orders_and_valence():
    m = parse_smiles("C=C")
    assert m.bonds[0].order == 2
    assert [a.hydrogens for a in m.atoms] == [2, 2]
    m = parse_smiles("C#N")
    assert m.bonds[0].order == 3
    assert [a.hydrogens for a in m.atoms] == [1, 0]
    m = parse_smiles("O=C=O")
    assert [a.hydrogens for a in m.atoms] == [0, 0, 0]


def test_sulfur_expanded_valence():
    m = parse_smiles("CS(=O)(=O)C")  # sulfone: S carries no H
    s = m.atoms[1]
    assert s.element == "S" and s.hydrogens == 0


def test_bracket_atoms():
    m = parse_smiles("[NH4+].[Cl-]")
    n, cl = m.atoms
    assert (n.element, n.hydrogens, n.charge) == ("N", 4, 1)
    assert (cl.element, cl.charge) == ("Cl", -1)
    assert len(m.bonds) == 0  # dot separates components


def test_bracket_isotope_and_charge_magnitude():
    m = parse_smiles("[13CH4]")
    assert m.atoms[0].element == "C" and m.atoms[0].hydrogens == 4
    m = parse_smiles("[Fe+2]")
    assert m.atoms[0].charge == 2
    m = parse_smiles("[O--]")
    assert m.atoms[0].charge == -2


def test_unknown_atom_symbols():
    with pytest.raises(SmilesError, match="unknown"):
        parse_smiles("C[Xx]C")
    with pytest.raises(SmilesError):
        parse_smiles("*")


def test_stereo_markers_accepted_and_ignored():
    m = parse_smiles("F/C=C/F")
    assert len(m.atoms) == 4
    assert m.bonds[1].order == 2
    m = parse_smiles("N[C@@H](C)C(=O)O")  # alanine with chirality tag
    assert len(m.atoms) == 6


def test_two_letter_organic_atoms():
    m = parse_smiles("ClCBr")
    assert [a.element for a in m.atoms] == ["Cl", "C", "Br"]


def test_percent_ring_closure():
    m = parse_smiles("C%12CCCCC%12")
    assert len(m.bonds) == 6
    assert all(a.in_ring for a in m.atoms)


def test_ring_bond_order_agreement():
    m = parse_smiles("C=1CCCCC=1")
    closure = m.bonds[-1]
    assert closure.order == 2
    with pytest.raises(SmilesError, match="conflicting"):
        parse_smiles("C=1CCCCC#1")


def test_ring_self_and_duplicate_bonds_rejected():
    with pytest.raises(SmilesError, match="itself"):
        parse_smiles("C11")
    with pytest.raises(SmilesError, match="duplicate"):
        parse_smiles("C12CC12")


def test_fused_rings_all_in_ring():
    m = parse_smiles("c1ccc2ccccc2c1")  # naphthalene
    assert len(m.atoms) == 10 and len(m.bonds) == 11
    assert all(a.in_ring for a in m.atoms)
    fusion = [a for a in m.atoms if a.degree == 3]
    assert len(fusion) == 2 and all(a.hydrogens == 0 for a in fusion)


def test_ring_detection_is_topological():
    # the chain carbon hanging off the ring is not in a ring
    m = parse_smiles("CC1CC1")
    assert [a.in_ring for a in m.atoms] == [False, True, True, True]


def test_empty_and_blank_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("")
    with pytest.raises(SmilesError):
        parse_smiles("()")


def test_all_fixture_molecules_parse():
    for smiles in FIXTURE_MOLECULES:
        mol = parse_smiles(smiles)
        assert mol.atoms
        for idx, atom in enumerate(mol.atoms):
            assert atom.degree == sum(1 for b in mol.bonds if idx in (b.a, b.b))


# The broken strings the DRKG-shaped benchmark generator plants.
DRKG_BROKEN_SMILES = ("C1CC(", "c1ccccc", "CC(C(=O)O", "C[Xx]C", "CC==O", "N1CCC2")


def _outcome(parse, text):
    try:
        mol = parse(text)
    except SmilesError as exc:
        return ("error", str(exc), exc.position)
    return [(a.element, a.charge, a.aromatic, a.explicit_h) for a in mol.atoms], [
        (b.a, b.b, b.order) for b in mol.bonds
    ]


def test_check_smiles_rejects_exactly_what_parse_rejects():
    rng = random.Random(17)
    alphabet = sorted(set("".join(FIXTURE_MOLECULES)) | set("()[]%=#:.+-@/\\HXx0123456789"))
    texts = [*FIXTURE_MOLECULES, *DRKG_BROKEN_SMILES]
    for smiles in FIXTURE_MOLECULES:
        for i in range(len(smiles)):
            texts.append(smiles[:i] + smiles[i + 1:])
            texts.append(smiles[:i] + rng.choice(alphabet) + smiles[i + 1:])
            texts.append(smiles[:i] + rng.choice(alphabet) + smiles[i:])
    rejected = 0
    for text in texts:
        expected = _outcome(parse_smiles, text)
        assert _outcome(check_smiles, text) == expected, text
        rejected += expected[0] == "error"
    for text in DRKG_BROKEN_SMILES:
        with pytest.raises(SmilesError):
            check_smiles(text)
    assert 0 < rejected < len(texts)

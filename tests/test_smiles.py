import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgprep.chem.fingerprint import fingerprint_all
from kgprep.chem.smiles import AROMATIC, parse_smiles, ring_flags
from kgprep.enrich import filter_no_smiles
from kgprep.errors import SmilesError, StageError

from conftest import DRUG_MOLECULES, FIXTURE_MOLECULES, fingerprint_of, graph_of
from molwrite import molecule_view, random_smiles
from oracles import ring_flags_bruteforce


def parse(text: str):
    """``parse_smiles`` read as atom and bond records."""
    return molecule_view(parse_smiles(text))


def test_ethanol():
    m = parse("CCO")
    assert [a.element for a in m.atoms] == ["C", "C", "O"]
    assert [(b.a, b.b, b.order) for b in m.bonds] == [(0, 1, 1), (1, 2, 1)]
    assert [a.hydrogens for a in m.atoms] == [3, 2, 1]
    assert not any(a.in_ring for a in m.atoms)


def test_benzene():
    m = parse("c1ccccc1")
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
    m = parse("C=C")
    assert m.bonds[0].order == 2
    assert [a.hydrogens for a in m.atoms] == [2, 2]
    m = parse("C#N")
    assert m.bonds[0].order == 3
    assert [a.hydrogens for a in m.atoms] == [1, 0]
    m = parse("O=C=O")
    assert [a.hydrogens for a in m.atoms] == [0, 0, 0]


def test_sulfur_expanded_valence():
    m = parse("CS(=O)(=O)C")  # sulfone: S carries no H
    s = m.atoms[1]
    assert s.element == "S" and s.hydrogens == 0


def test_bracket_atoms():
    m = parse("[NH4+].[Cl-]")
    n, cl = m.atoms
    assert (n.element, n.hydrogens, n.charge) == ("N", 4, 1)
    assert (cl.element, cl.charge) == ("Cl", -1)
    assert len(m.bonds) == 0  # dot separates components


def test_bracket_isotope_and_charge_magnitude():
    m = parse("[13CH4]")
    assert m.atoms[0].element == "C" and m.atoms[0].hydrogens == 4
    m = parse("[Fe+2]")
    assert m.atoms[0].charge == 2
    m = parse("[O--]")
    assert m.atoms[0].charge == -2


def test_unknown_atom_symbols():
    with pytest.raises(SmilesError, match="unknown"):
        parse_smiles("C[Xx]C")
    with pytest.raises(SmilesError):
        parse_smiles("*")


def test_stereo_markers_accepted_and_ignored():
    m = parse("F/C=C/F")
    assert len(m.atoms) == 4
    assert m.bonds[1].order == 2
    m = parse("N[C@@H](C)C(=O)O")  # alanine with chirality tag
    assert len(m.atoms) == 6


def test_two_letter_organic_atoms():
    m = parse("ClCBr")
    assert [a.element for a in m.atoms] == ["Cl", "C", "Br"]


def test_percent_ring_closure():
    m = parse("C%12CCCCC%12")
    assert len(m.bonds) == 6
    assert all(a.in_ring for a in m.atoms)


def test_ring_bond_order_agreement():
    m = parse("C=1CCCCC=1")
    orders = {(b.a, b.b): b.order for b in m.bonds}
    assert orders[(0, 5)] == 2
    with pytest.raises(SmilesError, match="conflicting"):
        parse_smiles("C=1CCCCC#1")


def test_ring_self_and_duplicate_bonds_rejected():
    with pytest.raises(SmilesError, match="itself"):
        parse_smiles("C11")
    with pytest.raises(SmilesError, match="duplicate"):
        parse_smiles("C12CC12")


def test_fused_rings_all_in_ring():
    m = parse("c1ccc2ccccc2c1")  # naphthalene
    assert len(m.atoms) == 10 and len(m.bonds) == 11
    assert all(a.in_ring for a in m.atoms)
    fusion = [a for a in m.atoms if a.degree == 3]
    assert len(fusion) == 2 and all(a.hydrogens == 0 for a in fusion)


def test_ring_detection_is_topological():
    # the chain carbon hanging off the ring is not in a ring
    m = parse("CC1CC1")
    assert [a.in_ring for a in m.atoms] == [False, True, True, True]


def test_empty_and_blank_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("")
    with pytest.raises(SmilesError):
        parse_smiles("()")


def test_all_fixture_molecules_parse():
    for smiles in FIXTURE_MOLECULES:
        mol = parse(smiles)
        assert mol.atoms
        for idx, atom in enumerate(mol.atoms):
            assert atom.degree == sum(1 for b in mol.bonds if idx in (b.a, b.b))


# The broken strings the DRKG-shaped benchmark generator plants.
DRKG_BROKEN_SMILES = ("C1CC(", "c1ccccc", "CC(C(=O)O", "C[Xx]C", "CC==O", "N1CCC2")

COMPOUND = "Compound::PubChem_Compounds:1"


def _outcome(text):
    """None for accepted text, else the rejection's message and position."""
    try:
        parse_smiles(text)
    except SmilesError as exc:
        return str(exc), exc.position
    return None


def _assert_stages_agree(text):
    """smiles_filter drops the compound exactly when ``parse_smiles`` rejects
    its SMILES, and fingerprints fails on it with the same message and
    position, or fingerprints it."""
    expected = _outcome(text)
    g = graph_of((COMPOUND, "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"))
    smiles = {COMPOUND: text}
    _, details = filter_no_smiles(g, smiles)
    assert details["compounds_unparseable"] == (expected is not None), text
    if expected is None:
        table, _ = fingerprint_all(g, smiles)
        assert list(table) == [COMPOUND]
        return
    with pytest.raises(StageError) as err:
        fingerprint_all(g, smiles)
    cause = err.value.__cause__
    assert isinstance(cause, SmilesError)
    assert (str(cause), cause.position) == expected, text


def test_filter_and_fingerprints_agree_on_mutations():
    rng = random.Random(17)
    alphabet = sorted(set("".join(FIXTURE_MOLECULES)) | set("()[]%=#:.+-@/\\HXx0123456789"))
    texts = [*FIXTURE_MOLECULES, *DRKG_BROKEN_SMILES]
    for smiles in FIXTURE_MOLECULES:
        for i in range(len(smiles)):
            texts.append(smiles[:i] + smiles[i + 1:])
            texts.append(smiles[:i] + rng.choice(alphabet) + smiles[i + 1:])
            texts.append(smiles[:i] + rng.choice(alphabet) + smiles[i:])
    for text in texts:
        _assert_stages_agree(text)
    for text in DRKG_BROKEN_SMILES:
        with pytest.raises(SmilesError):
            parse_smiles(text)
    rejected = sum(_outcome(text) is not None for text in texts)
    assert 0 < rejected < len(texts)


SMILES_TOKENS = (
    "C", "c", "N", "n", "O", "o", "S", "s", "B", "P", "F", "I", "Cl", "Br",
    "[nH]", "[C@@H]", "[NH4+]", "[13CH4]", "[O-]", "[Fe+2]", "[Xx]", "[", "]",
    "-", "=", "#", ":", "/", "\\", "(", ")", ".", "%", "%12", "0", "1", "2", "9",
    "H", "@", "+", "*", "\u00b2", "\u0661",
)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(SMILES_TOKENS), st.characters()), max_size=24))
def test_any_text_parses_or_raises_smiles_error(tokens):
    # _outcome lets any exception but SmilesError through
    _assert_stages_agree("".join(tokens))


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("C\u00b2", "unknown atom symbol '\u00b2'", 1),  # superscript two
        ("C%1\u00b2", "'%' ring closure needs two digits", 1),
        ("C1CC\u0661", "unknown atom symbol '\u0661'", 4),  # Arabic-Indic one
        ("[\u0661\u0663C]", "malformed bracket atom '[\u0661\u0663C]'", 0),
        ("[CH\u0662]", "malformed bracket atom '[CH\u0662]'", 0),
    ],
)
def test_non_ascii_digits_are_rejected(text, message, position):
    with pytest.raises(SmilesError) as err:
        parse_smiles(text)
    assert (str(err.value), err.value.position) == (f"{message} (position {position})", position)


def test_values_the_identifier_cannot_pack_are_rejected():
    # hydrogens pack as u16, charge as i16 and degree as u8
    for text in ("[CH65535]", "[C-32768]", "[C+32767]", "C" + "(C)" * 254 + "C"):
        fingerprint_of(text)
    with pytest.raises(SmilesError, match="hydrogen count 65536 out of range"):
        parse_smiles("C[CH65536]")
    with pytest.raises(SmilesError, match="charge -32769 out of range"):
        parse_smiles("[C-32769]")
    star = "C" + "(C)" * 255  # the first atom holds 255 bonds
    with pytest.raises(SmilesError, match=f"more than 255 bonds \\(position {len(star)}\\)"):
        parse_smiles(star + "C")
    closing = "C1" + "(C)" * 254 + "CC1"
    with pytest.raises(SmilesError, match=f"more than 255 bonds \\(position {len(closing) - 1}\\)"):
        parse_smiles(closing)


RING_CASES = (
    "c1ccc2ccccc2c1",  # fused
    "C1CCC2(CC1)CCCC2",  # spiro
    "C1CC2CCC1C2",  # bridged (norbornane)
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1CC1CCC1CC1",  # two rings on a chain
    "C1CC1.CCO.c1ccccc1.[Na+]",  # several components
    "CC(C)(C)c1ccc(cc1)C1CC1C",
)


def test_ring_flags_equal_their_definition():
    rng = random.Random(31)
    cases = [*FIXTURE_MOLECULES, *DRUG_MOLECULES, *RING_CASES]
    for smiles in cases:
        mol = parse_smiles(smiles)
        variants = [smiles] + [random_smiles(mol, rng) for _ in range(5)]
        for text in variants:
            view = molecule_view(parse_smiles(text))
            assert [a.in_ring for a in view.atoms] == ring_flags_bruteforce(view), text


def test_ring_flags_on_5000_atoms():
    # a recursive search would exceed the interpreter's recursion limit here
    chain = "C" * 5000
    ring = "C1" + "C" * 4998 + "C1"
    dumbbell = "C1CC1" + "C" * 4994 + "C1CC1"
    assert ring_flags(parse_smiles(chain).neighbours) == [False] * 5000
    assert ring_flags(parse_smiles(ring).neighbours) == [True] * 5000
    assert ring_flags(parse_smiles(dumbbell).neighbours) == [True] * 3 + [False] * 4994 + [True] * 3

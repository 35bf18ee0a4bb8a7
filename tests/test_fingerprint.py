import random
import tracemalloc

import pytest

from kgprep import enrich
from kgprep.chem import fingerprint
from kgprep.chem.fingerprint import (
    Fingerprint,
    atom_environments,
    fingerprint_all,
    fnv1a64,
    morgan_fingerprint,
)
from kgprep.chem.smiles import parse_smiles
from kgprep.config import STAGE_NAMES, PipelineConfig
from kgprep.errors import StageError
from kgprep.ingest import load_triplets
from kgprep.pipeline import PipelineRunner

from conftest import (
    DRUG_MOLECULES,
    FIXTURE_MOLECULES,
    fingerprint_from_hex,
    fingerprint_of,
    graph_of,
)
from molwrite import molecule_view, random_smiles
from oracles import fingerprint_bits, fingerprint_bits_bruteforce, fnv1a64_reference

# Expected bit indices for "CCO" at radius 2 / 2048 bits, frozen from the
# recursive brute-force enumerator (tests/oracles.py) before the engine ran.
CCO_RADIUS2_BITS = frozenset({
    103, 161, 184, 331, 639, 1178, 1396, 1738, 1956,
})

def test_fnv1a_matches_reference_vectors():
    # standard FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8
    for probe in (b"", b"a", b"foobar", b"\x00\xff"):
        assert fnv1a64(probe) == fnv1a64_reference(probe)


def test_methane_single_environment():
    fp = morgan_fingerprint(parse_smiles("C"), radius=2)
    assert len(fingerprint_bits(fp)) == 1


def test_cco_frozen_oracle_bits():
    fp = fingerprint_of("CCO", radius=2, nbits=2048)
    assert fingerprint_bits(fp) == CCO_RADIUS2_BITS


def test_engine_equals_bruteforce_enumerator():
    for smiles in FIXTURE_MOLECULES[:10]:
        mol = parse_smiles(smiles)
        engine = set(fingerprint_bits(morgan_fingerprint(mol, radius=2, nbits=2048)))
        oracle = fingerprint_bits_bruteforce(molecule_view(mol), radius=2, nbits=2048)
        assert engine == oracle, smiles


def test_atom_order_permutation_invariance():
    rng = random.Random(11)
    for smiles in FIXTURE_MOLECULES:
        reference = fingerprint_of(smiles)
        mol = parse_smiles(smiles)
        for _ in range(5):
            variant = random_smiles(mol, rng)
            assert fingerprint_bits(fingerprint_of(variant)) == fingerprint_bits(reference), (smiles, variant)


def test_simple_permutation_pairs():
    assert fingerprint_bits(fingerprint_of("CCO")) == fingerprint_bits(fingerprint_of("OCC"))
    assert fingerprint_bits(fingerprint_of("N#Cc1ccccc1")) == fingerprint_bits(fingerprint_of("c1ccccc1C#N"))


def test_determinism_across_calls():
    a = fingerprint_of("CC(=O)Oc1ccccc1C(=O)O")
    b = fingerprint_of("CC(=O)Oc1ccccc1C(=O)O")
    assert a == b


def test_monotone_environment_count():
    for smiles in FIXTURE_MOLECULES:
        mol = parse_smiles(smiles)
        if len(mol.atoms) < 2 or not any(mol.neighbours):
            continue
        levels = atom_environments(mol, radius=3)
        distinct = [len(set(level)) for level in levels]
        assert all(b >= a for a, b in zip(distinct, distinct[1:])), smiles


def test_bit_count_bound():
    for smiles in FIXTURE_MOLECULES:
        mol = parse_smiles(smiles)
        for radius in (0, 1, 2):
            fp = morgan_fingerprint(mol, radius=radius)
            assert len(fingerprint_bits(fp)) <= len(mol.atoms) * (radius + 1)
            assert len(fingerprint_bits(fp)) >= 1


def test_radius_zero_is_atom_invariants_only():
    # CH3 (C, degree 1), CH2 (C, degree 2) and OH all carry distinct invariants
    mol = parse_smiles("CCO")
    fp = morgan_fingerprint(mol, radius=0)
    assert len(fingerprint_bits(fp)) == 3
    assert len(set(atom_environments(mol, 0)[0])) == 3


def test_hex_round_trip_and_layout():
    fp = Fingerprint(2048, 1 << 2047 | 1 << 2040 | 1)
    text = fp.to_hex()
    assert len(text) == 512 and text == text.lower()
    assert text[0] == "8"  # bit 0 is the most significant of the first nibble
    assert text[1] == "1"  # bit 7 is the least significant of the second nibble
    assert text[-1] == "1"  # bit 2047 is the least significant overall
    assert fingerprint_from_hex(text) == fp
    assert fingerprint_bits(fp) == frozenset({0, 7, 2047})


def test_fingerprint_all_counts_and_order():
    g = graph_of(
        ("Compound::PubChem_Compounds:2", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:1", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),
        ("Compound::PubChem_Compounds:3", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:2"),
    )
    smiles = {
        "Compound::PubChem_Compounds:1": "CCO",
        "Compound::PubChem_Compounds:2": "OCC",
        "Compound::PubChem_Compounds:3": "c1ccccc1",
    }
    table, details = fingerprint_all(g, smiles)
    assert details["fingerprints_generated"] == 3
    assert list(table) == sorted(table)
    # identical molecules written differently agree
    assert table["Compound::PubChem_Compounds:1"] == table["Compound::PubChem_Compounds:2"]


def test_fingerprint_all_missing_smiles_is_pipeline_bug():
    g = graph_of(
        ("Compound::PubChem_Compounds:1", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1"),
    )
    with pytest.raises(StageError, match="SMILES"):
        fingerprint_all(g, {})


def test_memoized_environments_equal_bruteforce_on_drug_sized_molecules():
    rng = random.Random(23)
    memo: dict = {}
    for smiles in DRUG_MOLECULES:
        mol = parse_smiles(smiles)
        for text in (smiles, random_smiles(mol, rng)):
            variant = parse_smiles(text)
            for radius in (0, 1, 2, 3):
                shared = morgan_fingerprint(variant, radius, 2048, memo)
                oracle = fingerprint_bits_bruteforce(molecule_view(variant), radius, 2048)
                assert set(fingerprint_bits(shared)) == oracle, (text, radius)
                assert morgan_fingerprint(variant, radius, 2048) == shared
    assert memo


def test_fingerprint_all_repeat_calls_agree():
    rows = [
        (f"Compound::PubChem_Compounds:{i}", "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1")
        for i in range(len(DRUG_MOLECULES))
    ]
    smiles = {row[0]: text for row, text in zip(rows, DRUG_MOLECULES)}
    first, _ = fingerprint_all(graph_of(*rows), smiles)
    second, _ = fingerprint_all(graph_of(*rows), smiles)
    assert first == second
    for compound, text in smiles.items():
        assert first[compound] == fingerprint_of(text)


_RING_PARTS = ("c1ccc(cc1)", "c1ccc(nc1)", "C1CCC(CC1)", "C1CCN(CC1)", "c1csc(n1)", "C1CCOC(C1)")
_CHAIN_PARTS = ("C", "CC", "C(=O)N", "O", "S(=O)(=O)N", "C(=O)O", "N", "C(F)(F)", "C(Cl)", "C=C")


def drug_like_smiles(rng: random.Random) -> str:
    """A drug-sized SMILES (about 20-40 heavy atoms) of ring and chain parts."""
    parts = [rng.choice(("C", "CO", "N", "Cl", "O=C"))]
    for _ in range(rng.randint(5, 9)):
        parts.append(rng.choice(_RING_PARTS if rng.random() < 0.45 else _CHAIN_PARTS))
    parts.append(rng.choice(("C", "O", "N", "C#N", "F")))
    return "".join(parts)


# tracemalloc peak of fingerprint_all per molecule on the molecules below
# (memo, fingerprints and table included), as the implementation that keyed
# level-k environments by (centre, order, identifier, ...) tuples measured it
# on Python 3.11. Keys made of fresh ints exceed it.
TUPLE_KEYED_BYTES_PER_MOLECULE = 1373


def test_fingerprint_all_memory_per_molecule():
    rng = random.Random(29)
    smiles = {f"Compound::PubChem_Compounds:{i}": drug_like_smiles(rng) for i in range(800)}
    g = graph_of(*((c, "GNBR::CMP_BIND::Compound:Gene", "Gene::NCBI:1") for c in smiles))
    g.nodes_of_type("Compound")  # the node set is the graph's, built before the stage
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        table, _ = fingerprint_all(g, smiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(table) == len(smiles)
    assert (peak - base) / len(table) <= TUPLE_KEYED_BYTES_PER_MOLECULE


def test_run_parses_each_smiles_once(tmp_path, monkeypatch):
    """In a run the SMILES filter fingerprints what it parses, and the
    fingerprints stage takes those for the graph the filter returned, only
    for the compounds still in it; the stage alone, on that graph's file,
    parses them again and writes the same table."""
    c1, c2, c3, c4, c5 = (f"Compound::PubChem_Compounds:{i}" for i in range(1, 6))
    bind = "GNBR::CMP_BIND::Compound:Gene"
    rows = [(c1, bind, "Gene::NCBI:1"),
            # c3 has no SMILES, so c2 leaves the graph with its one row
            (c2, "DRUGBANK::ddi-interactor-in::Compound:Compound", c3),
            (c4, bind, "Gene::NCBI:2"), (c5, bind, "Gene::NCBI:3")]
    (tmp_path / "graph.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
    smiles = {c1: "CCO", c2: "c1ccccc1", c4: "C(", c5: "CC(=O)O"}
    (tmp_path / "smiles.tsv").write_text("".join(f"{c}\t{s}\n" for c, s in smiles.items()))
    config = PipelineConfig(triplets=str(tmp_path / "graph.tsv"), out_dir=str(tmp_path / "run"),
                            smiles=str(tmp_path / "smiles.tsv"))
    config.stages = {name: name in ("smiles_filter", "fingerprints") for name in STAGE_NAMES}
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_smiles(text)

    monkeypatch.setattr(enrich, "parse_smiles", counting)
    monkeypatch.setattr(fingerprint, "parse_smiles", counting)
    PipelineRunner(config).run()
    assert sorted(parsed) == sorted(smiles.values())
    table = (tmp_path / "run" / "fingerprints.tsv").read_text()
    assert [line.split("\t")[0] for line in table.splitlines()] == [c1, c5]

    parsed.clear()
    config.out_dir = str(tmp_path / "stage")
    g, _ = load_triplets(tmp_path / "run" / "graph.tsv")
    PipelineRunner(config, stage="fingerprints").run_stage("fingerprints", g)
    assert sorted(parsed) == sorted([smiles[c1], smiles[c5]])
    assert (tmp_path / "stage" / "fingerprints.tsv").read_text() == table

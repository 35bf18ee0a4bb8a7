import random
import tracemalloc
from array import array
from typing import NamedTuple

import pytest
from hypothesis import settings

from kgprep.chem.fingerprint import DEFAULT_NBITS, DEFAULT_RADIUS, Fingerprint, morgan_fingerprint
from kgprep.chem.smiles import parse_smiles
from kgprep.clean import HarmonizationTable
from kgprep.ingest import parse_entity, parse_relation
from kgprep.model import _SORT_ROWS, EntityRef, KnowledgeGraph, RelationRef
from kgprep.pipeline import account
from kgprep.split_audit import TaskSplits, detect_leakage, leak_keys

# Selected in CI with --hypothesis-profile=ci: no per-example deadline, which
# a slow runner can miss on drug-sized molecules, and examples that do not
# change from run to run.
settings.register_profile("ci", deadline=None, derandomize=True)

# The most one bucket's hash table may take: a bucket's rows at 256 B each,
# room for a slot, an int key and an int value. A table of every row takes
# more once the rows number a few buckets' worth.
BUCKET_TABLE_BYTES = _SORT_ROWS * 256

# Shared molecule fixtures: diverse coverage of the supported SMILES subset.
# The first ten are the oracle-equivalence set.
FIXTURE_MOLECULES = [
    "C",
    "CCO",
    "c1ccccc1",
    "CC(=O)O",
    "C1CCCCC1",
    "N#Cc1ccccc1",
    "CC(=O)Oc1ccccc1C(=O)O",
    "[NH4+].[Cl-]",
    "OCC(O)CO",
    "c1ccc2ccccc2c1",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "C=CC=C",
    "CSC",
    "O=C=O",
    "c1ccncc1",
    "Clc1ccccc1",
    "BrCCBr",
    "[13CH4]",
    "C%12CCCCC%12",
]

# Drug-sized molecules (20-40 heavy atoms), whose environments recur.
DRUG_MOLECULES = (
    "CC(=O)Nc1ccc(O)cc1",
    "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "O=C(O)c1cn(C2CC2)c2cc(N3CCNCC3)c(F)cc2c1=O",
    "CCCc1nn(C)c2c(=O)[nH]c(-c3cc(S(=O)(=O)N4CCN(C)CC4)ccc3OCC)nc12",
    "Cc1ccc(NC(=O)c2ccc(CN3CCN(C)CC3)cc2)cc1Nc1nccc(-c2cccnc2)n1",
    "CC(C)c1c(C(=O)Nc2ccccc2)c(-c2ccccc2)c(-c2ccc(F)cc2)n1CC[C@@H](O)C[C@@H](O)CC(=O)O",
    "CN1CC[C@]23c4c5ccc(O)c4O[C@H]2[C@@H](O)C=C[C@H]3[C@H]1C5",
)


def E(text: str):
    return parse_entity(text)


def R(text: str):
    return parse_relation(text)


class Row(NamedTuple):
    """One graph row as refs, as ``KnowledgeGraph(rows)`` takes it."""

    head: EntityRef
    relation: RelationRef
    tail: EntityRef
    line: int


def T(head: str, relation: str, tail: str, line: int = 0) -> Row:
    return Row(E(head), R(relation), E(tail), line)


def rows_of(g: KnowledgeGraph) -> list[Row]:
    """``g``'s rows, in order, read from its columns through its vocabulary."""
    entities, relations = g.vocab.entities, g.vocab.relations
    return [Row(entities[h], relations[r], entities[t], line)
            for h, r, t, line in zip(g.heads, g.relations, g.tails, g.lines)]


def plus(g: KnowledgeGraph, added: list[Row]) -> KnowledgeGraph:
    """``g.plus`` of these rows, their refs interned into ``g``'s vocabulary
    heads first, then relations, then tails, as ``KnowledgeGraph`` does."""
    heads, relations, tails, lines = zip(*added) if added else ((),) * 4
    entity, relation = g.vocab.entities.id_of, g.vocab.relations.id_of
    return g.plus(array("i", map(entity, heads)), array("i", map(relation, relations)),
                  array("i", map(entity, tails)), array("i", lines))


def nodes(g: KnowledgeGraph) -> set[EntityRef]:
    return {g.vocab.entities[e] for e in g.node_ids}


def graph_of(*rows) -> KnowledgeGraph:
    return KnowledgeGraph(T(*row) for row in rows)


def run_stage(name: str, g: KnowledgeGraph, stage):
    """Run ``stage`` (``g -> (graph, details)``) on ``g`` as the pipeline
    runner does: timed, with its rows counted into a StageLog."""
    return account(name, g, lambda: stage(g))


def splits_of(task: str, seed: int, train, valid, test) -> TaskSplits:
    """One seed's splits of given rows, with no context and parts of the
    given sizes: the graph holds the rows where the seed's shuffle deals
    them out as train, valid and test, in the given order."""
    rows, codes = [*train, *valid, *test], b"\x01" * len(train) + b"\x02" * len(valid)
    codes += b"\x03" * len(test)
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    placed, split = [None] * len(rows), bytearray(len(rows))
    for row, code, p in zip(rows, codes, order):
        placed[p], split[p] = row, code
    g = KnowledgeGraph(placed)
    return TaskSplits(task, g, array("i", range(len(g))), [seed], [split], len(train), len(valid))


def leakage_of(
    split: TaskSplits,
    k: int = 0,
    entities: dict[str, str] | None = None,
    relations: HarmonizationTable | None = None,
    include_inverse: bool = True,
):
    """``detect_leakage``'s counts for seed ``split.seeds[k]``, with the
    task's keys built under these tables; an absent table is the identity."""
    keys = leak_keys(split, entities or {}, relations or HarmonizationTable.from_rows([]))
    return detect_leakage(keys, split, include_inverse=include_inverse)[k]


def traced(call) -> tuple[int, int]:
    """What ``call()`` leaves allocated and its tracemalloc peak, both
    counted from the allocations before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return held - base, peak - base


def fresh(g: KnowledgeGraph) -> KnowledgeGraph:
    """``g``'s rows, sharing its columns, with nothing derived yet."""
    return KnowledgeGraph._from_clean(g.vocab, g.heads, g.relations, g.tails, g.lines)


def fingerprint_of(
    smiles: str, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS
) -> Fingerprint:
    return morgan_fingerprint(parse_smiles(smiles), radius, nbits)


def fingerprint_from_hex(text: str, nbits: int = DEFAULT_NBITS) -> Fingerprint:
    return Fingerprint(nbits, int(text, 16))


@pytest.fixture(scope="session")
def many_rows_few_entities() -> KnowledgeGraph:
    """100,000 rows over 470 entities, in random order: a quarter each are
    targets of ppi, drug_repurposing and side_effect, and a quarter context.
    Take ``fresh`` copies: text order and nodes are built once per graph."""
    rng = random.Random(0)
    genes = [f"Gene::NCBI:{i}" for i in range(300)]
    compounds = [f"Compound::DrugBank:DB{i:05d}" for i in range(100)]
    effects = [f"SideEffect::UMLS:C{i}" for i in range(50)]
    diseases = [f"Disease::MESH:D{i}" for i in range(20)]
    kinds = ((genes, "GNBR::B::Gene:Gene", genes),
             (compounds, "GNBR::A+::Compound:Gene", genes),
             (compounds, "SIDER::causes::Compound:SideEffect", effects),
             (genes, "GNBR::L::Gene:Disease", diseases))
    return graph_of(*((rng.choice(heads), relation, rng.choice(tails))
                      for heads, relation, tails in (kinds[i % 4] for i in range(100_000))))


@pytest.fixture
def tiny_graph() -> KnowledgeGraph:
    return graph_of(
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2"),
        ("Gene::NCBI:2", "STRING::Binding::Gene:Gene", "Gene::NCBI:3"),
        ("Compound::PubChem_Compounds:10", "GNBR::B::Compound:Gene", "Gene::NCBI:1"),
    )

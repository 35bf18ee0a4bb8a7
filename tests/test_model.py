import copy
import pickle
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import combinations, compress, islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgprep import ingest, model
from kgprep.corpus import build_corpus
from kgprep.errors import StageError
from kgprep.clean import drop_entity_types
from kgprep.model import EntityRef, KnowledgeGraph, RelationRef, StageLog
from kgprep.normalize import deduplicate

from conftest import (
    BUCKET_TABLE_BYTES, E, R, T, fresh, graph_of, nodes, plus, rows_of, run_stage, traced
)
from oracles import endpoints, is_clean, render


def test_insert_builds_registry():
    g = KnowledgeGraph([T("Gene::NCBI:2157", "GNBR::B::Gene:Gene", "Gene::NCBI:7157")])
    assert len(g) == 1
    assert len(g.node_ids) == 2
    assert Counter(n.entity_type for n in nodes(g)) == {"Gene": 2}


def test_insert_same_triplet_twice_is_multiset():
    t = T("Gene::NCBI:2157", "GNBR::B::Gene:Gene", "Gene::NCBI:7157")
    g = KnowledgeGraph([t, t])
    assert len(g) == 2
    assert len(g.node_ids) == 2


def test_insert_signature_mismatch_rejected():
    mismatched = T("Compound::PubChem_Compounds:5", "GNBR::B::Gene:Gene", "Gene::NCBI:2")
    with pytest.raises(StageError, match="mismatch"):
        KnowledgeGraph([mismatched])


def test_registry_matches_endpoints_after_ops(tiny_graph):
    assert nodes(tiny_graph) == endpoints(rows_of(tiny_graph))
    g2, _ = run_stage("drop_types", tiny_graph, lambda g: drop_entity_types(g, ("Compound",)))
    assert nodes(g2) == endpoints(rows_of(g2))
    g3 = plus(g2, [T("Gene::NCBI:3", "GNBR::B::Gene:Gene", "Gene::NCBI:4")])
    assert nodes(g3) == endpoints(rows_of(g3))
    assert len(g3.node_ids) == 4


def test_registry_built_on_first_use_and_kept_by_insert(tiny_graph):
    g2, _ = run_stage("drop_types", tiny_graph, lambda g: drop_entity_types(g, ()))
    assert g2._nodes is None
    assert E("Gene::NCBI:2") in nodes(g2)
    row = T("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:9")
    g3 = plus(g2, [row])
    assert g3._nodes is not None
    assert E("Gene::NCBI:9") in nodes(g3)
    assert E("Gene::NCBI:9") not in nodes(g2)
    assert len(g2) == len(tiny_graph)
    # a graph whose node set was never built builds its own on first use
    g4 = plus(tiny_graph, [row])
    assert tiny_graph._nodes is None and g4._nodes is None
    assert nodes(g4) == endpoints(rows_of(g4))


def test_plus_extends_a_built_node_set_to_the_rebuilt_one(tiny_graph):
    built = tiny_graph.node_ids
    rows = [
        T("Gene::NCBI:7", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
        T("Compound::PubChem_Compounds:11", "GNBR::B::Compound:Gene", "Gene::NCBI:7"),
        T("Gene::NCBI:8", "GNBR::B::Gene:Gene", "Gene::NCBI:8"),
    ]
    g = plus(tiny_graph, rows)
    assert rows_of(g) == [*rows_of(tiny_graph), *rows]
    assert g._nodes is not None and g._nodes is not built
    assert g.node_ids == fresh(g).node_ids == g.endpoints()
    assert nodes(g) == endpoints(rows_of(g))
    assert tiny_graph.node_ids is built and nodes(tiny_graph) == endpoints(rows_of(tiny_graph))


def test_stage_log_conservation_enforced():
    with pytest.raises(ValueError, match="conservation"):
        StageLog("bad", rows_in=10, rows_removed=2, rows_added=0, rows_out=9)
    log = StageLog("ok", rows_in=10, rows_removed=2, rows_added=1, rows_out=9)
    assert log.rows_out == log.rows_in - log.rows_removed + log.rows_added


def test_entity_cleanliness_flags():
    assert is_clean(E("Disease::MESH:D015658"))
    assert not is_clean(E("Compound::DB01;DB02"))
    assert not is_clean(E("Compound::A|B"))


def test_equal_refs_built_separately_hash_alike():
    a, b = EntityRef("Gene", "NCBI", "7"), EntityRef("Gene", "NCBI", "7")
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert E("Gene::NCBI:7") == a and hash(E("Gene::NCBI:7")) == hash(a)
    r, s = RelationRef("GNBR", "B", "Gene", "Gene"), RelationRef("GNBR", "B", "Gene", "Gene")
    assert r == s and r is not s
    assert hash(r) == hash(s)
    assert len({r, s, r.with_label("B")}) == 1
    assert R("GNBR::B::Gene:Gene") == r and hash(R("GNBR::B::Gene:Gene")) == hash(r)
    assert EntityRef("Gene", "NCBI", "8") != a


def test_text_order_sorts_rendered_tuples_and_insert_drops_it():
    g = graph_of(
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
        ("Gene::NCBI:1\x01", "GNBR::B::Gene:Gene", "Gene::NCBI:3"),
        ("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:3"),
        ("Gene::NCBI:2", "GNBR::B::Gene:Gene", "Gene::NCBI:1"),
    )
    assert list(g.text_order) == [2, 1, 0, 3]
    assert g.text_order is g.text_order
    g2 = plus(g, [T("Gene::NCBI:0", "GNBR::B::Gene:Gene", "Gene::NCBI:1")])
    assert list(g2.text_order) == [4, 2, 1, 0, 3]
    assert list(g.text_order) == [2, 1, 0, 3]


# texts that are prefixes of one another, and non-ASCII and astral code points
_GENES = ("Gene::NCBI:1", "Gene::NCBI:1\x01", "Gene::NCBI:10", "Gene::NCBI:2",
          "Gene::NCBI:\xe9", "Gene::NCBI:\U0001f9ec")
_RELATIONS = ("GNBR::B::Gene:Gene", "GNBR::B::B::Gene:Gene", "GNBR::\xc9::Gene:Gene",
              "GNBR\U0001f9ec::B::Gene:Gene")


@given(rows=st.lists(st.sampled_from(list(product(_GENES, _RELATIONS, _GENES))), max_size=12))
def test_text_order_equals_the_stable_sort_of_rendered_tuples(rows):
    g = graph_of(*rows)
    texts = [(t.head.text, t.relation.text, t.tail.text) for t in rows_of(g)]
    assert list(g.text_order) == sorted(range(len(g)), key=texts.__getitem__)
    # buckets of at most a few rows: many sorts, one order
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", 2)
        assert list(graph_of(*rows).text_order) == list(g.text_order)


def test_text_order_ranks_refs_that_render_alike_as_one():
    # two refs built apart, one text: their rows sort by relation and tail,
    # then position
    a, b = EntityRef("Gene", "NCBI", "1:2"), E("Gene::NCBI:1:2")
    assert a == b and a is not b
    bind, assoc = R("GNBR::B::Gene:Gene"), R("GNBR::A::Gene:Gene")
    g = KnowledgeGraph([(a, bind, a, 0), (b, assoc, a, 0), (b, bind, b, 0),
                        (a, assoc, b, 0), (E("Gene::NCBI:0"), bind, a, 0)])
    assert list(g.text_order) == [4, 1, 3, 0, 2]


# text_order's own memory beyond its 4 B/row result: every row's position
# dealt into buckets (4 B a row, with the arrays' growth slack) and one
# bucket's packed ints, a list slot and an int each
SORT_BUCKET_BYTES = model._SORT_ROWS * 64


def test_text_order_holds_its_buckets_and_one_sort(many_rows_few_entities):
    g = fresh(many_rows_few_entities)
    held, peak = traced(lambda: g.text_order)
    # measured: 20.4 B/row beyond the result with a rank array and a packed
    # triple of every row, 8.6 B/row packing one bucket at a time
    assert held < 5 * len(g)
    assert peak - held <= 5 * len(g) + SORT_BUCKET_BYTES


def test_node_ids_hold_one_slice_of_endpoints_beyond_the_dict(many_rows_few_entities):
    g = fresh(many_rows_few_entities)
    held, peak = traced(lambda: g.node_ids)
    # measured: 8.1 B/row interleaving every row's endpoints, 164 KB for
    # slices of 8,192 rows, 3 KB building the set from the columns directly;
    # the bound is a slice's head, tail and interleaved ids, twice over
    assert len(g.node_ids) == 470
    assert peak - held <= 32 * model._SORT_ROWS


@given(rows=st.lists(st.tuples(st.sampled_from(_GENES), st.sampled_from(_GENES)), max_size=12),
       added=st.lists(st.tuples(st.sampled_from(_GENES), st.sampled_from(_GENES)), max_size=5),
       keep=st.lists(st.booleans(), min_size=12, max_size=12), owned=st.booleans())
def test_endpoints_equal_a_brute_force_set(rows, added, keep, owned):
    triplets = [T(h, "GNBR::B::Gene:Gene", t) for h, t in rows]
    extra = [T(h, "GNBR::B::Gene:Gene", t) for h, t in added]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_SORT_ROWS", 2)
        g = KnowledgeGraph(triplets)
        g = g.owned() if owned else g
        ids = g.vocab.entities.ids
        mask = bytes(keep[: len(g)])
        assert g.endpoints(mask) == {ids[n] for t in compress(rows_of(g), mask)
                                     for n in (t.head, t.tail)}
        assert g.endpoints() == {ids[n] for n in endpoints(triplets)} == g.node_ids
        # a built set that plus extends equals the one its rows rebuild
        grown = plus(g, extra)
        assert grown.node_ids == {ids[n] for n in endpoints([*triplets, *extra])}
        assert grown.node_ids == grown.endpoints()


def test_row_types_are_slotted_and_frozen():
    t = T("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2", line=3)
    for row, name in ((t.head, "local_id"), (t.relation, "label")):
        assert not hasattr(row, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(row, name, getattr(row, name))


def test_row_types_refuse_any_assignment_and_round_trip():
    t = T("Gene::NCBI:1", "GNBR::B::Gene:Gene", "Gene::NCBI:2", line=3)
    for row in (t.head, t.relation):
        for name in ("text", "origin_line", "head", "label", "source", "weight"):
            with pytest.raises(FrozenInstanceError):
                setattr(row, name, 1)
        assert pickle.loads(pickle.dumps(row)) == row and copy.copy(row) == row
    assert t.relation.text == "GNBR::B::Gene:Gene"


@pytest.fixture(scope="module")
def planted_20k(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("planted"), total_rows=20_000, seed=0)


def test_loaded_rows_stay_cheap(planted_20k):
    tracemalloc.start()
    try:
        g, _ = ingest.load_triplets(planted_20k.triplets)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: 167 B/row when each row object has a __dict__, 124 B/row
    # slotted, 44 B/row as id columns and a vocabulary
    assert held / len(g) <= 50


def test_dedup_needs_little_memory_beyond_its_output(planted_20k):
    g, _ = ingest.load_triplets(planted_20k.triplets)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out, _ = deduplicate(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: 95 B/row keyed on text tuples in one table, 37 B/row keyed
    # on packed id pairs in one table per label
    assert (peak - base) / len(g) <= 45


# per row, dedup's arrays: 8 B of packed keys, 4 of positions dealt into
# buckets, a flag byte, the mark kept or dropped, and their growth slack
DEDUP_ARRAY_BYTES = 20


def test_dedup_tables_hold_one_bucket_of_a_one_label_graph():
    # every pair is new, so one table of the label's keys holds every row:
    # measured 151 B/row that way, 21 B/row with a table per bucket
    genes = [f"Gene::NCBI:{i}" for i in range(450)]
    n = 100_000
    g = graph_of(*((h, "GNBR::B::Gene:Gene", t) for h, t in islice(combinations(genes, 2), n)))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out, details = deduplicate(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == n and details == {"exact_duplicates": 0, "reversed_duplicates": 0}
    assert peak - base <= DEDUP_ARRAY_BYTES * n + BUCKET_TABLE_BYTES


# rows drawn from the pools above, with their file lines
_ROWS = st.lists(
    st.tuples(st.sampled_from(_GENES), st.sampled_from(_RELATIONS), st.sampled_from(_GENES),
              st.integers(-1, 10**6)),
    max_size=40,
)


def _read(rows) -> list:
    return [(*render(t), t.line) for t in rows]


@given(rows=_ROWS, extra=_ROWS, keep=st.lists(st.booleans(), min_size=40, max_size=40),
       renamed=st.permutations(_GENES))
def test_column_graph_equals_its_list_definition(rows, extra, keep, renamed):
    triplets = [T(h, r, t, line) for h, r, t, line in rows]
    added = [T(h, r, t, line) for h, r, t, line in extra]
    g = KnowledgeGraph(triplets)
    fresh = plus(g, added)
    assert _read(rows_of(g)) == _read(triplets)
    assert nodes(g) == endpoints(triplets)

    # scattered rows, then long runs of them
    for mask in (keep, [keep[i // 10] for i in range(40)], sorted(keep)):
        kept = list(compress(triplets, mask))
        masked = g.where(bytes(mask[: len(g)]))
        assert _read(rows_of(masked)) == _read(kept)
    assert nodes(masked) == endpoints(kept)  # built, so plus extends it
    both = plus(masked, added)
    assert _read(rows_of(both)) == _read([*kept, *added])
    assert nodes(both) == endpoints([*kept, *added])
    assert fresh._nodes is None and nodes(fresh) == endpoints([*triplets, *added])

    rename = dict(zip(_GENES, renamed))
    table = [g.vocab.entities.id_of(E(rename[e.text])) for e in list(g.vocab.entities)]
    mapped = g.mapped(entity=table)
    assert [(rename[h], r, rename[t]) for h, r, t, _ in rows] == [render(t) for t in rows_of(mapped)]
    assert mapped.lines is g.lines and mapped.relations is g.relations
    assert {masked.vocab, both.vocab, fresh.vocab, mapped.vocab} == {g.vocab}

"""Independent brute-force oracles, written before the engines they check.

Each oracle favors the most literal possible computation (recursive expansion,
exhaustive pairwise comparison, repeated substitution) over anything shared
with the production code paths.
"""

from __future__ import annotations

import functools
import json
import random
import struct
import sys
from pathlib import Path
from typing import NamedTuple

# --- circular-fingerprint environment enumerator ---------------------------
#
# Identifier contract (fixed here first, engine must match):
#   seed(atom)  = FNV1a64( b"A" + u8 len(elem) + elem utf-8 + u8 degree
#                          + u16le hydrogens + i16le charge
#                          + u8 aromatic + u8 in_ring )
#   step(a, k)  = seed(a)                                  if k == 0
#               = step(a, k-1)                             if degree(a) == 0
#               = FNV1a64( b"E" + u64le step(a, k-1)
#                          + concat(u8 code + u64le step(nbr, k-1))
#                            over neighbors sorted by (code, step(nbr, k-1)) )
#   bond order codes: single 1, double 2, triple 3, aromatic 4.
# Environment identifiers are the set of step(a, k) over all atoms and all
# k in 0..radius; each sets bit (identifier mod nbits).

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64_reference(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _seed_reference(atom) -> int:
    elem = atom.element.encode("utf-8")
    payload = (
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
    return fnv1a64_reference(payload)


def environment_id_recursive(mol, atom_idx: int, level: int) -> int:
    """Identifier of one atom environment, by full recursive expansion of the
    neighborhood tree (no memoization, recomputed from scratch per call)."""
    if level == 0:
        return _seed_reference(mol.atoms[atom_idx])
    incident = [
        (b.b if b.a == atom_idx else b.a, b.order)
        for b in mol.bonds
        if atom_idx in (b.a, b.b)
    ]
    prev = environment_id_recursive(mol, atom_idx, level - 1)
    if not incident:
        return prev
    pairs = sorted(
        (order, environment_id_recursive(mol, nbr, level - 1))
        for nbr, order in incident
    )
    payload = b"E" + struct.pack("<Q", prev)
    for order, nbr_id in pairs:
        payload += struct.pack("<BQ", order, nbr_id)
    return fnv1a64_reference(payload)


def enumerate_environment_ids(mol, radius: int) -> set[int]:
    """All environment identifiers for radii 0..radius, brute force."""
    ids: set[int] = set()
    for level in range(radius + 1):
        for idx in range(len(mol.atoms)):
            ids.add(environment_id_recursive(mol, idx, level))
    return ids


def fingerprint_bits_bruteforce(mol, radius: int, nbits: int) -> set[int]:
    return {ident % nbits for ident in enumerate_environment_ids(mol, radius)}


def ring_flags_bruteforce(mol) -> list[bool]:
    """Per atom, whether it lies on a ring, by definition: removing one of
    its bonds leaves that bond's endpoints connected."""
    in_ring = [False] * len(mol.atoms)
    for removed in mol.bonds:
        adjacent: dict[int, list[int]] = {}
        for bond in mol.bonds:
            if bond is not removed:
                adjacent.setdefault(bond.a, []).append(bond.b)
                adjacent.setdefault(bond.b, []).append(bond.a)
        reached = {removed.a}
        frontier = [removed.a]
        while frontier:
            for nbr in adjacent.get(frontier.pop(), ()):
                if nbr not in reached:
                    reached.add(nbr)
                    frontier.append(nbr)
        if removed.b in reached:
            in_ring[removed.a] = in_ring[removed.b] = True
    return in_ring


# --- leakage: exhaustive pairwise comparison --------------------------------
#
# A triplet is its (head, relation, tail) texts, as a split file holds them;
# a relation text is origin::label::HeadType:TailType. ``relation_map`` keys
# are (origin, label, head type, tail type), as in the harmonization table:
# origin and label match case-insensitively, endpoint types exactly.


@functools.cache
def _relation_fields(relation: str) -> tuple[str, str, str, str]:
    """(origin, label, head type, tail type) of a relation text."""
    parts = relation.split("::")
    head_type, tail_type = parts[-1].split(":")
    return parts[0], "::".join(parts[1:-1]), head_type, tail_type


def _canon_entity(text: str, entity_map: dict[str, str]) -> str:
    return entity_map.get(text, text)


def _casefolded(relation_map: dict) -> dict:
    return {(o.casefold(), l.casefold(), h, t): c for (o, l, h, t), c in relation_map.items()}


def _canon_relation(relation: str, folded_map: dict, canonical_labels: set[str]):
    """Already-canonical labels are fixed points; mapped keys compare by
    canonical label; everything else compares as the raw (origin, label)."""
    origin, label, head_type, tail_type = _relation_fields(relation)
    if label in canonical_labels:
        return ("label", label)
    key = (origin.casefold(), label.casefold(), head_type, tail_type)
    if key in folded_map:
        return ("label", folded_map[key])
    return ("raw", origin, label)


def leaked_count_bruteforce(
    train: list[tuple[str, str, str]],
    eval_split: list[tuple[str, str, str]],
    entity_map: dict[str, str],
    relation_map: dict[tuple[str, str, str, str], str],
    detector: str,
    include_inverse: bool = True,
    canonical_labels: set[str] | None = None,
) -> int:
    """Count eval triplets with a matching train triplet, comparing every pair.

    Entity and relation texts absent from the maps canonicalize to
    themselves; ``canonical_labels`` defaults to the map's values.
    """
    canon_set = (
        set(relation_map.values()) if canonical_labels is None else canonical_labels
    )
    folded = _casefolded(relation_map)

    def pair_leaks(ev, tr) -> bool:
        h, r, t = ev
        h2, r2, t2 = tr
        straight = (h2 == h and t2 == t)
        inverted = include_inverse and (h2 == t and t2 == h)
        if detector == "duplicate_inverse":
            return _relation_fields(r2)[:2] == _relation_fields(r)[:2] and (straight or inverted)
        canon_eq = _canon_relation(r2, folded, canon_set) == _canon_relation(r, folded, canon_set)
        if detector == "relation_redundancy":
            return canon_eq and (straight or inverted)
        if detector == "entity_redundancy":
            ch, ct = _canon_entity(h, entity_map), _canon_entity(t, entity_map)
            ch2, ct2 = _canon_entity(h2, entity_map), _canon_entity(t2, entity_map)
            c_straight = (ch2 == ch and ct2 == ct)
            c_inverted = include_inverse and (ch2 == ct and ct2 == ch)
            return canon_eq and (c_straight or c_inverted)
        raise ValueError(f"unknown detector {detector}")

    if detector == "any":
        dets = ("duplicate_inverse", "relation_redundancy", "entity_redundancy")
        return sum(
            1
            for ev in eval_split
            if any(
                leaked_count_bruteforce(
                    train, [ev], entity_map, relation_map, d, include_inverse, canon_set
                )
                for d in dets
            )
        )
    return sum(1 for ev in eval_split if any(pair_leaks(ev, tr) for tr in train))


def leaked_count_hashed(
    train: list[tuple[str, str, str]],
    eval_split: list[tuple[str, str, str]],
    entity_map: dict[str, str],
    relation_map: dict[tuple[str, str, str, str], str],
    detector: str,
    include_inverse: bool = True,
    canonical_labels: set[str] | None = None,
) -> int:
    """``leaked_count_bruteforce`` through one set of canonical text keys per
    detector: a key is (head, relation, tail) after the detector's
    canonicalization, and an eval triplet leaks when its key, or with
    ``include_inverse`` its key with head and tail swapped, is a train
    triplet's key. Linear in the rows, so it runs at sizes the pairwise
    count cannot."""
    canon_set = (
        set(relation_map.values()) if canonical_labels is None else canonical_labels
    )
    folded = _casefolded(relation_map)

    def key(triplet, det: str) -> tuple:
        h, r, t = triplet
        if det == "duplicate_inverse":
            return h, _relation_fields(r)[:2], t
        if det == "relation_redundancy":
            return h, _canon_relation(r, folded, canon_set), t
        return (_canon_entity(h, entity_map), _canon_relation(r, folded, canon_set),
                _canon_entity(t, entity_map))

    dets = LEAK_DETECTORS[:3] if detector == "any" else (detector,)
    seen = {det: {key(tr, det) for tr in train} for det in dets}

    def leaks(ev) -> bool:
        for det in dets:
            h, r, t = key(ev, det)
            if (h, r, t) in seen[det] or include_inverse and (t, r, h) in seen[det]:
                return True
        return False

    return sum(map(leaks, eval_split))


# --- id-map fixed point by repeated substitution ----------------------------


def resolve_by_substitution(mapping: dict, max_rounds: int = 10_000) -> dict:
    """Collapse chains by rewriting values until nothing changes. Raises
    ValueError on a cycle: odd cycles never stabilize, and even cycles
    stabilize only onto self-maps, which an acyclic chain can never produce
    (inputs must not contain explicit self-maps)."""
    current = dict(mapping)
    for _ in range(max_rounds):
        nxt = {k: current.get(v, v) for k, v in current.items()}
        if nxt == current:
            if any(k == v for k, v in current.items()):
                raise ValueError("no fixed point: mapping contains a cycle")
            return current
        current = nxt
    raise ValueError("no fixed point: mapping contains a cycle")


# --- dedup: first occurrence by scanning every kept row ----------------------


def dedup_by_scan(rows: list[tuple[str, str, str]], same_type_only: bool = False):
    """``(kept rows, exact, reversed)`` for rows given as (head, relation,
    tail) texts: each row is compared with every row kept before it, and is
    dropped at the first kept row with its relation label and its endpoints,
    in the same order (exact) or swapped (reversed). With
    ``same_type_only`` a swapped match counts only when the row's two
    endpoints have one type."""
    kept, exact, reversed_ = [], 0, 0
    for h, r, t in rows:
        label = _relation_fields(r)[1]
        for h2, r2, t2 in kept:
            if _relation_fields(r2)[1] != label:
                continue
            if (h2, t2) == (h, t):
                exact += 1
                break
            if (h2, t2) == (t, h) and (not same_type_only or h.split("::")[0] == t.split("::")[0]):
                reversed_ += 1
                break
        else:
            kept.append((h, r, t))
    return kept, exact, reversed_


# --- merges: every table row checked against every row so far ---------------


def merge_by_scan(graph, table, kind: str, min_tier: str = "high",
                  compound_map=None, side_effect_map=None):
    """A reactome or OnSIDES merge recomputed on texts: ``(counters, added
    rows as (head, relation, tail, row number), every row endpoint in order
    of first appearance, the number of the first mistyped row or None)``.
    ``graph`` holds (head, relation, tail) texts; ``table`` holds (gene,
    pathway) or (compound, side effect, tier) texts, numbered from 1. An
    OnSIDES row below ``min_tier`` is skipped; its ids go through the maps.
    A row whose head is no endpoint of a graph row or of a row added before
    it is skipped; a present row whose endpoint types are not the merge's
    stops the merge; a row whose pair of endpoints a graph row or added row
    already joins is skipped, where for reactome only GENE_PATHWAY rows
    count."""
    reactome = kind == "reactome"
    if reactome:
        relation, types = "Reactome::GENE_PATHWAY::Gene:Pathway", ("Gene", "Pathway")
        counts = {}
    else:
        relation, types = "OnSIDES::SIDE_EFFECT::Compound:SideEffect", ("Compound", "SideEffect")
        counts = {"skipped_below_confidence": 0}
    counts.update(skipped_endpoint_absent=0, skipped_duplicate=0)
    tiers = ["low", "medium", "high"]
    added = []
    for row_no, row in enumerate(table, start=1):
        if reactome:
            head, tail = row
        else:
            head, tail, tier = row
            if tiers.index(tier) < tiers.index(min_tier):
                counts["skipped_below_confidence"] += 1
                continue
            head = (compound_map or {}).get(head, head)
            tail = (side_effect_map or {}).get(tail, tail)
        rows = list(graph) + [(h, r, t) for h, r, t, _ in added]
        if not any(head in (h, t) for h, _, t in rows):
            counts["skipped_endpoint_absent"] += 1
            continue
        if (head.split("::")[0], tail.split("::")[0]) != types:
            return None, None, None, row_no
        if any({h, t} == {head, tail} and (not reactome or r.split("::")[1] == "GENE_PATHWAY")
               for h, r, t in rows):
            counts["skipped_duplicate"] += 1
            continue
        added.append((head, relation, tail, row_no))
    before = {e for h, _, t in graph for e in (h, t)}
    counts["edges_added"] = len(added)
    counts["pathway_nodes_added" if reactome else "side_effect_nodes_added"] = len(
        {t for _, _, t, _ in added} - before
    )
    nodes = []
    for h, _, t, *_ in [*graph, *added]:
        for node in (h, t):
            if node not in nodes:
                nodes.append(node)
    return counts, added, nodes, None


# --- splits: the per-seed recipe --------------------------------------------


def splits_by_rescan(triplets, endpoint_types, seed: int):
    """(train, valid, test, context) for one seed, recomputed from scratch:
    scan every row, shuffle a copy of the target rows, cut 70/10/20 with the
    valid and test sizes floored."""
    target, context = [], []
    for t in triplets:
        is_target = {t.head.entity_type, t.tail.entity_type} == set(endpoint_types)
        (target if is_target else context).append(t)
    shuffled = list(target)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_valid, n_test = n // 10, n // 5
    n_train = n - n_valid - n_test
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_valid],
        shuffled[n_train + n_valid :],
        context,
    )


def split_file_texts(parts, preserve_order: bool) -> dict[str, str]:
    """File name -> content for one seed's (train, valid, test, context):
    every file rendered on its own and, unless preserve_order, sorted by the
    (head, relation, tail) text tuple."""
    files = {}
    for name, rows in zip(("train", "valid", "test", "context"), parts):
        rendered = [(t.head.text, t.relation.text, t.tail.text) for t in rows]
        if not preserve_order:
            rendered.sort()
        files[f"{name}.tsv"] = "".join(f"{h}\t{r}\t{tl}\n" for h, r, tl in rendered)
    return files


# --- reading results through their public fields -----------------------------


def render(t) -> tuple[str, str, str]:
    """A triplet's (head, relation, tail) texts."""
    return (t.head.text, t.relation.text, t.tail.text)


def endpoints(rows) -> list:
    """The rows' heads and tails in order of first appearance."""
    seen = set()
    out = []
    for t in rows:
        for node in (t.head, t.tail):
            if node not in seen:
                seen.add(node)
                out.append(node)
    return out


def is_clean(ref) -> bool:
    """The post-cleaning invariant on an entity: a non-empty local id with
    no ';', '|' or tab."""
    return bool(ref.local_id) and not any(c in ref.local_id for c in ";|\t")


def task_matches(endpoint_types, t) -> bool:
    """Whether a triplet's unordered endpoint types are a task's target."""
    return {t.head.entity_type, t.tail.entity_type} == set(endpoint_types)


def _split_part(split, k: int, start: int, stop: int) -> list:
    """Rows ``start:stop`` of the task's target rows shuffled under seed
    ``split.seeds[k]``, shuffled here rather than read from the plan."""
    # conftest imports the package, which the command-line recounts below run without
    from conftest import rows_of

    order = list(range(len(split.target)))
    random.Random(split.seeds[k]).shuffle(order)
    rows = rows_of(split.graph)
    return [rows[split.target[i]] for i in order[start:stop]]


def split_train(split, k: int) -> list:
    return _split_part(split, k, 0, split.n_train)


def split_valid(split, k: int) -> list:
    return _split_part(split, k, split.n_train, split.n_train + split.n_valid)


def split_test(split, k: int) -> list:
    return _split_part(split, k, split.n_train + split.n_valid, len(split.target))


def split_context(split, k: int) -> list:
    """The graph rows outside the task's target, in graph order; the same
    for every seed ``k``."""
    from conftest import rows_of

    target = set(split.target)
    return [t for p, t in enumerate(rows_of(split.graph)) if p not in target]


def fingerprint_bits(fp) -> frozenset[int]:
    """The set bit indices; index 0 is the most significant bit of ``value``."""
    return frozenset(i for i in range(fp.nbits) if fp.value >> (fp.nbits - 1 - i) & 1)


def block_sizes(manifest) -> dict[str, int]:
    return {category: len(ids) for category, ids in manifest}


def manifest_entities(manifest) -> list:
    """The manifest's entities, block after block: dimension k is the k-th."""
    return [ref for _, ids in manifest for ref in ids]


def reconstruct_edges(manifest, table) -> set[tuple[str, str]]:
    """Invert the feature collapse: the (gene, annotation) pair set the
    vectors encode, reading dimension k as the k-th manifest entity."""
    entities = manifest_entities(manifest)
    return {(gene.text, entities[idx].text) for gene, vector in table.items() for idx in vector}


# --- split aggregation -------------------------------------------------------


def mean_and_population_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var ** 0.5


# --- leakage report recomputed from the split files on disk ------------------

LEAK_DETECTORS = ("duplicate_inverse", "relation_redundancy", "entity_redundancy", "any")


def _read_split_file(path) -> list[tuple[str, str, str]]:
    """A split file's rows as (head, relation, tail) texts."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh]


def leakage_records_from_splits(
    splits_dir,
    tasks,
    seeds,
    entity_map: dict[str, str],
    relation_map: dict[tuple[str, str, str, str], str],
    include_inverse: bool = True,
    canonical_labels: set[str] | None = None,
    count=leaked_count_bruteforce,
) -> list[dict]:
    """The records ``leakage_report.json`` should hold for a run, per task in
    (detector, split pair) order: each seed's train, valid and test files
    read back from ``splits_dir/<task>/seed_<seed>``, each evaluation file's
    leaks counted by ``count`` (by default every evaluation row compared
    with every train row; ``leaked_count_hashed`` for large runs), and the
    ratios, mean and population std computed by hand."""
    records = []
    for task in tasks:
        counts = {}  # (detector, split pair) -> [(leaked, total) per seed]
        for seed in seeds:
            seed_dir = f"{splits_dir}/{task}/seed_{seed}"
            train = _read_split_file(f"{seed_dir}/train.tsv")
            for pair, name in (("train_valid", "valid"), ("train_test", "test")):
                evaluated = _read_split_file(f"{seed_dir}/{name}.tsv")
                for detector in LEAK_DETECTORS:
                    leaked = count(train, evaluated, entity_map, relation_map, detector,
                                   include_inverse, canonical_labels)
                    counts.setdefault((detector, pair), []).append((leaked, len(evaluated)))
        for detector, pair in sorted(counts):
            leaked, total, ratios = [], [], []
            for n, size in counts[(detector, pair)]:
                leaked.append(n)
                total.append(size)
                ratios.append(n / size if size else 0.0)
            mean, std = mean_and_population_std(ratios)
            records.append({
                "task": task,
                "detector": detector,
                "split_pair": pair,
                "leaked": leaked,
                "total": total,
                "ratio": ratios,
                "mean": mean,
                "std": std,
                "seeds": list(seeds),
            })
    return records


# --- a run's audit inputs, read from its config file -------------------------
#
# Written from the README's config reference and entity id grammar, not from
# the package: relative paths are the config file's, an xref file maps its
# first column to its second, both rendered as the split files write them
# (the last row of a key wins, and a compound pair points at the better
# source), chains resolve to their end, and the packaged harmonization table
# applies when the config names none.

COMPOUND_SOURCES = ("PubChem_Compounds", "CHEMBL", "CHEBI", "drugbank", "molport", "zinc")
ENRICHMENT_LABELS = {"GENE_PATHWAY", "SIDE_EFFECT"}
PACKAGED_HARMONIZATION = Path(__file__).parent.parent / "src" / "kgprep" / "data" / "harmonization.tsv"


def _table_rows(path, header: list[str]) -> list[list[str]]:
    """A TSV's rows, without blank and ``#`` lines or a leading header."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]
    return rows[1:] if rows and rows[0] == header else rows


# the README's entity id grammar: category spellings with spaces, and the
# source an id that names none gets
TYPE_SPELLINGS = {
    "Biological Process": "BiologicalProcess",
    "Cellular Component": "CellularComponent",
    "Molecular Function": "MolecularFunction",
    "Side Effect": "SideEffect",
    "Pharmacologic Class": "PharmacologicClass",
}
ONE_SOURCE = {
    "Anatomy": "UBERON", "Atc": "drugbank", "BiologicalProcess": "GO", "CellularComponent": "GO",
    "Gene": "NCBI", "MolecularFunction": "GO", "Pathway": "Reactome",
    "PharmacologicClass": "ndfrt", "SideEffect": "umls", "Symptom": "MESH", "Tax": "NCBI",
}
COMPOUND_PREFIXES = (("CHEMBL", "CHEMBL"), ("CHEBI", "CHEBI"), ("ZINC", "zinc"), ("MOLPORT", "molport"))


def _inferred_source(category: str, local: str) -> str:
    if category == "Compound":
        if local.startswith("DB") and local[2:3].isdecimal():
            return "drugbank"
        if local.isdecimal():
            return "PubChem_Compounds"
        for prefix, source in COMPOUND_PREFIXES:
            if local.upper().startswith(prefix):
                return source
        return "unknown"
    if category == "Disease":
        if local.upper().startswith("DOID"):
            return "DOID"
        if local.isdecimal():
            return "OMIM"
        if local[:1] in ("C", "D") and local[1:].isdecimal():
            return "MESH"
        return "unknown"
    return ONE_SOURCE.get(category, "unknown")


def rendered_id(text: str) -> str:
    """An entity id as the outputs write it: ``type::source:local_id``, the
    category spaceless and, where the id names no source, the inferred one."""
    category, _, rest = text.partition("::")
    category = TYPE_SPELLINGS.get(category.strip(), category.strip())
    source, sep, local = rest.partition(":")
    if not sep:
        source, local = _inferred_source(category, rest), rest
    return f"{category}::{source}:{local}"


def _source_rank(text: str) -> int:
    source = text.split("::", 1)[1].split(":", 1)[0]
    return COMPOUND_SOURCES.index(source) if source in COMPOUND_SOURCES else len(COMPOUND_SOURCES)


def audit_inputs(config_path) -> dict:
    """``leakage_records_from_splits``' keyword arguments for a run of the
    config file at ``config_path``, apart from the split directory."""
    base = Path(config_path).parent
    cfg = {}
    with open(config_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.lstrip().startswith("#"):
                name, _, value = line.partition("=")
                cfg[name.strip()] = value.strip()
    entity_map = {}
    for kind in ("compound", "disease", "gene", "sideeffect"):
        if f"inputs.{kind}_xref" not in cfg:
            continue
        mapping = {}
        rows = dict(_table_rows(base / cfg[f"inputs.{kind}_xref"], ["from_id", "to_id"]))
        for old, new in rows.items():
            old, new = rendered_id(old), rendered_id(new)
            if kind == "compound" and _source_rank(new) > _source_rank(old):
                old, new = new, old
            if old != new:
                mapping[old] = new
        entity_map.update(resolve_by_substitution(mapping))
    table = base / cfg["inputs.harmonization"] if "inputs.harmonization" in cfg else (
        PACKAGED_HARMONIZATION)
    header = ["origin", "label", "head_type", "tail_type", "canonical_label"]
    relation_map = {(origin, label, *(TYPE_SPELLINGS.get(t, t) for t in types)): canonical
                    for origin, label, *types, canonical in _table_rows(table, header)}
    return {
        "tasks": cfg.get("split.tasks", "ppi,drug_repurposing,side_effect").split(","),
        "seeds": [int(s) for s in cfg.get("split.seeds", "0,1,2,3,4").split(",")],
        "entity_map": entity_map,
        "relation_map": relation_map,
        "include_inverse": cfg.get("audit.include_inverse", "true") == "true",
        "canonical_labels": set(relation_map.values()) | ENRICHMENT_LABELS,
    }


def leakage_mismatches(report: list[dict], expected: list[dict]) -> list[str]:
    """One line per (task, detector, split pair) whose leaked or total
    counts differ between a run's report and a recomputed one."""
    def cells(records):
        return {(r["task"], r["detector"], r["split_pair"]): (r["leaked"], r["total"])
                for r in records}

    got, want = cells(report), cells(expected)
    return [f"{cell}: got {got.get(cell)}, want {want.get(cell)}"
            for cell in sorted(got.keys() | want.keys()) if got.get(cell) != want.get(cell)]


# --- planted-defect corpus counters ------------------------------------------
#
# (stage, counter in stats.json, PlantedCounts field). A counter is a field of
# the stage's own entry or a key of its "details"; stage "final" reads the
# output graph's totals.

PLANTED_COUNTERS = (
    ("ingest", "rows_out", "total_rows"),
    ("filter_malformed", "semicolon_rows", "semicolon_rows"),
    ("filter_malformed", "pipe_rows", "pipe_rows"),
    ("harmonize", "labels_rewritten", "harmonize_rewrites"),
    ("remove_nonhuman", "banned_relation_rows", "virus_rows"),
    ("remove_nonhuman", "nonhuman_gene_rows", "nonhuman_gene_rows"),
    ("remove_nonhuman", "nonhuman_genes_removed", "nonhuman_genes"),
    ("drop_types", "rows_removed", "drop_rows"),
    ("drop_types", "nodes_removed", "drop_nodes"),
    ("remap", "compound_ids_merged", "compound_ids_merged"),
    ("remap", "disease_ids_merged", "disease_ids_merged"),
    ("remap", "gene_ids_merged", "gene_ids_merged"),
    ("remap", "endpoints_rewritten", "endpoints_rewritten"),
    ("dedup", "exact_duplicates", "exact_duplicates"),
    ("dedup", "reversed_duplicates", "reversed_duplicates"),
    ("reactome", "edges_added", "reactome_edges"),
    ("reactome", "pathway_nodes_added", "reactome_pathways"),
    ("reactome", "skipped_endpoint_absent", "reactome_skipped_absent"),
    ("onsides", "edges_added", "onsides_added"),
    ("onsides", "skipped_below_confidence", "onsides_below_confidence"),
    ("onsides", "skipped_endpoint_absent", "onsides_absent"),
    ("onsides", "skipped_duplicate", "onsides_duplicate"),
    ("smiles_filter", "compounds_missing", "smiles_missing_compounds"),
    ("smiles_filter", "compounds_unparseable", "smiles_unparseable_compounds"),
    ("smiles_filter", "edges_removed", "smiles_edges_removed"),
    ("fingerprints", "fingerprints_generated", "fingerprints"),
    ("features", "annotation_nodes_removed", "feature_nodes"),
    ("features", "rows_removed", "feature_edges_removed"),
    ("final", "edges", "final_edges"),
    ("final", "nodes", "final_nodes"),
)


def planted_mismatches(stats: dict, expected: dict) -> list[str]:
    """One line per planted counter that ``stats`` (a ``stats.json`` object)
    reports differently from ``expected`` (a ``PlantedCounts`` as a dict)."""
    stages = {entry["stage"]: entry for entry in stats["stages"]}
    mismatches = []
    for stage, counter, field in PLANTED_COUNTERS:
        if stage == "final":
            got = stats[counter]["total"]
        else:
            entry = stages[stage]
            got = entry[counter] if counter in entry else entry["details"][counter]
        if got != expected[field]:
            mismatches.append(f"{stage}.{counter}: got {got}, want {expected[field]}")
    return mismatches


# --- a run's split files recomputed from its graph file -----------------------
#
# Each task's target: the README's endpoint type set of its rows.

TASK_ENDPOINT_TYPES = {
    "ppi": {"Gene"},
    "drug_repurposing": {"Compound", "Gene"},
    "side_effect": {"Compound", "SideEffect"},
}


class _Text(NamedTuple):
    """What ``splits_by_rescan`` and ``split_file_texts`` read of an entity
    or relation: its text and, for an entity, its type."""

    text: str
    entity_type: str | None = None


class _Row(NamedTuple):
    head: _Text
    relation: _Text
    tail: _Text


def _graph_rows(path) -> list[_Row]:
    """A graph file's rows in file order; an entity's type is its text
    before ``::``."""
    return [_Row(_Text(h, h.partition("::")[0]), _Text(r), _Text(t, t.partition("::")[0]))
            for h, r, t in _read_split_file(path)]


def _check_splits(config_path, out_dir) -> int:
    """Compare every split file under ``out_dir/splits`` with the per-seed
    recipe run on ``out_dir/graph.tsv``, byte for byte. The run must have
    kept input order (``--preserve-order``), so that the graph file lists
    the rows in the order the splits shuffled them from."""
    inputs, rows = audit_inputs(config_path), _graph_rows(Path(out_dir) / "graph.tsv")
    problems, checked = [], 0
    for task in inputs["tasks"]:
        for seed in inputs["seeds"]:
            parts = splits_by_rescan(rows, TASK_ENDPOINT_TYPES[task], seed)
            seed_dir = Path(out_dir) / "splits" / task / f"seed_{seed}"
            for name, text in split_file_texts(parts, preserve_order=True).items():
                checked += 1
                if (seed_dir / name).read_bytes() != text.encode("utf-8"):
                    problems.append(f"{task} seed {seed} {name}: differs from the recipe")
    print("\n".join(problems) or f"all {checked} split files match")
    return 1 if problems else 0


def _check_leakage(config_path, out_dir) -> int:
    """Compare ``out_dir/leakage_report.json`` with the hashed recompute of
    the split files under ``out_dir/splits``."""
    with open(Path(out_dir) / "leakage_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    inputs = audit_inputs(config_path)
    expected = leakage_records_from_splits(
        Path(out_dir) / "splits", **inputs, count=leaked_count_hashed
    )
    problems = leakage_mismatches(report, expected)
    print("\n".join(problems) or f"all {len(expected)} leakage records match")
    return 1 if problems else 0


if __name__ == "__main__":
    # python tests/oracles.py STATS_JSON EXPECTED_COUNTS_JSON
    # python tests/oracles.py leakage CONFIG OUT_DIR
    # python tests/oracles.py splits CONFIG OUT_DIR  (a --preserve-order run)
    if sys.argv[1] == "leakage":
        sys.exit(_check_leakage(*sys.argv[2:]))
    if sys.argv[1] == "splits":
        sys.exit(_check_splits(*sys.argv[2:]))
    stats_path, expected_path = sys.argv[1:]
    with open(stats_path, encoding="utf-8") as fh:
        run_stats = json.load(fh)
    with open(expected_path, encoding="utf-8") as fh:
        planted = json.load(fh)
    problems = planted_mismatches(run_stats, planted)
    print("\n".join(problems) or f"all {len(PLANTED_COUNTERS)} planted counters match")
    sys.exit(1 if problems else 0)

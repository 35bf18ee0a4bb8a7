"""Independent brute-force oracles, written before the engines they check.

Each oracle favors the most literal possible computation (recursive expansion,
exhaustive pairwise comparison, repeated substitution) over anything shared
with the production code paths.
"""

from __future__ import annotations

import json
import random
import struct
import sys

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


def _canon_entity(text: str, entity_map: dict[str, str]) -> str:
    return entity_map.get(text, text)


def _canon_relation(
    origin: str,
    label: str,
    relation_map: dict[tuple[str, str], str],
    canonical_labels: set[str],
):
    """Already-canonical labels are fixed points; mapped keys compare by
    canonical label; everything else compares as the raw (origin, label)."""
    if label in canonical_labels:
        return ("label", label)
    if (origin, label) in relation_map:
        return ("label", relation_map[(origin, label)])
    return ("raw", origin, label)


def leaked_count_bruteforce(
    train: list[tuple[str, str, str, str]],
    eval_split: list[tuple[str, str, str, str]],
    entity_map: dict[str, str],
    relation_map: dict[tuple[str, str], str],
    detector: str,
    include_inverse: bool = True,
    canonical_labels: set[str] | None = None,
) -> int:
    """Count eval triplets with a matching train triplet, comparing every pair.

    Triplets are (head_text, origin, label, tail_text). ``relation_map`` keys
    are (origin, label) pairs mapping to canonical labels; entity and relation
    texts absent from the maps canonicalize to themselves.
    """
    canon_set = (
        set(relation_map.values()) if canonical_labels is None else canonical_labels
    )

    def pair_leaks(ev, tr) -> bool:
        h, o, l, t = ev
        h2, o2, l2, t2 = tr
        straight = (h2 == h and t2 == t)
        inverted = include_inverse and (h2 == t and t2 == h)
        if detector == "duplicate_inverse":
            return (o2, l2) == (o, l) and (straight or inverted)
        canon_eq = _canon_relation(o2, l2, relation_map, canon_set) == _canon_relation(
            o, l, relation_map, canon_set
        )
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


def endpoints(g) -> list:
    """A graph's heads and tails in order of first appearance."""
    seen = set()
    out = []
    for t in g:
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
    return [split.graph.row(split.target[i]) for i in list(split.orders[k])[start:stop]]


def split_train(split, k: int) -> list:
    return _split_part(split, k, 0, split.n_train)


def split_valid(split, k: int) -> list:
    return _split_part(split, k, split.n_train, split.n_train + split.n_valid)


def split_test(split, k: int) -> list:
    return _split_part(split, k, split.n_train + split.n_valid, len(split.target))


def split_context(split, k: int) -> list:
    """The graph rows outside the task's target, in graph order; the same
    for every seed ``k``."""
    target = set(split.target)
    return [t for p, t in enumerate(split.graph) if p not in target]


def fingerprint_bits(fp) -> frozenset[int]:
    """The set bit indices; index 0 is the most significant bit of ``value``."""
    return frozenset(i for i in range(fp.nbits) if fp.value >> (fp.nbits - 1 - i) & 1)


def block_sizes(manifest) -> dict[str, int]:
    return {category: len(ids) for category, ids in manifest.blocks}


def reconstruct_edges(manifest, table) -> set[tuple[str, str]]:
    """Invert the feature collapse: the (gene, annotation) pair set the
    vectors encode, reading dimension k as the k-th manifest entity."""
    entities = [ref for _, ids in manifest.blocks for ref in ids]
    return {
        (gene.text, entities[idx].text)
        for gene, vector in table.items()
        for idx in vector.set_indices
    }


# --- split aggregation -------------------------------------------------------


def mean_and_population_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var ** 0.5


# --- leakage report recomputed from the split files on disk ------------------

LEAK_DETECTORS = ("duplicate_inverse", "relation_redundancy", "entity_redundancy", "any")


def _read_split_file(path) -> list[tuple[str, str, str, str]]:
    """A split file's rows as (head, origin, label, tail) texts."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            head, relation, tail = line.rstrip("\n").split("\t")
            parts = relation.split("::")
            rows.append((head, parts[0], "::".join(parts[1:-1]), tail))
    return rows


def leakage_records_from_splits(
    splits_dir,
    tasks,
    seeds,
    entity_map: dict[str, str],
    relation_map: dict[tuple[str, str], str],
    include_inverse: bool = True,
) -> list[dict]:
    """The records ``leakage_report.json`` should hold for a run, per task in
    (detector, split pair) order: each seed's train, valid and test files
    read back from ``splits_dir/<task>/seed_<seed>``, every evaluation row
    compared with every train row, and the ratios, mean and population std
    computed by hand."""
    records = []
    for task in tasks:
        counts = {}  # (detector, split pair) -> [(leaked, total) per seed]
        for seed in seeds:
            seed_dir = f"{splits_dir}/{task}/seed_{seed}"
            train = _read_split_file(f"{seed_dir}/train.tsv")
            for pair, name in (("train_valid", "valid"), ("train_test", "test")):
                evaluated = _read_split_file(f"{seed_dir}/{name}.tsv")
                for detector in LEAK_DETECTORS:
                    leaked = leaked_count_bruteforce(
                        train, evaluated, entity_map, relation_map, detector, include_inverse
                    )
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


if __name__ == "__main__":
    # python tests/oracles.py STATS_JSON EXPECTED_COUNTS_JSON
    stats_path, expected_path = sys.argv[1:]
    with open(stats_path, encoding="utf-8") as fh:
        run_stats = json.load(fh)
    with open(expected_path, encoding="utf-8") as fh:
        planted = json.load(fh)
    problems = planted_mismatches(run_stats, planted)
    print("\n".join(problems) or f"all {len(PLANTED_COUNTERS)} planted counters match")
    sys.exit(1 if problems else 0)

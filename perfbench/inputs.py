"""Generate one benchmark workload's inputs from a seed.

    python3 perfbench/inputs.py WORKLOAD SEED DIR

Writes the input files under ``DIR/input`` and ``DIR/workload.json``: the
config path, the number of raw rows and, for ``planted-100k``, the exact
counters the planted defects imply. The benchmark runs this in its own
process so that the harness stays small: on Linux a child's peak RSS starts
from the peak of the process that spawned it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import drkg_shape

PLANTED_ROWS = 100_000
DRKG_SCALE = 0.1
DRKG_ROWS = 100_000

# (stage, counter in stats.json, PlantedCounts field); a counter is a
# top-level stage field or a key of its "details".
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


def planted(seed: int, inputs: Path) -> dict:
    """The repo's own planted-defect corpus, with per-stage validation off."""
    from kgprep.corpus import build_corpus

    corpus = build_corpus(inputs, total_rows=PLANTED_ROWS, seed=seed)
    text = corpus.config.read_text(encoding="utf-8")
    corpus.config.write_text(
        text.replace("debug.validate = true", "debug.validate = false"), encoding="utf-8"
    )
    expected = [
        [stage, key, getattr(corpus.expected, attr)]
        for stage, key, attr in PLANTED_COUNTERS
    ]
    return {"config": str(corpus.config), "rows": PLANTED_ROWS, "expected": expected}


def drkg(name: str, seed: int, inputs: Path) -> dict:
    drkg_shape.generate(inputs, seed=seed, scale=DRKG_SCALE, rows=DRKG_ROWS)
    config = inputs / ("drkg.cfg" if name == "drkg-shape" else "split_audit.cfg")
    return {"config": str(config), "rows": DRKG_ROWS, "expected": []}


def main() -> int:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    inputs = work / "input"
    if name == "planted-100k":
        meta = planted(seed, inputs)
    elif name in ("drkg-shape", "split-audit"):
        meta = drkg(name, seed, inputs)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    (work / "workload.json").write_text(json.dumps(meta), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Synthetic triplet-corpus builder with planted, exactly counted defects.

Generates a DRKG-style triplet file plus every auxiliary table the pipeline
consumes, together with the exact per-stage removal/addition counts implied
by construction. Defect classes are planted on disjoint row sets and row
keys are reserved in post-standardization space, so each planted count maps
to exactly one stage counter. The bookkeeping here is deliberately
independent of the pipeline modules: the builder carries its own label
catalog, its own id-canonicalization maps and its own duplicate keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# The fixed id pools hold corpora up to this many rows: at that size the
# filler draws about 93% of the tightest key space (compound-disease
# TREATMENT, 120 x 60 pairs). Larger corpora multiply the gene, compound and
# disease pools by ceil(total_rows / FIXED_POOL_ROWS); smaller ones keep the
# fixed pools, so their output does not depend on this rule.
FIXED_POOL_ROWS = 100_000
# Ids added by a grown pool start here, above every fixed id.
GROWN_ID_BASE = 1_000_000

# raw relation catalog: (origin, label, head_type, tail_type, canonical label)
# canonical == label means the pipeline's harmonization passes it through.
_REL = {
    "gg_bind": ("GNBR", "B", "Gene", "Gene", "GENE_BIND"),
    "gg_string": ("STRING", "Binding", "Gene", "Gene", "GENE_BIND"),
    "gg_hetionet": ("Hetionet", "GiG", "Gene", "Gene", "GENE_BIND"),
    "gg_reaction": ("STRING", "Reaction", "Gene", "Gene", "Reaction"),
    "gg_regulation": ("GNBR", "Rg", "Gene", "Gene", "Regulation"),
    "cg_bind": ("GNBR", "B", "Compound", "Gene", "CMP_BIND"),
    "cg_agonist": ("DGIdb", "Agonist", "Compound", "Gene", "Activator"),
    "cg_down": ("Hetionet", "CdG", "Compound", "Gene", "DOWNREGULATION"),
    "cg_target": ("DRUGBANK", "Target", "Compound", "Gene", "CMP_BIND"),
    "cg_k": ("GNBR", "K", "Compound", "Gene", "K"),
    "cd_treats": ("Hetionet", "CtD", "Compound", "Disease", "TREATMENT"),
    "cd_t": ("GNBR", "T", "Compound", "Disease", "TREATMENT"),
    "cd_j": ("GNBR", "J", "Compound", "Disease", "J_c"),
    "dg_j": ("GNBR", "J", "Gene", "Disease", "J_g"),
    "dg_md": ("GNBR", "Md", "Gene", "Disease", "Md"),
    "cc_ddi": ("DRUGBANK", "ddi-interactor-in", "Compound", "Compound", "ddi-interactor-in"),
    "cse": ("Hetionet", "CcSE", "Compound", "SideEffect", "CcSE"),
    "ds": ("Hetionet", "DpS", "Disease", "Symptom", "DpS"),
    "ag": ("Hetionet", "AeG", "Anatomy", "Gene", "AeG"),
    "dla": ("Hetionet", "DlA", "Disease", "Anatomy", "DlA"),
    "gtax": ("bioarx", "GeneTax", "Gene", "Tax", "GeneTax"),
    "gpw": ("Hetionet", "GpPW", "Gene", "Pathway", "GpPW"),
    "gmf": ("Hetionet", "GpMF", "Gene", "MolecularFunction", "GpMF"),
    "gbp": ("Hetionet", "GpBP", "Gene", "BiologicalProcess", "GpBP"),
    "gcc": ("Hetionet", "GpCC", "Gene", "CellularComponent", "GpCC"),
    "vir_gg": ("bioarx", "VirGenHumGen", "Gene", "Gene", None),
    "vir_cg": ("bioarx", "DrugVirGen", "Compound", "Gene", None),
}

_VALID_SMILES = [
    "C", "CC", "CCO", "CCN", "CCC", "C=C", "C#N", "CC(=O)O", "CC(C)O",
    "c1ccccc1", "Cc1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCOC1",
    "CC(=O)Oc1ccccc1C(=O)O", "CC(C)Cc1ccc(cc1)C(C)C(=O)O", "Clc1ccccc1",
    "BrCCBr", "OCC(O)CO", "CSC", "O=C=O", "N#Cc1ccccc1", "CNC", "COC",
    "CCOCC", "C1CC1", "CCCl", "FC(F)F", "CN1CCCC1",
]

_BROKEN_SMILES = ["C(", "C)(", "C1CC", "C[Xx]", "C==C"]


@dataclass
class PlantedCounts:
    """Exact per-stage expectations implied by corpus construction."""

    total_rows: int = 0
    semicolon_rows: int = 0
    pipe_rows: int = 0
    harmonize_rewrites: int = 0
    virus_rows: int = 0
    nonhuman_gene_rows: int = 0
    nonhuman_genes: int = 0
    drop_rows: int = 0
    drop_nodes: int = 0
    drop_nodes_by_type: dict[str, int] = field(default_factory=dict)
    compound_ids_merged: int = 0
    disease_ids_merged: int = 0
    gene_ids_merged: int = 0
    endpoints_rewritten: int = 0
    exact_duplicates: int = 0
    reversed_duplicates: int = 0
    reactome_edges: int = 0
    reactome_pathways: int = 0
    reactome_skipped_absent: int = 0
    onsides_added: int = 0
    onsides_below_confidence: int = 0
    onsides_absent: int = 0
    onsides_duplicate: int = 0
    smiles_missing_compounds: int = 0
    smiles_unparseable_compounds: int = 0
    smiles_edges_removed: int = 0
    fingerprints: int = 0
    feature_nodes: int = 0
    feature_dim: int = 0
    feature_edges_removed: int = 0
    final_edges: int = 0
    final_nodes: int = 0


@dataclass
class SyntheticCorpus:
    root: Path
    triplets: Path
    taxonomy: Path
    compound_xref: Path
    disease_xref: Path
    gene_xref: Path
    sideeffect_xref: Path
    reactome: Path
    onsides: Path
    smiles: Path
    config: Path
    expected: PlantedCounts


def _pool(template: str, first: int, size: int, scale: int) -> list[str]:
    """``size`` fixed ids, then ``size * (scale - 1)`` grown ones."""
    ids = [template.format(first + i) for i in range(size)]
    ids += [template.format(GROWN_ID_BASE + i) for i in range(size * (scale - 1))]
    return ids


@dataclass
class _Row:
    head: str  # canonical rendered text
    rel: str  # catalog key
    tail: str
    fate: str  # stage at which the row leaves the graph, or "final"/"annotation"
    emit_head: str | None = None  # raw text to write when different
    emit_tail: str | None = None


class _Builder:
    def __init__(self, total_rows: int, seed: int):
        self.total = total_rows
        self.rng = random.Random(seed)
        self.rows: list[_Row] = []
        self.used: set[tuple[str, str, str]] = set()
        self.remap: dict[str, str] = {}  # redundant id text -> canonical text
        self.expected = PlantedCounts()
        # id pools
        scale = max(1, math.ceil(total_rows / FIXED_POOL_ROWS))
        self.genes = _pool("Gene::NCBI:{}", 1000, 400, scale)
        self.compounds = _pool("Compound::PubChem_Compounds:{}", 10000, 120, scale)
        self.diseases = _pool("Disease::MESH:D{}", 100000, 60, scale)
        self.side_effects = [f"SideEffect::umls:C{700000 + i}" for i in range(40)]
        self.anatomy = [f"Anatomy::UBERON:{2000 + i}" for i in range(10)]
        self.symptoms = [f"Symptom::MESH:D{900000 + i}" for i in range(12)]
        self.taxa = [f"Tax::NCBI:{9606 + i}" for i in range(3)]
        self.raw_pathways = [f"Pathway::KEGG:hsa{10 + i}" for i in range(25)]
        self.mf = [f"MolecularFunction::GO:{360000 + i}" for i in range(15)]
        self.bp = [f"BiologicalProcess::GO:{820000 + i}" for i in range(25)]
        self.cc = [f"CellularComponent::GO:{560000 + i}" for i in range(10)]
        self.nonhuman_genes = [f"Gene::NCBI:{90000 + i}" for i in range(12)]
        self.virus_genes = [f"Gene::NCBI:{888000 + i}" for i in range(25)]
        self.smiless = [f"Compound::PubChem_Compounds:{30000 + i}" for i in range(20)]
        self.unparseable = [f"Compound::PubChem_Compounds:{31000 + i}" for i in range(5)]

    # --- bookkeeping helpers ----------------------------------------------

    def _canon(self, text: str) -> str:
        return self.remap.get(text, text)

    def _key(self, head: str, rel_key: str, tail: str) -> tuple[str, str, str]:
        origin, label, _, _, canonical = _REL[rel_key]
        canon_label = canonical if canonical is not None else label
        h, t = self._canon(head), self._canon(tail)
        if t < h:
            h, t = t, h
        return (h, canon_label, t)

    def add(
        self,
        head: str,
        rel_key: str,
        tail: str,
        fate: str,
        register: bool = True,
        emit_head: str | None = None,
        emit_tail: str | None = None,
    ) -> _Row:
        if register:
            key = self._key(head, rel_key, tail)
            if key in self.used:
                raise AssertionError(f"corpus collision on {key}")
            self.used.add(key)
        row = _Row(head, rel_key, tail, fate, emit_head, emit_tail)
        self.rows.append(row)
        return row

    def pick_unused_pair(self, rel_key: str, heads: list[str], tails: list[str]):
        """Random endpoint pair whose canonical key is still free; ValueError
        once no key of ``heads x tails`` is free."""
        misses = 0
        while True:
            head = self.rng.choice(heads)
            tail = self.rng.choice(tails)
            if head != tail and self._key(head, rel_key, tail) not in self.used:
                return head, tail
            misses += 1
            if misses == len(heads) * len(tails) and not any(
                h != t and self._key(h, rel_key, t) not in self.used
                for h in heads
                for t in tails
            ):
                raise ValueError(
                    f"corpus: no free {rel_key} key left for {len(heads)} head "
                    f"x {len(tails)} tail ids"
                )

    def maybe_strip_source(self, text: str) -> str:
        """Sometimes emit the source-less spelling the ingest stage must
        standardize (only where inference recovers the same source)."""
        if self.rng.random() > 0.2:
            return text
        for prefix in ("Gene::NCBI:", "Compound::PubChem_Compounds:", "Disease::MESH:"):
            if text.startswith(prefix):
                etype = prefix.split(":", 1)[0]
                return f"{etype}::{text[len(prefix):]}"
        return text

    # --- planting ----------------------------------------------------------

    def plant_remap_tables(self):
        exp = self.expected
        # 20 plain CHEMBL ids -> fresh PubChem canonicals
        self.compound_redundant: list[str] = []
        for i in range(20):
            src = f"Compound::CHEMBL:CHEMBL{5000 + i}"
            dst = f"Compound::PubChem_Compounds:{20000 + i}"
            self.remap[src] = dst
            self.compound_redundant.append(src)
        # 5 chains CHEBI -> CHEMBL -> PubChem (both links occur in rows)
        self.compound_xref_rows: list[tuple[str, str]] = [
            (src, dst) for src, dst in list(self.remap.items())
        ]
        for i in range(5):
            chebi = f"Compound::CHEBI:{40000 + i}"
            chembl = f"Compound::CHEMBL:CHEMBL{6000 + i}"
            pubchem = f"Compound::PubChem_Compounds:{21000 + i}"
            self.compound_xref_rows.append((chebi, chembl))
            self.compound_xref_rows.append((chembl, pubchem))
            self.remap[chebi] = pubchem
            self.remap[chembl] = pubchem
            self.compound_redundant.extend([chebi, chembl])
        # a few rows written against the preference direction; the loader
        # must orient them toward the preferred source
        flipped = self.compound_xref_rows[:5]
        self.compound_xref_rows[:5] = [(b, a) for a, b in flipped]
        exp.compound_ids_merged = len(self.compound_redundant)

        self.disease_redundant = []
        self.disease_xref_rows = []
        for i in range(10):
            src = f"Disease::OMIM:{600000 + i}"
            dst = self.diseases[i]
            self.remap[src] = dst
            self.disease_redundant.append(src)
            self.disease_xref_rows.append((src, dst))
        exp.disease_ids_merged = 10

        self.gene_redundant = []
        self.gene_xref_rows = []
        for i in range(8):
            src = f"Gene::drugbank:BE{1000 + i}"
            dst = self.genes[i]
            self.remap[src] = dst
            self.gene_redundant.append(src)
            self.gene_xref_rows.append((src, dst))
        exp.gene_ids_merged = 8

        self.se_redundant = []
        self.se_xref_rows = []
        for i in range(5):
            src = f"SideEffect::umls:C{990000 + i}"
            dst = self.side_effects[i]
            self.remap[src] = dst
            self.se_redundant.append(src)
            self.se_xref_rows.append((src, dst))

    def plant_malformed(self):
        exp = self.expected
        for i in range(25):
            gene = self.rng.choice(self.genes)
            head = f"Compound::DB{100 + i};DB{200 + i}"
            self.add(head, "cg_bind", gene, "malformed", register=False)
        exp.semicolon_rows = 25
        for i in range(15):
            gene = self.rng.choice(self.genes)
            head = f"Compound::DB{300 + i}|DB{400 + i}"
            self.add(head, "cg_bind", gene, "malformed", register=False)
        exp.pipe_rows = 15

    def plant_virus(self):
        for i in range(25):
            self.add(self.virus_genes[i], "vir_gg", self.rng.choice(self.genes), "virus")
        for i in range(15):
            head, tail = self.pick_unused_pair("vir_cg", self.compounds, self.genes)
            self.add(head, "vir_cg", tail, "virus")
        self.expected.virus_rows = 40

    def plant_nonhuman(self):
        rows = 0
        for i, gene in enumerate(self.nonhuman_genes):
            partner = self.genes[50 + i]
            self.add(gene, "gg_bind", partner, "nonhuman")
            rows += 1
        for i in range(6):  # extra incident rows on the first 6 non-human genes
            head, tail = self.pick_unused_pair(
                "gg_string", [self.nonhuman_genes[i]], self.genes
            )
            self.add(head, "gg_string", tail, "nonhuman")
            rows += 1
        self.expected.nonhuman_gene_rows = rows
        self.expected.nonhuman_genes = len(self.nonhuman_genes)

    def plant_droppable(self):
        exp = self.expected
        for i, tax in enumerate(self.taxa):
            self.add(self.genes[100 + i], "gtax", tax, "drop_type")
        for i, symptom in enumerate(self.symptoms):
            self.add(self.diseases[i % len(self.diseases)], "ds", symptom, "drop_type")
        pathway_rows = 0
        for i, pathway in enumerate(self.raw_pathways):
            width = 3 if i < 5 else 2  # 5*3 + 20*2 = 55 rows
            for j in range(width):
                gene = self.genes[(137 * i + 41 * j) % len(self.genes)]
                self.add(gene, "gpw", pathway, "drop_type")
                pathway_rows += 1
        exp.drop_rows = len(self.taxa) + len(self.symptoms) + pathway_rows
        exp.drop_nodes = len(self.taxa) + len(self.symptoms) + len(self.raw_pathways)
        exp.drop_nodes_by_type = {
            "Tax": len(self.taxa),
            "Symptom": len(self.symptoms),
            "Pathway": len(self.raw_pathways),
        }

    def plant_redundant_id_rows(self):
        # every redundant id occurs in at least one surviving row
        slots = 0
        for i, rid in enumerate(self.compound_redundant):  # 30 ids
            head, tail = self.pick_unused_pair("cg_bind", [rid], self.genes)
            self.add(head, "cg_bind", tail, "final")
            slots += 1
        for rid in self.compound_redundant[:15]:  # 15 extra rows, 45 total
            head, tail = self.pick_unused_pair("cd_treats", [rid], self.diseases)
            self.add(head, "cd_treats", tail, "final")
            slots += 1
        for rid in self.disease_redundant:  # 10 rows
            head, tail = self.pick_unused_pair("dg_j", self.genes, [rid])
            self.add(head, "dg_j", tail, "final")
            slots += 1
        for rid in self.disease_redundant[:2]:  # 2 extra, 12 total
            head, tail = self.pick_unused_pair("cd_j", self.compounds, [rid])
            self.add(head, "cd_j", tail, "final")
            slots += 1
        for rid in self.gene_redundant:  # 8 rows
            head, tail = self.pick_unused_pair("gg_regulation", [rid], self.genes[200:])
            self.add(head, "gg_regulation", tail, "final")
            slots += 1
        for rid in self.gene_redundant[:2]:  # 2 extra, 10 total
            head, tail = self.pick_unused_pair("ag", self.anatomy, [rid])
            self.add(head, "ag", tail, "final")
            slots += 1
        self.expected.endpoints_rewritten = slots

    def plant_smiless(self):
        rows = 0
        for compound in self.smiless + self.unparseable:
            for rel_key, tails in (("cg_down", self.genes), ("cd_t", self.diseases)):
                head, tail = self.pick_unused_pair(rel_key, [compound], tails)
                self.add(head, rel_key, tail, "smiles")
                rows += 1
        exp = self.expected
        exp.smiles_missing_compounds = len(self.smiless)
        exp.smiles_unparseable_compounds = len(self.unparseable)
        exp.smiles_edges_removed = rows

    def plant_annotations(self):
        # 120 gene-annotation rows: 15 MF + 25 BP + 10 CC nodes, reused genes
        plan = [("gmf", self.mf, 30), ("gbp", self.bp, 60), ("gcc", self.cc, 30)]
        rows = 0
        for rel_key, pool, count in plan:
            for i in range(count):
                node = pool[i % len(pool)]
                head, tail = self.pick_unused_pair(rel_key, self.genes, [node])
                self.add(head, rel_key, tail, "annotation")
                rows += 1
        self.go_rows = rows

    def plant_structured_extras(self):
        self.cse_pairs: list[tuple[str, str]] = []
        for _ in range(60):
            head, tail = self.pick_unused_pair("cse", self.compounds, self.side_effects)
            self.add(head, "cse", tail, "final")
            self.cse_pairs.append((head, tail))
        for _ in range(30):
            head, tail = self.pick_unused_pair("cc_ddi", self.compounds, self.compounds)
            self.add(head, "cc_ddi", tail, "final")
        for _ in range(20):
            head, tail = self.pick_unused_pair("ag", self.anatomy, self.genes)
            self.add(head, "ag", tail, "final")
        for _ in range(8):
            head, tail = self.pick_unused_pair("dla", self.diseases, self.anatomy)
            self.add(head, "dla", tail, "final")
        for _ in range(30):
            head, tail = self.pick_unused_pair("dg_md", self.genes, self.diseases)
            self.add(head, "dg_md", tail, "final")
        for _ in range(40):
            head, tail = self.pick_unused_pair("cd_j", self.compounds, self.diseases)
            self.add(head, "cd_j", tail, "final")

    def plant_filler(self, budget: int):
        gg = int(budget * 0.70)
        cg = int(budget * 0.20)
        cd = budget - gg - cg
        for rel_pool, count, heads, tails in (
            (["gg_bind", "gg_string", "gg_hetionet", "gg_reaction", "gg_regulation"], gg,
             self.genes, self.genes),
            (["cg_bind", "cg_agonist", "cg_down", "cg_target", "cg_k"], cg,
             self.compounds, self.genes),
            (["cd_treats", "cd_t", "cd_j"], cd, self.compounds, self.diseases),
        ):
            for _ in range(count):
                rel_key = self.rng.choice(rel_pool)
                head, tail = self.pick_unused_pair(rel_key, heads, tails)
                self.add(head, rel_key, tail, "final")

    def plant_duplicates(self):
        # duplicate targets: final-fate rows that survive every earlier stage
        candidates = [
            r for r in self.rows
            if r.fate == "final" and not self._touches_redundant(r)
        ]
        gg_candidates = [r for r in candidates if r.rel.startswith("gg_")]
        self.rng.shuffle(candidates)
        self.rng.shuffle(gg_candidates)
        exact_targets = candidates[:60]
        taken = {id(r) for r in exact_targets}
        reversed_targets = [r for r in gg_candidates if id(r) not in taken][:40]
        for r in exact_targets:
            self.add(r.head, r.rel, r.tail, "dup_exact", register=False)
        for r in reversed_targets:
            self.add(r.tail, r.rel, r.head, "dup_reversed", register=False)
        self.expected.exact_duplicates = 60
        self.expected.reversed_duplicates = 40

    def _touches_redundant(self, row: _Row) -> bool:
        return row.head in self.remap or row.tail in self.remap

    # --- auxiliary tables ----------------------------------------------------

    def _present_in_final(self, entity_prefix: str) -> list[str]:
        """Node texts of one category guaranteed present through the whole
        pipeline (they appear in final-fate rows)."""
        present = set()
        for row in self.rows:
            if row.fate != "final":
                continue
            for text in (self._canon(row.head), self._canon(row.tail)):
                if text.startswith(entity_prefix):
                    present.add(text)
        return sorted(present)

    def build_reactome(self):
        self.reactome_pathways = [f"Pathway::Reactome:R-HSA-{100 + i}" for i in range(20)]
        genes = self._present_in_final("Gene::")
        rows: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        gene_i = 0
        for i in range(45):
            while True:
                pair = (genes[gene_i % len(genes)], self.reactome_pathways[i % 20])
                gene_i += 1
                if pair not in seen:
                    break
            seen.add(pair)
            rows.append(pair)
        for i in range(5):
            rows.append((f"Gene::NCBI:{777000 + i}", self.reactome_pathways[i]))
        self.rng.shuffle(rows)
        self.reactome_rows = rows
        exp = self.expected
        exp.reactome_edges = 45
        exp.reactome_pathways = 20
        exp.reactome_skipped_absent = 5

    def build_onsides(self):
        rows: list[tuple[str, str, str]] = []
        added_pairs: set[tuple[str, str]] = set()
        existing = {(self._canon(c), self._canon(s)) for c, s in self.cse_pairs}
        compounds = self._present_in_final("Compound::")

        def fresh_pair():
            while True:
                c = self.rng.choice(compounds)
                s = self.rng.choice(self.side_effects)
                if (c, s) not in existing and (c, s) not in added_pairs:
                    return c, s

        for _ in range(80):
            c, s = fresh_pair()
            added_pairs.add((c, s))
            rows.append((c, s, "high"))
        # 5 rows through redundant ids; they standardize then insert
        for i in range(5):
            redundant_se = self.se_redundant[i]
            canonical_se = self.remap[redundant_se]
            while True:
                c = self.rng.choice(compounds)
                if (c, canonical_se) not in existing and (c, canonical_se) not in added_pairs:
                    break
            added_pairs.add((c, canonical_se))
            rows.append((c, redundant_se, "high"))
        for c, s in self.rng.sample(self.cse_pairs, 15):
            rows.append((c, s, "high"))  # suppressed: pair already in graph
        for _ in range(20):
            rows.append((self.rng.choice(compounds), self.rng.choice(self.side_effects), "medium"))
        for _ in range(10):
            rows.append((self.rng.choice(compounds), self.rng.choice(self.side_effects), "low"))
        for i in range(10):
            rows.append((
                f"Compound::PubChem_Compounds:{660000 + i}",
                self.rng.choice(self.side_effects),
                "high",
            ))
        self.rng.shuffle(rows)
        self.onsides_rows = rows
        self.onsides_added_pairs = added_pairs
        exp = self.expected
        exp.onsides_added = 85
        exp.onsides_below_confidence = 30
        exp.onsides_absent = 10
        exp.onsides_duplicate = 15

    def build_smiles_dict(self):
        surviving = set()
        for row in self.rows:
            if row.fate in ("final", "annotation", "smiles", "dup_exact", "dup_reversed"):
                for text in (self._canon(row.head), self._canon(row.tail)):
                    if text.startswith("Compound::"):
                        surviving.add(text)
        entries = {}
        for i, compound in enumerate(sorted(surviving)):
            if compound in self.smiless:
                continue
            if compound in self.unparseable:
                entries[compound] = _BROKEN_SMILES[
                    self.unparseable.index(compound) % len(_BROKEN_SMILES)
                ]
            else:
                entries[compound] = _VALID_SMILES[i % len(_VALID_SMILES)]
        self.smiles_entries = entries

    def build_taxonomy(self):
        rows = [(g, "mouse" if i % 2 else "virus") for i, g in enumerate(self.nonhuman_genes)]
        rows += [(g, "human") for g in self.genes[:30]]
        self.taxonomy_rows = rows

    # --- final accounting ------------------------------------------------------

    def finish_accounting(self):
        exp = self.expected
        exp.total_rows = len(self.rows)
        exp.harmonize_rewrites = sum(
            1
            for r in self.rows
            if r.fate != "malformed"
            and _REL[r.rel][4] is not None
            and _REL[r.rel][4] != _REL[r.rel][1]
        )
        exp.feature_nodes = len(self.mf) + len(self.bp) + len(self.cc) + exp.reactome_pathways
        exp.feature_dim = exp.feature_nodes
        exp.feature_edges_removed = self.go_rows + exp.reactome_edges

        final_nodes: set[str] = set()
        final_rows = 0
        for row in self.rows:
            if row.fate != "final":
                continue
            final_rows += 1
            final_nodes.add(self._canon(row.head))
            final_nodes.add(self._canon(row.tail))
        for c, s in self.onsides_added_pairs:
            final_nodes.add(c)
            final_nodes.add(s)
        exp.final_edges = final_rows + exp.onsides_added
        exp.final_nodes = len(final_nodes)
        exp.fingerprints = sum(1 for n in final_nodes if n.startswith("Compound::"))

    # --- build -------------------------------------------------------------

    def build(self) -> None:
        self.plant_remap_tables()
        self.plant_malformed()
        self.plant_virus()
        self.plant_nonhuman()
        self.plant_droppable()
        self.plant_redundant_id_rows()
        self.plant_smiless()
        self.plant_annotations()
        self.plant_structured_extras()
        used_budget = len(self.rows) + 60 + 40  # duplicates come after filler
        self.plant_filler(self.total - used_budget)
        self.plant_duplicates()
        assert len(self.rows) == self.total
        self.build_reactome()
        self.build_onsides()
        self.build_smiles_dict()
        self.build_taxonomy()
        self.finish_accounting()
        self.rng.shuffle(self.rows)


# paths are relative to the config file's own directory
_CONFIG_TEMPLATE = """\
# generated corpus configuration
inputs.triplets = triplets.tsv
inputs.compound_xref = compound_xref.tsv
inputs.disease_xref = disease_xref.tsv
inputs.gene_xref = gene_xref.tsv
inputs.sideeffect_xref = sideeffect_xref.tsv
inputs.taxonomy = taxonomy.tsv
inputs.reactome = reactome.tsv
inputs.onsides = onsides.tsv
inputs.smiles = smiles.tsv
output.dir = out
stages.splits = true
stages.audit = true
split.tasks = ppi,drug_repurposing,side_effect
split.seeds = 0,1,2
"""


def build_corpus(root, total_rows: int = 10_000, seed: int = 7) -> SyntheticCorpus:
    """Write the corpus and auxiliary files under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    builder = _Builder(total_rows, seed)
    builder.build()

    def rel_text(rel_key: str) -> str:
        origin, label, head_t, tail_t, _ = _REL[rel_key]
        return f"{origin}::{label}::{head_t}:{tail_t}"

    triplets = root / "triplets.tsv"
    with triplets.open("w", encoding="utf-8", newline="\n") as fh:
        for row in builder.rows:
            head = row.emit_head or builder.maybe_strip_source(row.head)
            tail = row.emit_tail or builder.maybe_strip_source(row.tail)
            fh.write(f"{head}\t{rel_text(row.rel)}\t{tail}\n")

    def write_pairs(path: Path, pairs) -> Path:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for a, b in pairs:
                fh.write(f"{a}\t{b}\n")
        return path

    taxonomy = write_pairs(root / "taxonomy.tsv", builder.taxonomy_rows)
    compound_xref = write_pairs(root / "compound_xref.tsv", builder.compound_xref_rows)
    disease_xref = write_pairs(root / "disease_xref.tsv", builder.disease_xref_rows)
    gene_xref = write_pairs(root / "gene_xref.tsv", builder.gene_xref_rows)
    sideeffect_xref = write_pairs(root / "sideeffect_xref.tsv", builder.se_xref_rows)
    reactome = write_pairs(root / "reactome.tsv", builder.reactome_rows)
    smiles = write_pairs(root / "smiles.tsv", sorted(builder.smiles_entries.items()))

    onsides = root / "onsides.tsv"
    with onsides.open("w", encoding="utf-8", newline="\n") as fh:
        for c, s, tier in builder.onsides_rows:
            fh.write(f"{c}\t{s}\t{tier}\n")

    config = root / "pipeline.cfg"
    config.write_text(_CONFIG_TEMPLATE, encoding="utf-8")

    return SyntheticCorpus(
        root=root,
        triplets=triplets,
        taxonomy=taxonomy,
        compound_xref=compound_xref,
        disease_xref=disease_xref,
        gene_xref=gene_xref,
        sideeffect_xref=sideeffect_xref,
        reactome=reactome,
        onsides=onsides,
        smiles=smiles,
        config=config,
        expected=builder.expected,
    )

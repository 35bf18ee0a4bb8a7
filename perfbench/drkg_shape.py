"""DRKG-shaped synthetic input for the kgprep benchmark.

Writes a raw triplet TSV with the node-type mix of DRKG (Ioannidis et al.,
2020: 13 types, 97,238 nodes), a gene-heavy relation mix that uses labels
which kgprep's harmonization table treats as synonyms, a heavy-tailed degree
distribution and a small share of planted defects for every cleaning stage.
Next to it go the cross-reference tables (with two-hop chains), a taxonomy,
Reactome and OnSIDES tables and drug-sized SMILES strings, plus two pipeline
configs: ``drkg.cfg`` (default stage toggles) and ``split_audit.cfg`` (only
``splits`` and ``audit``, 3 tasks x 5 seeds).

``scale`` sets node counts as a fraction of DRKG's; ``rows`` sets the number
of triplet rows. Rows are sampled without repeating a canonical
(label, endpoint pair) key, so duplicates are only the planted ones. The same
``(seed, scale, rows)`` always gives the same bytes.

    python3 perfbench/drkg_shape.py --out DIR [--seed N] [--scale F] [--rows N]
"""

from __future__ import annotations

import argparse
import random
from bisect import bisect
from itertools import accumulate
from pathlib import Path

DRKG_NODES = {
    "Gene": 39_220,
    "Compound": 24_313,
    "BiologicalProcess": 11_381,
    "SideEffect": 5_701,
    "Disease": 5_103,
    "Atc": 4_048,
    "MolecularFunction": 2_884,
    "Pathway": 1_822,
    "CellularComponent": 1_391,
    "Symptom": 415,
    "Anatomy": 400,
    "PharmacologicClass": 345,
    "Tax": 215,
}

# Raw type spelling in the triplet file; DRKG writes several with spaces.
RAW_TYPE = {
    "BiologicalProcess": "Biological Process",
    "MolecularFunction": "Molecular Function",
    "CellularComponent": "Cellular Component",
    "PharmacologicClass": "Pharmacologic Class",
    "SideEffect": "Side Effect",
}

# (origin, label, head type, tail type, label after harmonization, weight).
# Weights follow DRKG's edge shares in percent. The canonical label is kept
# here, apart from kgprep's table, so that sampling can avoid keys the dedup
# stage would fold; unmapped labels keep their own text.
RELATIONS = (
    ("STRING", "BINDING", "Gene", "Gene", "GENE_BIND", 6.0),
    ("STRING", "REACTION", "Gene", "Gene", "REACTION", 5.0),
    ("STRING", "CATALYSIS", "Gene", "Gene", "CATALYSIS", 4.0),
    ("STRING", "ACTIVATION", "Gene", "Gene", "ACTIVATION", 2.5),
    ("STRING", "EXPRESSION", "Gene", "Gene", "EXPRESSION", 0.6),
    ("STRING", "OTHER", "Gene", "Gene", "gene_OTHER_gene", 0.8),
    ("Hetionet", "GiG", "Gene", "Gene", "GENE_BIND", 2.6),
    ("Hetionet", "Gr>G", "Gene", "Gene", "Regulation", 4.5),
    ("IntAct", "PHYSICAL ASSOCIATION", "Gene", "Gene", "GENE_BIND", 2.5),
    ("IntAct", "ASSOCIATION", "Gene", "Gene", "GENE_BIND", 1.5),
    ("IntAct", "DIRECT INTERACTION", "Gene", "Gene", "GENE_BIND", 0.3),
    ("GNBR", "Rg", "Gene", "Gene", "Regulation", 0.3),
    ("GNBR", "B", "Gene", "Gene", "GENE_BIND", 0.2),
    ("bioarx", "HumGenHumGen", "Gene", "Gene", "GENE_BIND", 0.2),
    ("DRUGBANK", "ddi-interactor-in", "Compound", "Compound", "ddi-interactor-in", 23.5),
    ("Hetionet", "CrC", "Compound", "Compound", "CrC", 0.1),
    ("Hetionet", "AeG", "Anatomy", "Gene", "AeG", 8.7),
    ("Hetionet", "AuG", "Anatomy", "Gene", "AuG", 1.7),
    ("Hetionet", "AdG", "Anatomy", "Gene", "AdG", 1.8),
    ("Hetionet", "GpBP", "Gene", "BiologicalProcess", "GpBP", 9.5),
    ("Hetionet", "GpMF", "Gene", "MolecularFunction", "GpMF", 1.7),
    ("Hetionet", "GpCC", "Gene", "CellularComponent", "GpCC", 1.3),
    ("Hetionet", "GpPW", "Gene", "Pathway", "GpPW", 1.4),
    ("GNBR", "B", "Compound", "Gene", "CMP_BIND", 0.6),
    ("GNBR", "N", "Compound", "Gene", "DOWNREGULATION", 0.3),
    ("GNBR", "E+", "Gene", "Compound", "UPREGULATION", 0.3),
    ("GNBR", "E-", "Compound", "Gene", "DOWNREGULATION", 0.3),
    ("GNBR", "Z", "Compound", "Gene", "ENZYME", 0.1),
    ("DRUGBANK", "target", "Compound", "Gene", "CMP_BIND", 0.4),
    ("DRUGBANK", "enzyme", "Compound", "Gene", "ENZYME", 0.1),
    ("DGIdb", "INHIBITOR", "Compound", "Gene", "DOWNREGULATION", 0.2),
    ("DGIdb", "ANTAGONIST", "Compound", "Gene", "Blocker", 0.1),
    ("DGIdb", "AGONIST", "Compound", "Gene", "Activator", 0.1),
    ("Hetionet", "CbG", "Compound", "Gene", "CMP_BIND", 0.2),
    ("Hetionet", "CuG", "Compound", "Gene", "UPREGULATION", 0.3),
    ("Hetionet", "CdG", "Compound", "Gene", "DOWNREGULATION", 0.3),
    ("bioarx", "DrugHumGen", "Compound", "Gene", "CMP_BIND", 0.4),
    ("GNBR", "T", "Compound", "Disease", "TREATMENT", 0.9),
    ("GNBR", "J", "Compound", "Disease", "J_c", 0.2),
    ("Hetionet", "CtD", "Compound", "Disease", "TREATMENT", 0.02),
    ("DRUGBANK", "treats", "Compound", "Disease", "TREATMENT", 0.08),
    ("Hetionet", "CpD", "Compound", "Disease", "CpD", 0.02),
    ("GNBR", "J", "Gene", "Disease", "J_g", 0.6),
    ("GNBR", "U", "Gene", "Disease", "U", 0.2),
    ("GNBR", "Md", "Gene", "Disease", "Md", 0.3),
    ("Hetionet", "DaG", "Disease", "Gene", "DaG", 0.2),
    ("Hetionet", "DuG", "Disease", "Gene", "DuG", 0.1),
    ("Hetionet", "DdG", "Disease", "Gene", "DdG", 0.1),
    ("Hetionet", "CcSE", "Compound", "SideEffect", "CcSE", 2.4),
    ("DRUGBANK", "x-atc", "Compound", "Atc", "x-atc", 0.27),
    ("GNBR", "in_tax", "Gene", "Tax", "in_tax", 0.25),
    ("Hetionet", "PCiC", "PharmacologicClass", "Compound", "PCiC", 0.02),
    ("Hetionet", "DpS", "Disease", "Symptom", "DpS", 0.06),
    ("Hetionet", "DlA", "Disease", "Anatomy", "DlA", 0.06),
    ("Hetionet", "DrD", "Disease", "Disease", "DrD", 0.01),
)

VIRUS_RELATIONS = (
    ("bioarx", "VirGenHumGen", "Gene", "Gene"),
    ("bioarx", "DrugVirGen", "Compound", "Gene"),
)

# Shares of the row budget given to planted defects.
SEMICOLON_SHARE = 0.0004
PIPE_SHARE = 0.0003
VIRUS_SHARE = 0.002
EXACT_DUP_SHARE = 0.003
REVERSED_DUP_SHARE = 0.002
NONHUMAN_GENE_SHARE = 0.01
ALIAS_EMIT_PROB = 0.3
ZIPF_EXPONENT = 0.8

_RING_LINKS = (
    "c1ccc(cc1)", "c1ccc(nc1)", "C1CCC(CC1)", "C1CCN(CC1)",
    "c1cc2ccc(cc2cc1)", "c1csc(n1)", "c1cn([nH]1)", "C1CCOC(C1)",
)
_CHAIN_LINKS = (
    "C", "CC", "C(=O)N", "NC(=O)", "O", "OC", "S(=O)(=O)N", "C(=O)O",
    "N", "CN(C)", "C(F)(F)", "C(Cl)", "C(C)(C)", "C=C",
)
_STARTS = ("C", "CC", "CO", "N", "Cl", "F", "COC", "CN", "O=C")
_ENDS = ("C", "O", "N", "C(=O)O", "c1ccccc1", "C#N", "F", "Cl", "C(F)(F)F")
# Strings the SMILES parser rejects: unclosed ring or branch, bad symbol.
_BROKEN_SMILES = ("C1CC(", "c1ccccc", "CC(C(=O)O", "C[Xx]C", "CC==O", "N1CCC2")


def drug_smiles(rng: random.Random) -> str:
    """A drug-sized SMILES (about 20-40 heavy atoms) built from ring and
    chain fragments. Each ring closes inside its fragment, so ring digits
    can repeat."""
    target = rng.randint(20, 40)
    parts = [rng.choice(_STARTS)]
    atoms = 2
    while atoms < target:
        if rng.random() < 0.45:
            frag = rng.choice(_RING_LINKS)
        else:
            frag = rng.choice(_CHAIN_LINKS)
        parts.append(frag)
        atoms += sum(ch.isalpha() and ch not in "lH" for ch in frag)
    parts.append(rng.choice(_ENDS))
    return "".join(parts)


class _Zipf:
    """Heavy-tailed sampler over ``range(n)``; the hub ranks are a random
    permutation so hubs are not the lowest ids."""

    def __init__(self, rng: random.Random, n: int):
        order = list(range(n))
        rng.shuffle(order)
        self.order = order
        self.cum = list(accumulate(1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(n)))
        self.rng = rng

    def pick(self) -> int:
        r = self.rng.random() * self.cum[-1]
        return self.order[min(bisect(self.cum, r), len(self.order) - 1)]


class _Builder:
    def __init__(self, seed: int, scale: float, rows: int):
        self.rng = random.Random(seed)
        self.rows_target = rows
        self.n = {t: max(4, round(c * scale)) for t, c in DRKG_NODES.items()}
        self.zipf = {t: _Zipf(self.rng, n) for t, n in self.n.items()}
        rng = self.rng
        # compounds whose canonical id is PubChem; the others stay DrugBank ids
        self.compound_pubchem = {i for i in range(self.n["Compound"]) if rng.random() < 0.4}
        # (type, index) -> redundant id texts that the xref tables map to it
        self.aliases: dict[tuple[str, int], list[str]] = {}
        self.xref: dict[str, list[tuple[str, str]]] = {
            "Compound": [], "Disease": [], "Gene": [], "SideEffect": []}
        self._plant_aliases()
        self.nonhuman = {
            i for i in range(self.n["Gene"]) if rng.random() < NONHUMAN_GENE_SHARE
        }
        self.keys: set[tuple[str, str, str]] = set()
        self.main: list[tuple[int, tuple[str, int], tuple[str, int]]] = []
        self.lines: list[str] = []

    # --- identifiers ----------------------------------------------------

    def canon(self, etype: str, i: int) -> str:
        """Fully qualified text as kgprep renders the node after remap."""
        if etype == "Gene":
            return f"Gene::NCBI:{100 + 7 * i}"
        if etype == "Compound":
            if i in self.compound_pubchem:
                return f"Compound::PubChem_Compounds:{2000 + 13 * i}"
            return f"Compound::drugbank:DB{i:05d}"
        if etype == "Disease":
            return f"Disease::MESH:D{10_000 + 3 * i:06d}"
        if etype == "SideEffect":
            return f"SideEffect::umls:C{7_000 + 11 * i:07d}"
        return self.raw(etype, i)

    def raw(self, etype: str, i: int) -> str:
        """Text as DRKG writes the node: source often omitted."""
        if etype == "Gene":
            text = self.canon(etype, i)
            return f"Gene::{100 + 7 * i}" if i % 2 else text
        if etype == "Compound":
            if i in self.compound_pubchem:
                return self.canon(etype, i)
            return f"Compound::DB{i:05d}"
        if etype == "Disease":
            return self.canon(etype, i)
        if etype == "SideEffect":
            return f"Side Effect::C{7_000 + 11 * i:07d}"
        if etype == "Anatomy":
            return f"Anatomy::UBERON:{i:07d}"
        if etype == "Atc":
            return f"Atc::A{i // 100:02d}AA{i % 100:02d}"
        if etype in ("BiologicalProcess", "MolecularFunction", "CellularComponent"):
            base = {"BiologicalProcess": 1_000_000, "MolecularFunction": 3_000_000,
                    "CellularComponent": 5_000_000}[etype]
            return f"{RAW_TYPE[etype]}::GO:{base + i:07d}"
        if etype == "PharmacologicClass":
            return f"Pharmacologic Class::N{175_000 + i:010d}"
        if etype == "Pathway":
            return f"Pathway::R-HSA-{100_000 + i}"
        if etype == "Symptom":
            return f"Symptom::D{20_000 + i:06d}"
        if etype == "Tax":
            return f"Tax::{9606 + i}"
        raise ValueError(etype)

    def emit(self, node: tuple[str, int]) -> str:
        aliases = self.aliases.get(node)
        if aliases and self.rng.random() < ALIAS_EMIT_PROB:
            return self.rng.choice(aliases)
        return self.raw(*node)

    def _plant_aliases(self) -> None:
        """Cross-reference rows, including two-hop chains
        (zinc -> drugbank -> PubChem, OMIM -> DOID -> MESH,
        HGNC -> Ensembl -> NCBI)."""
        rng = self.rng
        for i in sorted(self.compound_pubchem):
            db = f"Compound::DB{i:05d}"
            self.xref["Compound"].append((db, self.canon("Compound", i)))
            names = [db]
            if rng.random() < 0.25:
                zinc = f"Compound::ZINC{900_000 + i:09d}"
                self.xref["Compound"].append((zinc, db))
                names.append(zinc)
            self.aliases[("Compound", i)] = names
        for i in range(self.n["Disease"]):
            if rng.random() < 0.3:
                doid = f"Disease::DOID:{50_000 + i}"
                self.xref["Disease"].append((doid, self.canon("Disease", i)))
                names = [doid]
                if rng.random() < 0.3:
                    omim = f"Disease::OMIM:{600_000 + i}"
                    self.xref["Disease"].append((omim, doid))
                    names.append(omim)
                self.aliases[("Disease", i)] = names
        for i in range(self.n["Gene"]):
            if rng.random() < 0.05:
                ens = f"Gene::ENSEMBL:ENSG{i:011d}"
                self.xref["Gene"].append((ens, self.canon("Gene", i)))
                names = [ens]
                if rng.random() < 0.2:
                    hgnc = f"Gene::HGNC:{30_000 + i}"
                    self.xref["Gene"].append((hgnc, ens))
                    names.append(hgnc)
                self.aliases[("Gene", i)] = names
        self.side_effect_alias = {}
        for i in range(self.n["SideEffect"]):
            if rng.random() < 0.2:
                meddra = f"SideEffect::MedDRA:{10_000_000 + i}"
                self.xref["SideEffect"].append((meddra, self.canon("SideEffect", i)))
                self.side_effect_alias[i] = meddra

    # --- rows -----------------------------------------------------------

    def relation_text(self, rel) -> str:
        origin, label, head_t, tail_t = rel[:4]
        return f"{origin}::{label}::{RAW_TYPE.get(head_t, head_t)}:{RAW_TYPE.get(tail_t, tail_t)}"

    def try_add(self, rel_idx: int, head: tuple[str, int], tail: tuple[str, int]) -> bool:
        if head == tail:
            return False
        h, t = self.canon(*head), self.canon(*tail)
        if t < h:
            h, t = t, h
        key = (h, RELATIONS[rel_idx][4], t)
        if key in self.keys:
            return False
        self.keys.add(key)
        self.main.append((rel_idx, head, tail))
        return True

    def sample(self, rel_idx: int, fixed: tuple[str, int] | None = None, fixed_head=True) -> None:
        """Add one row of the relation; retry a few times on a key collision."""
        _, _, head_t, tail_t, _, _ = RELATIONS[rel_idx]
        for _ in range(20):
            head = (head_t, self.zipf[head_t].pick())
            tail = (tail_t, self.zipf[tail_t].pick())
            if fixed is not None:
                if fixed_head:
                    head = fixed
                else:
                    tail = fixed
            if self.try_add(rel_idx, head, tail):
                return

    def build_main(self, budget: int) -> None:
        rng = self.rng
        weights = [r[5] for r in RELATIONS]
        by_type: dict[str, list[int]] = {}
        for idx, rel in enumerate(RELATIONS):
            by_type.setdefault(rel[2], []).append(idx)
            by_type.setdefault(rel[3], []).append(idx)
        # every node gets at least one edge, as in DRKG
        for etype, n in self.n.items():
            rels = by_type[etype]
            rel_weights = [RELATIONS[r][5] for r in rels]
            for i in range(n):
                rel_idx = rng.choices(rels, rel_weights)[0]
                self.sample(rel_idx, (etype, i), fixed_head=RELATIONS[rel_idx][2] == etype)
        cum = list(accumulate(weights))
        while len(self.main) < budget:
            self.sample(bisect(cum, rng.random() * cum[-1]))
        del self.main[budget:]

    def render_main(self) -> None:
        for rel_idx, head, tail in self.main:
            rel = self.relation_text(RELATIONS[rel_idx])
            self.lines.append(f"{self.emit(head)}\t{rel}\t{self.emit(tail)}")

    def plant_defects(self, counts: dict[str, int]) -> None:
        rng = self.rng
        gene_gene = [i for i, r in enumerate(RELATIONS) if r[2] == r[3] == "Gene"]
        for k in range(counts["semicolon"]):
            h = self.raw("Gene", self.zipf["Gene"].pick())
            rel = self.relation_text(RELATIONS[rng.choice(gene_gene)])
            self.lines.append(f"{h};{500_000 + k}\t{rel}\t{self.raw('Gene', k)}")
        compound_gene = self.relation_text(("GNBR", "B", "Compound", "Gene"))
        for k in range(counts["pipe"]):
            c = f"Compound::DB{k:05d}|DB{90_000 + k:05d}"
            self.lines.append(f"{c}\t{compound_gene}\t{self.raw('Gene', k)}")
        for k in range(counts["virus"]):
            rel = VIRUS_RELATIONS[k % 2]
            virus_gene = f"Gene::SARS-CoV2-{k % 29}"
            if rel[2] == "Gene":
                head = virus_gene
            else:
                head = self.raw("Compound", self.zipf["Compound"].pick())
            tail = self.raw("Gene", self.zipf["Gene"].pick())
            self.lines.append(f"{head}\t{self.relation_text(rel)}\t{tail}")
        same_type = [m for m in self.main if RELATIONS[m[0]][2] == RELATIONS[m[0]][3]]
        # an exact duplicate may come from another source with a synonymous
        # label, as the same interaction does in STRING and Hetionet
        synonyms: dict[tuple[str, str, str], list[int]] = {}
        for idx, (_, _, head_t, tail_t, canonical, _) in enumerate(RELATIONS):
            synonyms.setdefault((head_t, tail_t, canonical), []).append(idx)
        for _ in range(counts["exact_dup"]):
            rel_idx, head, tail = rng.choice(self.main)
            rel = self.relation_text(RELATIONS[rng.choice(synonyms[RELATIONS[rel_idx][2:5]])])
            self.lines.append(f"{self.emit(head)}\t{rel}\t{self.emit(tail)}")
        for _ in range(counts["reversed_dup"]):
            rel_idx, head, tail = rng.choice(same_type)
            rel = self.relation_text(RELATIONS[rel_idx])
            self.lines.append(f"{self.emit(tail)}\t{rel}\t{self.emit(head)}")

    def build(self) -> list[str]:
        r = self.rows_target
        counts = {
            "semicolon": max(1, round(r * SEMICOLON_SHARE)),
            "pipe": max(1, round(r * PIPE_SHARE)),
            "virus": max(2, round(r * VIRUS_SHARE)),
            "exact_dup": max(1, round(r * EXACT_DUP_SHARE)),
            "reversed_dup": max(1, round(r * REVERSED_DUP_SHARE)),
        }
        self.build_main(r - sum(counts.values()))
        self.render_main()
        self.plant_defects(counts)
        self.rng.shuffle(self.lines)
        return self.lines

    # --- auxiliary tables -------------------------------------------------

    def taxonomy(self) -> list[tuple[str, str]]:
        rows = []
        for i in range(self.n["Gene"]):
            if i in self.nonhuman:
                tag = self.rng.choice(("10090", "mouse", "10116"))
            else:
                tag = self.rng.choice(("9606", "human"))
            rows.append((self.raw("Gene", i), tag))
        return rows

    def reactome(self) -> list[tuple[str, str]]:
        rng = self.rng
        genes = self.zipf["Gene"]
        pathways = self.zipf["Pathway"]
        target = max(20, self.rows_target // 50)
        rows: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        while len(rows) < target:
            if rng.random() < 0.03:
                gene = f"Gene::NCBI:{9_000_000 + len(rows)}"  # not in the graph
            else:
                gene = self.canon("Gene", genes.pick())
            pair = (gene, f"Pathway::Reactome:R-HSA-{100_000 + pathways.pick()}")
            if pair not in seen:
                seen.add(pair)
                rows.append(pair)
        return rows

    def onsides(self) -> list[tuple[str, str, str]]:
        rng = self.rng
        side_effect_edges = [
            (h[1], t[1]) for rel_idx, h, t in self.main if RELATIONS[rel_idx][3] == "SideEffect"
        ]
        rows = []
        for k in range(max(20, self.rows_target // 50)):
            roll = rng.random()
            if roll < 0.1 and side_effect_edges:
                c, s = rng.choice(side_effect_edges)  # duplicates an existing pair
            else:
                c = self.zipf["Compound"].pick()
                s = self.zipf["SideEffect"].pick()
            compound = self.emit(("Compound", c))
            if roll > 0.95:
                compound = f"Compound::DB{80_000 + k:05d}"  # not in the graph
            if s in self.side_effect_alias and rng.random() < 0.5:
                side_effect = self.side_effect_alias[s]
            elif rng.random() < 0.1:
                side_effect = f"SideEffect::umls:C{9_000_000 + k:07d}"  # new node
            else:
                side_effect = self.canon("SideEffect", s)
            tier = rng.choices(("high", "medium", "low"), (5, 3, 2))[0]
            rows.append((compound, side_effect, tier))
        return rows

    def smiles(self) -> list[tuple[str, str]]:
        """Drug-sized SMILES per compound; about 1% have none and 0.5% have
        one the parser rejects (at least two of each)."""
        rng = self.rng
        n = self.n["Compound"]
        n_missing = max(2, round(0.01 * n))
        picked = rng.sample(range(n), n_missing + max(2, round(0.005 * n)))
        missing = set(picked[:n_missing])
        broken = set(picked[n_missing:])
        rows = []
        for i in range(n):
            if i in missing:
                continue
            text = rng.choice(_BROKEN_SMILES) if i in broken else drug_smiles(rng)
            rows.append((self.canon("Compound", i), text))
        return rows


_CONFIG_COMMON = """\
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
"""

_SPLIT_AUDIT_STAGES = "".join(
    f"stages.{name} = {'true' if name in ('splits', 'audit') else 'false'}\n"
    for name in (
        "filter_malformed", "harmonize", "remove_nonhuman", "drop_types", "remap",
        "dedup", "reactome", "onsides", "smiles_filter", "fingerprints", "features",
        "splits", "audit",
    )
) + "split.tasks = ppi,drug_repurposing,side_effect\nsplit.seeds = 0,1,2,3,4\n"


def _write_rows(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def generate(out: str | Path, seed: int = 0, scale: float = 0.1, rows: int = 100_000) -> Path:
    """Write the triplet file, auxiliary tables and both configs under
    ``out``; returns ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    builder = _Builder(seed, scale, rows)
    lines = builder.build()
    with (out / "triplets.tsv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    for etype in ("Compound", "Disease", "Gene", "SideEffect"):
        name = "sideeffect" if etype == "SideEffect" else etype.lower()
        _write_rows(out / f"{name}_xref.tsv", builder.xref[etype])
    _write_rows(out / "taxonomy.tsv", builder.taxonomy())
    _write_rows(out / "reactome.tsv", builder.reactome())
    _write_rows(out / "onsides.tsv", builder.onsides())
    _write_rows(out / "smiles.tsv", builder.smiles())
    (out / "drkg.cfg").write_text(_CONFIG_COMMON, encoding="utf-8")
    (out / "split_audit.cfg").write_text(_CONFIG_COMMON + _SPLIT_AUDIT_STAGES, encoding="utf-8")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--rows", type=int, default=100_000)
    args = parser.parse_args()
    generate(args.out, args.seed, args.scale, args.rows)


if __name__ == "__main__":
    main()

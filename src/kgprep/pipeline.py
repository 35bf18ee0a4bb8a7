"""Sequential stage orchestration, checkpoint loading, and output writing.

Stages always execute in dependency order; a toggle only decides whether a
stage runs, never when. Intermediate and final graphs use the same triplet
TSV format, so any stage can be resumed from a checkpoint file.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Callable

from . import clean, enrich, features, ingest, normalize, split_audit
from .chem.fingerprint import fingerprint_all, write_fingerprints
from .config import STAGE_NAMES, PipelineConfig
from .errors import ConfigError
from .model import KnowledgeGraph, StageLog, Step
from .stats import StatsReport, compute_stats

log = logging.getLogger(__name__)


def account(
    name: str,
    g: KnowledgeGraph,
    body: Callable[[], tuple[KnowledgeGraph, dict[str, int]]],
) -> tuple[KnowledgeGraph, StageLog]:
    """Time ``body`` and build stage ``name``'s log from the graph it returns.

    No stage both removes and adds rows, so the row-count change is the
    removed or the added count.
    """
    start = time.perf_counter()
    out, details = body()
    change = len(out) - len(g)
    return out, StageLog(
        stage_name=name,
        rows_in=len(g),
        rows_removed=max(-change, 0),
        rows_added=max(change, 0),
        rows_out=len(out),
        wall_time=time.perf_counter() - start,
        details=details,
    )


def run_step(
    name: str, g: KnowledgeGraph, build: Callable[[], tuple[Step, dict[str, int]]]
) -> tuple[KnowledgeGraph, StageLog]:
    """Run a row-local stage: ``build()`` loads its tables and returns the
    step with the ``details`` counters the step fills; the step then sees
    every row once, in input order."""

    def body() -> tuple[KnowledgeGraph, dict[str, int]]:
        step, details = build()
        kept = [row for row in map(step, g.triplets) if row is not None]
        return KnowledgeGraph._from_clean(kept), details

    return account(name, g, body)


class PipelineRunner:
    """Binds a validated config to loaded auxiliary tables and runs stages.

    ``stage`` scopes validation to one stage for checkpoint resumption;
    a full run validates the whole config.
    """

    def __init__(self, config: PipelineConfig, stage: str | None = None):
        if stage is None:
            config.validate()
        else:
            config.validate_for_stage(stage)
        self.config = config
        self.out_dir = Path(config.out_dir)
        self._harmonization: clean.HarmonizationTable | None = None
        self._id_maps: dict[str, normalize.IdMapTable] | None = None
        self._taxonomy: dict[str, str] | None = None
        self._smiles: dict[str, str] | None = None
        # the split plan: the graph it was made for, and per task the seeded
        # bundles the splits stage made and the audit has not yet used
        self._plan_graph: KnowledgeGraph | None = None
        self._plan: dict[str, list[split_audit.SplitBundle]] = {}

    # --- auxiliary inputs -------------------------------------------------

    def harmonization_table(self) -> clean.HarmonizationTable:
        if self._harmonization is None:
            if self.config.harmonization:
                self._harmonization = clean.HarmonizationTable.from_file(
                    self.config.harmonization
                )
            else:
                self._harmonization = clean.HarmonizationTable.builtin()
        return self._harmonization

    def id_maps(self) -> dict[str, normalize.IdMapTable]:
        if self._id_maps is None:
            cfg = self.config
            specs = {
                "Compound": (cfg.compound_xref, normalize.COMPOUND_SOURCE_PREFERENCE),
                "Disease": (cfg.disease_xref, None),
                "Gene": (cfg.gene_xref, None),
                "SideEffect": (cfg.sideeffect_xref, None),
            }
            maps = {}
            for entity_type, (path, preference) in specs.items():
                if path is None:
                    maps[entity_type] = normalize.IdMapTable.empty(entity_type)
                else:
                    raw = normalize.IdMapTable.from_file(path, entity_type, preference)
                    maps[entity_type] = normalize.resolve_fixed_point(raw)
            self._id_maps = maps
        return self._id_maps

    def nonhuman_spec(self) -> clean.NonHumanSpec:
        return clean.NonHumanSpec(
            banned_labels=frozenset(self.config.nonhuman_banned_labels),
            ban_vir_prefix=self.config.nonhuman_ban_vir_prefix,
        )

    def taxonomy(self) -> dict[str, str]:
        if self._taxonomy is None:
            if self.config.taxonomy is None:
                self._taxonomy = {}
            else:
                self._taxonomy = ingest.load_taxonomy(self.config.taxonomy)
        return self._taxonomy

    def smiles_dict(self) -> dict[str, str]:
        if self._smiles is None:
            if self.config.smiles is None:
                raise ConfigError("inputs.smiles is required for this stage")
            self._smiles = ingest.load_smiles_dict(self.config.smiles)
        return self._smiles

    # --- stages -----------------------------------------------------------

    def run_stage(self, name: str, g: KnowledgeGraph) -> tuple[KnowledgeGraph, StageLog]:
        """Run one named stage, writing any stage-specific outputs. The stage's
        clock covers loading the auxiliary tables it needs."""
        build = self._row_steps().get(name)
        if build is not None:
            g, stage_log = run_step(name, g, build)
        else:
            g, stage_log = account(name, g, lambda: self._run_graph_stage(name, g))
        if self.config.validate_each_stage:
            g.validate()
        log.info(
            "stage %-16s rows %d -> %d (removed %d, added %d) [%.3fs]",
            stage_log.stage_name,
            stage_log.rows_in,
            stage_log.rows_out,
            stage_log.rows_removed,
            stage_log.rows_added,
            stage_log.wall_time,
        )
        return g, stage_log

    def _row_steps(self) -> dict[str, Callable[[], tuple[Step, dict[str, int]]]]:
        """The row-local stages; every other stage takes the whole graph."""
        cfg = self.config
        return {
            "filter_malformed": clean.filter_malformed,
            "harmonize": lambda: clean.harmonize(
                self.harmonization_table(), strict=cfg.harmonize_strict
            ),
            "remove_nonhuman": lambda: clean.remove_nonhuman(
                self.nonhuman_spec(), self.taxonomy()
            ),
            "drop_types": lambda: clean.drop_entity_types(cfg.drop_types),
            "remap": lambda: normalize.remap_entities(
                *(self.id_maps()[t] for t in ("Compound", "Disease", "Gene"))
            ),
            "dedup": lambda: normalize.deduplicate(same_type_only=cfg.dedup_same_type_only),
        }

    def _run_graph_stage(
        self, name: str, g: KnowledgeGraph
    ) -> tuple[KnowledgeGraph, dict[str, int]]:
        cfg = self.config
        if name == "reactome":
            return enrich.merge_reactome(g, ingest.load_reactome(cfg.reactome))
        if name == "onsides":
            rows = ingest.load_onsides(cfg.onsides)
            maps = self.id_maps()
            return enrich.merge_onsides(
                g,
                rows,
                min_tier=cfg.onsides_min_tier,
                compound_map=maps["Compound"],
                side_effect_map=maps["SideEffect"],
            )
        if name == "smiles_filter":
            return enrich.filter_no_smiles(g, self.smiles_dict())
        if name == "fingerprints":
            table, details = fingerprint_all(
                g,
                self.smiles_dict(),
                radius=cfg.fingerprint_radius,
                nbits=cfg.fingerprint_nbits,
            )
            self.out_dir.mkdir(parents=True, exist_ok=True)
            write_fingerprints(self.out_dir / "fingerprints.tsv", table)
            return g, details
        if name == "features":
            manifest = features.build_manifest(g)
            collapsed, table, details = features.collapse_to_features(g, manifest)
            self.out_dir.mkdir(parents=True, exist_ok=True)
            features.write_manifest(self.out_dir / "feature_manifest.tsv", manifest)
            features.write_features(self.out_dir / "gene_features.tsv", table)
            return collapsed, details
        if name == "splits":
            return g, self._run_splits(g)
        if name == "audit":
            return g, self._run_audit(g)
        raise ConfigError(f"unknown stage {name!r}")

    def _bundles(
        self, g: KnowledgeGraph, task_name: str, keep: bool
    ) -> list[split_audit.SplitBundle]:
        """One task's seeded bundles on ``g``: the ones an earlier stage kept
        for this very graph, or new ones. ``keep`` leaves them for a later
        stage; otherwise they are released."""
        if self._plan_graph is not g:
            self._plan_graph, self._plan = g, {}
        bundles = self._plan.pop(task_name, None)
        if bundles is None:
            task = split_audit.BUILTIN_TASKS[task_name]
            bundles = split_audit.make_splits(g, task, self.config.split_seeds)
        if keep:
            self._plan[task_name] = bundles
        return bundles

    def _run_splits(self, g: KnowledgeGraph) -> dict[str, int]:
        details: dict[str, int] = {}
        keep = self.config.enabled("audit")
        for task_name in self.config.split_tasks:
            for bundle in self._bundles(g, task_name, keep):
                split_audit.write_bundle(
                    self.out_dir / "splits" / task_name / f"seed_{bundle.seed}",
                    bundle,
                    preserve_order=self.config.preserve_order,
                )
            # split sizes depend only on the target size, not on the seed
            details[f"{task_name}_target"] = n = bundle.target_size()
            details[f"{task_name}_train"] = bundle.n_train
            details[f"{task_name}_valid"] = bundle.n_valid
            details[f"{task_name}_test"] = n - bundle.n_train - bundle.n_valid
        return details

    def _run_audit(self, g: KnowledgeGraph) -> dict[str, int]:
        entity_map: dict = {}
        for table in self.id_maps().values():
            entity_map.update(table.mapping)
        equivalence = split_audit.Equivalence(entity_map, self.harmonization_table())
        aggregates = []
        details: dict[str, int] = {}
        for task_name in self.config.split_tasks:
            reports = [
                split_audit.detect_leakage(
                    bundle,
                    equivalence,
                    include_inverse=self.config.audit_include_inverse,
                )
                for bundle in self._bundles(g, task_name, keep=False)
            ]
            agg = split_audit.audit_report(reports)
            aggregates.append(agg)
            for (detector, pair), cell in sorted(agg.cells.items()):
                details[f"{task_name}_{detector}_{pair}_leaked"] = sum(cell["leaked"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        split_audit.write_leakage_json(self.out_dir / "leakage_report.json", aggregates)
        return details

    # --- full run ---------------------------------------------------------

    def run(self) -> StatsReport:
        start = time.perf_counter()
        cfg = self.config
        if cfg.triplets is None:
            raise ConfigError("inputs.triplets is required to run the pipeline")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        g, ingest_log = ingest.load_triplets(cfg.triplets)
        log.info(
            "ingest: %d rows loaded, %d skipped",
            ingest_log.rows_out,
            ingest_log.rows_removed,
        )
        logs = [ingest_log]
        for name in STAGE_NAMES:
            if not cfg.enabled(name):
                continue
            g, stage_log = self.run_stage(name, g)
            logs.append(stage_log)
        ingest.write_triplets(
            self.out_dir / "graph.tsv", g, preserve_order=cfg.preserve_order
        )
        report = compute_stats(g)
        report.stages = logs
        report.wall_time_seconds = time.perf_counter() - start
        report.write_json(self.out_dir / "stats.json")
        return report


def run_pipeline(config: PipelineConfig) -> StatsReport:
    return PipelineRunner(config).run()

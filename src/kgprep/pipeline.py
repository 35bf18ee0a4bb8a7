"""Sequential stage orchestration, checkpoint loading, and output writing.

Stages always execute in dependency order; a toggle only decides whether a
stage runs, never when. Intermediate and final graphs use the same triplet
TSV format, so any stage can be resumed from a checkpoint file.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path

from . import clean, enrich, features, ingest, normalize, split_audit
from .chem import fingerprint_all, write_fingerprints
from .config import STAGE_NAMES, PipelineConfig
from .errors import ConfigError
from .model import KnowledgeGraph, StageLog
from .stats import StatsReport, compute_stats

log = logging.getLogger(__name__)


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
        if self.config.taxonomy is None:
            return {}
        return ingest.load_taxonomy(self.config.taxonomy)

    def smiles_dict(self) -> dict[str, str]:
        if self.config.smiles is None:
            raise ConfigError("inputs.smiles is required for this stage")
        return ingest.load_smiles_dict(self.config.smiles)

    # --- stages -----------------------------------------------------------

    def run_stage(
        self, name: str, g: KnowledgeGraph
    ) -> tuple[KnowledgeGraph, list[StageLog]]:
        """Run one named stage, writing any stage-specific outputs."""
        cfg = self.config
        if name == "filter_malformed":
            g, stage_log = clean.filter_malformed(g)
        elif name == "harmonize":
            g, stage_log = clean.harmonize(
                g, self.harmonization_table(), strict=cfg.harmonize_strict
            )
        elif name == "remove_nonhuman":
            g, stage_log = clean.remove_nonhuman(
                g, self.nonhuman_spec(), self.taxonomy()
            )
        elif name == "drop_types":
            g, stage_log = clean.drop_entity_types(g, cfg.drop_types)
        elif name == "remap":
            maps = self.id_maps()
            g, stage_log = normalize.remap_entities(
                g, maps["Compound"], maps["Disease"], maps["Gene"]
            )
        elif name == "dedup":
            g, stage_log = normalize.deduplicate(
                g, same_type_only=cfg.dedup_same_type_only
            )
        elif name == "reactome":
            table = ingest.load_reactome(cfg.reactome)
            g, stage_log = enrich.merge_reactome(g, table)
        elif name == "onsides":
            rows = ingest.load_onsides(cfg.onsides)
            maps = self.id_maps()
            g, stage_log = enrich.merge_onsides(
                g,
                rows,
                min_tier=cfg.onsides_min_tier,
                compound_map=maps["Compound"],
                side_effect_map=maps["SideEffect"],
            )
        elif name == "smiles_filter":
            g, stage_log = enrich.filter_no_smiles(g, self.smiles_dict())
        elif name == "fingerprints":
            table, stage_log = fingerprint_all(
                g,
                self.smiles_dict(),
                radius=cfg.fingerprint_radius,
                nbits=cfg.fingerprint_nbits,
            )
            self.out_dir.mkdir(parents=True, exist_ok=True)
            write_fingerprints(self.out_dir / "fingerprints.tsv", table)
        elif name == "features":
            manifest = features.build_manifest(g)
            g, table, stage_log = features.collapse_to_features(g, manifest)
            self.out_dir.mkdir(parents=True, exist_ok=True)
            features.write_manifest(self.out_dir / "feature_manifest.tsv", manifest)
            features.write_features(self.out_dir / "gene_features.tsv", table)
        elif name == "splits":
            stage_log = self._run_splits(g)
        elif name == "audit":
            stage_log = self._run_audit(g)
        else:
            raise ConfigError(f"unknown stage {name!r}")

        if cfg.validate_each_stage:
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
        return g, [stage_log]

    def _run_splits(self, g: KnowledgeGraph) -> StageLog:
        start = time.perf_counter()
        details: dict[str, int] = {}
        for task_name in self.config.split_tasks:
            task = split_audit.BUILTIN_TASKS[task_name]
            for bundle in split_audit.make_splits(g, task, self.config.split_seeds):
                split_audit.write_bundle(
                    self.out_dir / "splits" / task_name / f"seed_{bundle.seed}",
                    bundle,
                    preserve_order=self.config.preserve_order,
                )
            # split sizes depend only on the target size, not on the seed
            details[f"{task_name}_target"] = bundle.target_size()
            details[f"{task_name}_train"] = len(bundle.train)
            details[f"{task_name}_valid"] = len(bundle.valid)
            details[f"{task_name}_test"] = len(bundle.test)
        rows = len(g)
        return StageLog(
            stage_name="splits",
            rows_in=rows,
            rows_removed=0,
            rows_added=0,
            rows_out=rows,
            wall_time=time.perf_counter() - start,
            details=details,
        )

    def _run_audit(self, g: KnowledgeGraph) -> StageLog:
        start = time.perf_counter()
        entity_map: dict = {}
        for table in self.id_maps().values():
            entity_map.update(table.mapping)
        equivalence = split_audit.Equivalence(entity_map, self.harmonization_table())
        aggregates = []
        details: dict[str, int] = {}
        for task_name in self.config.split_tasks:
            task = split_audit.BUILTIN_TASKS[task_name]
            reports = [
                split_audit.detect_leakage(
                    bundle,
                    equivalence,
                    include_inverse=self.config.audit_include_inverse,
                )
                for bundle in split_audit.make_splits(g, task, self.config.split_seeds)
            ]
            agg = split_audit.audit_report(reports)
            aggregates.append(agg)
            for (detector, pair), cell in sorted(agg.cells.items()):
                details[f"{task_name}_{detector}_{pair}_leaked"] = sum(cell["leaked"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        split_audit.write_leakage_json(self.out_dir / "leakage_report.json", aggregates)
        rows = len(g)
        return StageLog(
            stage_name="audit",
            rows_in=rows,
            rows_removed=0,
            rows_added=0,
            rows_out=rows,
            wall_time=time.perf_counter() - start,
            details=details,
        )

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
            g, stage_logs = self.run_stage(name, g)
            logs.extend(stage_logs)
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

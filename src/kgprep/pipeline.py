"""Sequential stage orchestration, checkpoint loading, and output writing.

Stages always execute in dependency order; a toggle only decides whether a
stage runs, never when. Intermediate and final graphs use the same triplet
TSV format, so any stage can be resumed from a checkpoint file. The splits
stage only plans: after its stages a command writes the final graph and every
split file in one call (``PipelineRunner.write``), outside every stage clock.
"""

from __future__ import annotations

import logging
import time
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import clean, enrich, features, ingest, normalize, split_audit
from .chem.fingerprint import fingerprint_all, fingerprinter, write_fingerprints
from .config import STAGE_NAMES, PipelineConfig
from .errors import ConfigError
from .model import KnowledgeGraph, StageLog
from .stats import StatsReport, compute_stats

log = logging.getLogger(__name__)

StageResult = tuple[KnowledgeGraph, dict[str, int]]


def account(
    name: str,
    g: KnowledgeGraph,
    body: Callable[[], StageResult],
) -> tuple[KnowledgeGraph, StageLog]:
    """Time ``body`` and build stage ``name``'s log from the graph it returns.
    ``g``'s rows are counted first, as the body may consume it.

    No stage both removes and adds rows, so the row-count change is the
    removed or the added count.
    """
    rows_in, start = len(g), time.perf_counter()
    out, details = body()
    change = len(out) - rows_in
    return out, StageLog(
        stage_name=name,
        rows_in=rows_in,
        rows_removed=max(-change, 0),
        rows_added=max(change, 0),
        rows_out=len(out),
        wall_time=time.perf_counter() - start,
        details=details,
    )


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
        # per task, the splits the splits stage made, until they are written
        self._plan: dict[str, split_audit.TaskSplits] = {}
        # in a run that fingerprints, the graph the SMILES filter returned and
        # the fingerprints it made of what it parsed, until that stage runs
        self._fingerprint_early = stage is None and config.enabled("fingerprints")
        self._fingerprinted: tuple[KnowledgeGraph, dict] | None = None

    # --- auxiliary inputs, each read on first use -------------------------

    @cached_property
    def harmonization_table(self) -> clean.HarmonizationTable:
        if self.config.harmonization:
            return clean.HarmonizationTable.from_file(self.config.harmonization)
        return clean.HarmonizationTable.builtin()

    @cached_property
    def id_maps(self) -> dict[str, normalize.IdMapTable]:
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
        return maps

    @cached_property
    def taxonomy(self) -> dict[str, str]:
        if self.config.taxonomy is None:
            return {}
        return ingest.load_taxonomy(self.config.taxonomy)

    @cached_property
    def smiles_dict(self) -> dict[str, str]:
        if self.config.smiles is None:
            raise ConfigError("inputs.smiles is required for this stage")
        return ingest.load_smiles_dict(self.config.smiles)

    # --- stages -----------------------------------------------------------

    def run_stage(self, name: str, g: KnowledgeGraph) -> tuple[KnowledgeGraph, StageLog]:
        """Run one named stage, writing any stage-specific outputs. The stage's
        clock covers loading the auxiliary tables it needs. An owned ``g``
        is consumed by a stage that changes its rows; any other is left as
        it is."""
        body = self._stages().get(name)
        if body is None:
            raise ConfigError(f"unknown stage {name!r}")
        g, stage_log = account(name, g, lambda: body(g))
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

    def _stages(self) -> dict[str, Callable[[KnowledgeGraph], StageResult]]:
        """Every stage in run order, as ``g -> (graph, details)``."""
        cfg = self.config
        return {
            "filter_malformed": clean.filter_malformed,
            "harmonize": lambda g: clean.harmonize(
                g, self.harmonization_table, strict=cfg.harmonize_strict
            ),
            "remove_nonhuman": lambda g: clean.remove_nonhuman(
                g,
                clean.NonHumanSpec(
                    banned_labels=frozenset(cfg.nonhuman_banned_labels),
                    ban_vir_prefix=cfg.nonhuman_ban_vir_prefix,
                ),
                self.taxonomy,
            ),
            "drop_types": lambda g: clean.drop_entity_types(g, cfg.drop_types),
            "remap": lambda g: normalize.remap_entities(
                g, *(self.id_maps[t] for t in ("Compound", "Disease", "Gene"))
            ),
            "dedup": lambda g: normalize.deduplicate(g, same_type_only=cfg.dedup_same_type_only),
            "reactome": lambda g: enrich.merge_reactome(g, ingest.load_reactome(cfg.reactome)),
            "onsides": lambda g: enrich.merge_onsides(
                g,
                ingest.load_onsides(cfg.onsides),
                min_tier=cfg.onsides_min_tier,
                compound_map=self.id_maps["Compound"],
                side_effect_map=self.id_maps["SideEffect"],
            ),
            "smiles_filter": self._smiles_filter,
            "fingerprints": self._fingerprints,
            "features": self._features,
            "splits": self._splits,
            "audit": self._audit,
        }

    def _smiles_filter(self, g: KnowledgeGraph) -> StageResult:
        if not self._fingerprint_early:
            return enrich.filter_no_smiles(g, self.smiles_dict)
        cfg, table = self.config, {}
        # only the filter holds the callback: it drops it, and its memo, once it has parsed
        kept, details = enrich.filter_no_smiles(
            g, self.smiles_dict, fingerprinter(table, cfg.fingerprint_radius, cfg.fingerprint_nbits)
        )
        self._fingerprinted = kept, table
        return kept, details

    def _fingerprints(self, g: KnowledgeGraph) -> StageResult:
        """Fingerprint ``g``, reusing the SMILES filter's table only if it
        returned this very graph; the table is dropped either way."""
        cfg, (filtered, known) = self.config, self._fingerprinted or (None, None)
        self._fingerprinted = None
        table, details = fingerprint_all(
            g, self.smiles_dict, radius=cfg.fingerprint_radius, nbits=cfg.fingerprint_nbits,
            known=known if filtered is g else None,
        )
        write_fingerprints(self.out_dir / "fingerprints.tsv", table)
        return g, details

    def _features(self, g: KnowledgeGraph) -> StageResult:
        manifest = features.build_manifest(g)
        collapsed, table, details = features.collapse_to_features(g, manifest)
        features.write_manifest(self.out_dir / "feature_manifest.tsv", manifest)
        features.write_features(self.out_dir / "gene_features.tsv", table)
        return collapsed, details

    def _splits(self, g: KnowledgeGraph) -> StageResult:
        details: dict[str, int] = {}
        self._plan = {task_name: split_audit.make_splits(g, task_name, self.config.split_seeds)
                      for task_name in self.config.split_tasks}
        for split in self._plan.values():
            # split sizes depend only on the target size, not on the seed
            details[f"{split.task}_target"] = n = len(split.target)
            details[f"{split.task}_train"] = split.n_train
            details[f"{split.task}_valid"] = split.n_valid
            details[f"{split.task}_test"] = n - split.n_train - split.n_valid
        return g, details

    def _audit(self, g: KnowledgeGraph) -> StageResult:
        # identifier texts to canonical texts; a later table wins on a shared key
        entities = {
            k.text: v.text for table in self.id_maps.values() for k, v in table.mapping.items()
        }
        records = []
        for task_name in self.config.split_tasks:
            split = self._plan.get(task_name)
            if split is None or split.graph is not g:  # no plan of g: new splits, not kept
                split = split_audit.make_splits(g, task_name, self.config.split_seeds)
            keys = split_audit.leak_keys(split, entities, self.harmonization_table)
            reports = split_audit.detect_leakage(
                keys, split, include_inverse=self.config.audit_include_inverse
            )
            records += split_audit.audit_report(task_name, split.seeds, reports)
        split_audit.write_leakage_json(self.out_dir / "leakage_report.json", records)
        return g, {
            f"{r['task']}_{r['detector']}_{r['split_pair']}_leaked": sum(r["leaked"])
            for r in records
        }

    # --- outputs ----------------------------------------------------------

    def write(self, g: KnowledgeGraph, graph: str | None = "graph.tsv") -> None:
        """Write a command's results of ``g``: the graph file ``graph``
        (none if None) and every split file the splits stage planned, in one
        pass over the rows when there are plans. No stage runs after it, so
        the tables the audit reads are dropped first: dropping the taxonomy
        and SMILES too raised drkg-shape's peak RSS by ~0.3 MB."""
        for table in ("harmonization_table", "id_maps"):
            self.__dict__.pop(table, None)
        preserve = self.config.preserve_order
        if self._plan:
            split_audit.write_bundle(self.out_dir, graph, g, list(self._plan.values()), preserve)
        elif graph is not None:
            ingest.write_triplets(self.out_dir / graph, g, preserve_order=preserve)

    # --- full run ---------------------------------------------------------

    def run(self) -> StatsReport:
        start = time.perf_counter()
        cfg = self.config
        if cfg.triplets is None:
            raise ConfigError("inputs.triplets is required to run the pipeline")
        g, ingest_log = ingest.load_triplets(cfg.triplets)
        g = g.owned()  # each stage consumes the graph the one before it returned
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
        self.write(g)
        report = compute_stats(g)
        report.stages = logs
        report.wall_time_seconds = time.perf_counter() - start
        ingest.write_json(self.out_dir / "stats.json", report.to_dict())
        return report


def run_pipeline(config: PipelineConfig) -> StatsReport:
    return PipelineRunner(config).run()

"""Per-layer tracing for the kgprep benchmark.

The traced run wraps the public functions of each ``kgprep`` module, as
``pipeline.PipelineRunner`` calls them, in spans named ``<module>.<span>``.
Spans stay in memory and are dumped once the run ends; ``per_layer_metrics``
turns one dump into the benchmark's per-layer metrics. A function that is
missing from the program is left unwrapped, so its span reads as zero.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time

# (span name, module, attribute, what to record beside time).
# "rows_in": len() of the first argument (the input graph);
# "rows_out": len() of the first element of the result;
# "file_bytes": size of the file named by the first argument;
# "dir_bytes": total size of the files in the directory named by it;
# "molecules": len() of the first element of the result.
TARGETS = (
    ("pipeline.run", "kgprep.pipeline", "PipelineRunner.run", None),
    ("ingest.load_triplets", "kgprep.ingest", "load_triplets", "rows_out"),
    ("ingest.aux_load", "kgprep.ingest", "load_xref", None),
    ("ingest.aux_load", "kgprep.ingest", "load_taxonomy", None),
    ("ingest.aux_load", "kgprep.ingest", "load_smiles_dict", None),
    ("ingest.aux_load", "kgprep.ingest", "load_reactome", None),
    ("ingest.aux_load", "kgprep.ingest", "load_onsides", None),
    ("ingest.aux_load", "kgprep.normalize", "IdMapTable.from_file", None),
    ("ingest.aux_load", "kgprep.normalize", "resolve_fixed_point", None),
    ("ingest.aux_load", "kgprep.clean", "HarmonizationTable.builtin", None),
    ("ingest.aux_load", "kgprep.clean", "HarmonizationTable.from_file", None),
    ("clean.filter_malformed", "kgprep.clean", "filter_malformed", "rows_in"),
    ("clean.harmonize", "kgprep.clean", "harmonize", "rows_in"),
    ("clean.remove_nonhuman", "kgprep.clean", "remove_nonhuman", "rows_in"),
    ("clean.drop_types", "kgprep.clean", "drop_entity_types", "rows_in"),
    ("normalize.remap", "kgprep.normalize", "remap_entities", "rows_in"),
    ("normalize.dedup", "kgprep.normalize", "deduplicate", "rows_in"),
    ("enrich.reactome", "kgprep.enrich", "merge_reactome", "rows_in"),
    ("enrich.onsides", "kgprep.enrich", "merge_onsides", "rows_in"),
    ("enrich.smiles_filter", "kgprep.enrich", "filter_no_smiles", "rows_in"),
    ("chem.fingerprints", "kgprep.chem.fingerprint", "fingerprint_all", "molecules"),
    ("chem.write", "kgprep.chem.fingerprint", "write_fingerprints", "file_bytes"),
    ("features.collapse", "kgprep.features", "build_manifest", None),
    ("features.collapse", "kgprep.features", "collapse_to_features", "rows_in"),
    ("features.write", "kgprep.features", "write_manifest", "file_bytes"),
    ("features.write", "kgprep.features", "write_features", "file_bytes"),
    ("split_audit.make_splits", "kgprep.split_audit", "make_splits", None),
    ("split_audit.write_bundle", "kgprep.split_audit", "write_bundle", "dir_bytes"),
    ("split_audit.detect_leakage", "kgprep.split_audit", "detect_leakage", None),
    ("split_audit.write_report", "kgprep.split_audit", "write_leakage_json", "file_bytes"),
    ("ingest.write_triplets", "kgprep.ingest", "write_triplets", "file_bytes"),
    ("stats.compute", "kgprep.stats", "compute_stats", None),
)

SPANS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
ROW_SPANS = (
    "ingest.load_triplets", "clean.filter_malformed", "clean.harmonize",
    "clean.remove_nonhuman", "clean.drop_types", "normalize.remap",
    "normalize.dedup", "enrich.reactome", "enrich.onsides",
    "enrich.smiles_filter", "features.collapse",
)
IO_SPANS = (
    "ingest.load_triplets", "chem.write", "features.write",
    "split_audit.write_bundle", "split_audit.write_report",
    "ingest.write_triplets",
)
MB = 1024 * 1024

# metric name -> unit, in report order
METRICS: dict[str, str] = {}
for _span in SPANS:
    METRICS[f"{_span}.self_s"] = "s"
    METRICS[f"{_span}.rss_growth_mb"] = "MB"
for _span in ROW_SPANS:
    METRICS[f"{_span}.rows_per_s"] = "rows/s"
for _span in IO_SPANS:
    METRICS[f"{_span}.io_wait_s"] = "s"
METRICS.update({
    "pipeline.run.wall_s": "s",
    "ingest.aux_load.calls": "count",
    "model.graph_builds": "count",
    "split_audit.make_splits.calls": "count",
    "chem.fingerprints.molecules": "count",
    "split_audit.write_bundle.mb": "MB",
    "ingest.write_triplets.mb": "MB",
    "trace.overhead_s": "s",
})

# span record fields
NAME, PARENT, START, END, CPU0, CPU1, RSS0, RSS1, ROWS, BYTES, ITEMS = range(11)


class Tracer:
    """Records spans (name, parent, start, end, CPU and peak-RSS readings)
    in memory, plus a count of graph constructions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.graph_builds = 0

    def enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.spans.append(
            [name, parent, time.perf_counter(), 0.0, time.process_time(), 0.0, rss, rss, 0, 0, 0]
        )
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[CPU1] = time.process_time()
        span[RSS1] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        span[END] = time.perf_counter()
        self.stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "graph_builds": self.graph_builds}


def _measure(kind: str, args: tuple, result) -> tuple[int, int, int]:
    """(rows, bytes, items) for one finished call; zeros if the call's
    shape is not the one expected."""
    try:
        if kind == "rows_in":
            return len(args[0]), 0, 0
        if kind == "rows_out":
            return len(result[0]), 0, 0
        if kind == "molecules":
            return 0, 0, len(result[0])
        if kind == "file_bytes":
            return 0, os.path.getsize(args[0]), 0
        if kind == "dir_bytes":
            with os.scandir(args[0]) as entries:
                return 0, sum(e.stat().st_size for e in entries if e.is_file()), 0
    except (IndexError, TypeError, OSError):
        pass
    return 0, 0, 0


def _wrap(fn, name: str, kind: str | None, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if kind is not None:
            span = tracer.spans[idx]
            span[ROWS], span[BYTES], span[ITEMS] = _measure(kind, args, result)
        return result

    return traced


def _counting(fn, tracer: Tracer):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.graph_builds += 1
        return fn(*args, **kwargs)

    return counted


def _patch_class(cls, attr: str, make) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif callable(raw):
        setattr(cls, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every target that exists in the imported ``kgprep`` modules.

    A module-level function is replaced under every name any ``kgprep``
    module binds it to, so ``from .x import f`` copies are traced too.
    """
    kg_modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "kgprep"]
    for name, module_name, attr, kind in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None:
                _patch_class(cls, method, lambda fn: _wrap(fn, name, kind, tracer))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        traced = _wrap(original, name, kind, tracer)
        for mod in kg_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    model = sys.modules.get("kgprep.model")
    graph = getattr(model, "KnowledgeGraph", None)
    if graph is not None:
        for attr in ("__init__", "_from_clean"):
            _patch_class(graph, attr, lambda fn: _counting(fn, tracer))


def per_layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace.overhead_s`` excepted,
    which needs an untraced run beside it)."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out = {metric: 0.0 for metric in METRICS}
    total: dict[str, float] = {}
    rows: dict[str, int] = {}
    aux_calls = 0
    for idx, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        out[f"{name}.self_s"] += duration - child_time[idx]
        out[f"{name}.rss_growth_mb"] += (span[RSS1] - span[RSS0]) / 1024
        if f"{name}.io_wait_s" in out:
            out[f"{name}.io_wait_s"] += duration - (span[CPU1] - span[CPU0])
        total[name] = total.get(name, 0.0) + duration
        rows[name] = rows.get(name, 0) + span[ROWS]
        if name == "ingest.aux_load" and (
            span[PARENT] < 0 or spans[span[PARENT]][NAME] != name
        ):
            aux_calls += 1
        if name == "split_audit.make_splits":
            out["split_audit.make_splits.calls"] += 1
        if name == "split_audit.write_bundle":
            out["split_audit.write_bundle.mb"] += span[BYTES] / MB
        if name == "ingest.write_triplets":
            out["ingest.write_triplets.mb"] += span[BYTES] / MB
        if name == "chem.fingerprints":
            out["chem.fingerprints.molecules"] += span[ITEMS]
    for name in ROW_SPANS:
        if total.get(name):
            out[f"{name}.rows_per_s"] = rows[name] / total[name]
    out["pipeline.run.wall_s"] = total.get("pipeline.run", 0.0)
    out["ingest.aux_load.calls"] = aux_calls
    out["model.graph_builds"] = dump["graph_builds"]
    return out


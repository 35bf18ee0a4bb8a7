"""Tests of the benchmark's own code: the DRKG-shaped generator and the
per-layer tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import drkg_shape  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from kgprep.clean import HarmonizationTable  # noqa: E402
from kgprep.config import load_config  # noqa: E402
from kgprep.ingest import parse_relation  # noqa: E402
from kgprep.model import KnowledgeGraph  # noqa: E402
from kgprep.pipeline import run_pipeline  # noqa: E402

SMALL = {"scale": 0.02, "rows": 20_000}


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def small_input(tmp_path_factory) -> Path:
    return drkg_shape.generate(tmp_path_factory.mktemp("drkg") / "input", seed=3, **SMALL)


def test_same_seed_same_bytes(small_input, tmp_path):
    again = drkg_shape.generate(tmp_path / "again", seed=3, **SMALL)
    other = drkg_shape.generate(tmp_path / "other", seed=4, **SMALL)
    assert _files(again) == _files(small_input)
    assert _files(other)["triplets.tsv"] != _files(small_input)["triplets.tsv"]


def test_canonical_labels_match_harmonization_table():
    table = HarmonizationTable.builtin()
    for origin, label, head, tail, canonical, _ in drkg_shape.RELATIONS:
        rel = parse_relation(f"{origin}::{label}::{head}:{tail}")
        mapped = rel.label if rel.label in table.canonical_labels else table.lookup(rel)
        assert (mapped or rel.label) == canonical, (origin, label, head, tail)


def test_every_stage_counter_nonzero(small_input, tmp_path):
    config = load_config(small_input / "drkg.cfg")
    config.out_dir = str(tmp_path / "out")
    logs = {s.stage_name: s.to_dict() for s in run_pipeline(config).stages}
    for stage, key in run.DRKG_NONZERO:
        assert run.counter(logs[stage], key), f"{stage}.{key} is zero"


def test_traced_run_reports_every_span(small_input, tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    status = subprocess.run(
        [sys.executable, str(HERE / "trace_child.py"), str(trace), "--",
         "--config", str(small_input / "drkg.cfg"), "--out", str(tmp_path / "out"),
         "--quiet", "run"],
        env=env, check=False,
    ).returncode
    assert status == 0
    metrics = layers.per_layer_metrics(json.loads(trace.read_text()))
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["pipeline.run.wall_s"], abs=1e-6)
    skipped = {"split_audit.make_splits", "split_audit.write_bundle",
               "split_audit.detect_leakage", "split_audit.write_report"}
    for span in set(layers.SPANS) - skipped:
        assert metrics[f"{span}.self_s"] > 0, span
    for span in skipped:
        assert metrics[f"{span}.self_s"] == 0, span
    assert metrics["model.graph_builds"] > 0
    assert metrics["ingest.aux_load.calls"] > 0
    assert metrics["chem.fingerprints.molecules"] > 0


def test_missing_function_reads_as_zero(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", (
        ("ghost.function", "kgprep.ingest", "no_such_function", None),
        ("ghost.method", "kgprep.ingest", "NoSuchClass.run", None),
        ("ghost.module", "kgprep.no_such_module", "f", None),
    ))
    for attr in ("__init__", "_from_clean"):  # undo the graph-build counter afterwards
        monkeypatch.setattr(KnowledgeGraph, attr, KnowledgeGraph.__dict__[attr])
    tracer = layers.Tracer()
    layers.install(tracer)
    metrics = layers.per_layer_metrics(tracer.dump())
    assert set(metrics) == set(layers.METRICS)
    assert not any(metrics.values())

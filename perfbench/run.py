"""kgprep benchmark: complete ``kgprep run`` invocations timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports nothing from an installed
kgprep, only ``src/`` of that checkout. The load is a closed loop with one
client: start one fresh ``python3 -m kgprep ... run`` (so the parse memos
start cold, as for a CLI user), wait for it to exit, check and delete its
outputs, then start the next. Runs continue for about ``--seconds`` and at
least ``MIN_RUNS`` times; inputs are generated from ``--seed`` before timing
starts, under ``.perfbench_work/`` in the checkout, and removed at the end.

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``planted-100k``: ``kgprep.corpus.build_corpus(rows=100_000)`` with its
  own config (13 stages, 3 tasks x 3 seeds), ``debug.validate`` off.
  Its planted-defect counters are checked exactly.
* ``drkg-shape``: ``drkg_shape.generate`` (DRKG node mix) with the default
  stage toggles (no splits or audit).
* ``split-audit``: the same generated input with only ``splits`` and
  ``audit`` on, 3 tasks x 5 seeds.

With ``--trace 0`` the metrics are the end-to-end ones; ``setup_s`` is the
median wall time of repeated ``kgprep --config CFG validate-config`` calls.
With ``--trace 1`` untraced and traced runs alternate; the traced run
(``trace_child.py``) wraps each layer's public functions and the metrics are
the per-layer ones of ``layers.METRICS``, medians over the traced runs.

Every run is checked: exit status 0; each stage in ``stats.json`` conserves
rows and hands its ``rows_out`` to the next stage; the workload's own
counters hold; the output tree's sha256 is the same on every run and equals
the digest pinned in ``record.json`` for the seed, if one is pinned; the
input files are byte-identical afterwards and nothing else in the checkout
changed. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RECORD = HERE / "record.json"

MIN_RUNS = 3
SETUP_REPEATS = 7
# Children still running this long after the start are killed, so that one
# invocation ends within three minutes even if the program hangs.
DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

ALL_STAGES = (
    "ingest", "filter_malformed", "harmonize", "remove_nonhuman", "drop_types",
    "remap", "dedup", "reactome", "onsides", "smiles_filter", "fingerprints",
    "features", "splits", "audit",
)
STAGES = {
    "planted-100k": ALL_STAGES,
    "drkg-shape": ALL_STAGES[:-2],
    "split-audit": ("ingest", "splits", "audit"),
}

# Each stage's main counter must be non-zero on the DRKG-shaped input, so
# that every stage does work on it.
DRKG_NONZERO = (
    ("filter_malformed", "semicolon_rows"),
    ("filter_malformed", "pipe_rows"),
    ("harmonize", "labels_rewritten"),
    ("remove_nonhuman", "banned_relation_rows"),
    ("remove_nonhuman", "nonhuman_gene_rows"),
    ("drop_types", "rows_removed"),
    ("remap", "endpoints_rewritten"),
    ("dedup", "exact_duplicates"),
    ("dedup", "reversed_duplicates"),
    ("reactome", "edges_added"),
    ("onsides", "edges_added"),
    ("smiles_filter", "compounds_missing"),
    ("smiles_filter", "compounds_unparseable"),
    ("fingerprints", "fingerprints_generated"),
    ("features", "rows_removed"),
)

# On the raw graph every leakage detector must find leaks in the ppi task.
SPLIT_AUDIT_NONZERO = tuple(
    ("audit", f"ppi_{detector}_train_test_leaked")
    for detector in ("duplicate_inverse", "relation_redundancy", "entity_redundancy")
)
NONZERO = {"drkg-shape": DRKG_NONZERO, "split-audit": SPLIT_AUDIT_NONZERO}


@dataclass
class Workload:
    name: str
    config: Path
    inputs: Path
    rows: int
    expected: dict[tuple[str, str], int]  # (stage, counter) -> exact value
    pinned_digest: str | None


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]
    layer: dict[str, float] | None = None


# --- workloads ------------------------------------------------------------


def prepare(name: str, seed: int, work: Path, deadline: float) -> Workload:
    """Generate the inputs in a child process (``inputs.py``)."""
    log = work / "inputs.log"
    argv = [sys.executable, str(HERE / "inputs.py"), name, str(seed), str(work)]
    status, _, _, _ = spawn(argv, log, deadline)
    if status != 0:
        raise RuntimeError(f"input generation failed: {log.read_text(errors='replace')[-400:]}")
    meta = json.loads((work / "workload.json").read_text(encoding="utf-8"))
    expected = {(stage, key): value for stage, key, value in meta["expected"]}
    try:
        record = json.loads(RECORD.read_text(encoding="utf-8"))
    except FileNotFoundError:
        record = {}
    pinned = record.get("digests", {}).get(name, {}).get(str(seed))
    return Workload(name, Path(meta["config"]), work / "input", meta["rows"], expected, pinned)


# --- child processes ------------------------------------------------------


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run one child to completion; (exit code, wall s, CPU s, peak RSS MB).

    CPU and peak RSS come from ``os.wait4`` on that child alone. A child
    still running at ``deadline`` (``time.monotonic()``) is killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with log.open("wb") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=log_fh, stderr=subprocess.STDOUT,
        )
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )


def kgprep_argv(workload: Workload, *command: str) -> list[str]:
    return [sys.executable, "-m", "kgprep", "--config", str(workload.config), *command]


# --- output checks --------------------------------------------------------


def file_sha256(path: Path) -> bytes:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def _strip_timings(value):
    if isinstance(value, dict):
        return {
            k: _strip_timings(v) for k, v in value.items()
            if k not in ("wall_time", "wall_time_seconds")
        }
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def tree_digest(out: Path) -> str:
    """sha256 over every file's relative path and content; ``stats.json``
    is hashed without its timing fields."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "stats.json":
            stats = _strip_timings(json.loads(path.read_text(encoding="utf-8")))
            content = hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).digest()
        else:
            content = file_sha256(path)
        digest.update(rel.encode() + b"\0" + content)
    return digest.hexdigest()


def snapshot(skip: set[Path]) -> dict[str, tuple[int, int] | None]:
    """Listing of the checkout (size and mtime per file), leaving out the
    paths in ``skip`` and interpreter bytecode caches."""
    listing: dict[str, tuple[int, int] | None] = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        base = Path(dirpath)
        dirnames[:] = [d for d in dirnames if d != "__pycache__" and base / d not in skip]
        for d in dirnames:
            listing[(base / d).relative_to(ROOT).as_posix() + "/"] = None
        for f in filenames:
            path = base / f
            if path in skip:
                continue
            st = path.lstat()
            listing[path.relative_to(ROOT).as_posix()] = (st.st_size, st.st_mtime_ns)
    return listing


def input_hashes(inputs: Path) -> dict[str, bytes]:
    return {p.name: file_sha256(p) for p in sorted(inputs.iterdir())}


def counter(stage: dict, key: str):
    """A stage's top-level field or ``details`` entry; None if absent."""
    return stage[key] if key in stage else stage.get("details", {}).get(key)


def check_stats(workload: Workload, out: Path) -> list[str]:
    try:
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"stats.json unreadable: {exc}"]
    try:
        return _stats_problems(workload, stats)
    except (KeyError, TypeError) as exc:
        return [f"stats.json lacks {exc}"]


def _stats_problems(workload: Workload, stats: dict) -> list[str]:
    problems = []
    stages = stats["stages"]
    names = tuple(s["stage"] for s in stages)
    if names != STAGES[workload.name]:
        problems.append(f"stages {names} != {STAGES[workload.name]}")
    for s in stages:
        if s["rows_out"] != s["rows_in"] - s["rows_removed"] + s["rows_added"]:
            problems.append(f"{s['stage']}: rows_out != rows_in - removed + added")
    for a, b in zip(stages, stages[1:]):
        if a["rows_out"] != b["rows_in"]:
            problems.append(
                f"{a['stage']}.rows_out {a['rows_out']} != {b['stage']}.rows_in {b['rows_in']}"
            )
    if stages and stages[-1]["rows_out"] != stats["edges"]["total"]:
        problems.append("last stage rows_out != edges.total")
    by_name = {s["stage"]: s for s in stages}
    for (stage, key), want in workload.expected.items():
        if stage == "final":
            got = stats[key]["total"]
        else:
            got = counter(by_name.get(stage, {}), key)
        if got != want:
            problems.append(f"{stage}.{key}: got {got}, planted {want}")
    for stage, key in NONZERO.get(workload.name, ()):
        if not counter(by_name.get(stage, {}), key):
            problems.append(f"{stage}.{key} is zero on {workload.name}")
    return problems


class Checker:
    """Checks each run's outputs and side effects against the first run."""

    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.out = work / "out"
        self.log = work / "child.log"
        self.trace = work / "trace.json"
        self.skip = {self.out, self.log, self.trace}
        self.inputs = input_hashes(workload.inputs)
        self.listing = snapshot(self.skip)
        self.digest: str | None = None

    def check(self, status: int) -> list[str]:
        problems = []
        if status != 0:
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-400:]
            problems.append(f"exit status {status}: {tail.strip()}")
        if self.out.is_dir():
            problems += check_stats(self.workload, self.out)
            digest = tree_digest(self.out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"output digest {digest} differs from the first run's")
            pinned = self.workload.pinned_digest
            if pinned is not None and digest != pinned:
                problems.append(f"output digest {digest} != pinned {pinned}")
            shutil.rmtree(self.out)
        elif status == 0:
            problems.append("no output directory")
        if input_hashes(self.workload.inputs) != self.inputs:
            problems.append("input files changed")
        listing = snapshot(self.skip)
        if listing != self.listing:
            changed = sorted(set(listing.items()) ^ set(self.listing.items()))[:5]
            problems.append(f"files outside the output directory changed: {changed}")
        return problems


def untraced_run(workload: Workload, checker: Checker) -> Run:
    argv = kgprep_argv(workload, "--out", str(checker.out), "run")
    status, wall, cpu, rss = spawn(argv, checker.log, checker.deadline)
    return Run(False, wall, cpu, rss, checker.check(status))


def traced_run(workload: Workload, checker: Checker) -> Run:
    argv = [
        sys.executable, str(HERE / "trace_child.py"), str(checker.trace), "--",
        "--config", str(workload.config), "--out", str(checker.out), "run",
    ]
    status, wall, cpu, rss = spawn(argv, checker.log, checker.deadline)
    problems = checker.check(status)
    layer = None
    try:
        dump = json.loads(checker.trace.read_text(encoding="utf-8"))
        checker.trace.unlink()
    except (OSError, ValueError) as exc:
        problems.append(f"no trace: {exc}")
    else:
        layer = layers.per_layer_metrics(dump)
        self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        gap = self_sum - layer["pipeline.run.wall_s"]
        if abs(gap) > 1e-6:
            problems.append(f"span self times sum to {self_sum:.6f} s, not the traced wall time")
    return Run(True, wall, cpu, rss, problems, layer)


# --- reporting --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def print_table(title: str, samples: dict[str, list[float]], units: dict[str, str]) -> None:
    print(f"{title}:")
    print(f"  {'metric':<40} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<40} {units[name]:<7} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(values):>3}")


def measure(workload: Workload, checker: Checker, seconds: float, trace: bool) -> list[Run]:
    """Closed loop with one client: one run (with ``trace``, an untraced and
    a traced run) at a time, until the next would end after ``seconds`` and
    at least ``MIN_RUNS`` runs (one pair when tracing) are done."""
    runs: list[Run] = []
    start = time.perf_counter()
    while True:
        batch = [untraced_run(workload, checker)]
        if trace:
            batch.append(traced_run(workload, checker))
        runs += batch
        for run in batch:
            state = "ok" if not run.problems else "FAILED: " + "; ".join(run.problems)
            print(f"  {'traced' if run.traced else 'run':<6} wall {run.wall_s:8.3f} s  "
                  f"cpu {run.cpu_s:8.3f} s  rss {run.peak_rss_mb:7.1f} MB  {state}")
        elapsed = time.perf_counter() - start
        batch_s = sum(r.wall_s for r in batch)
        if len(runs) >= (2 if trace else MIN_RUNS) and elapsed + batch_s > seconds:
            return runs
        if time.monotonic() >= checker.deadline:
            return runs


def layer_samples(runs: list[Run]) -> dict[str, list[float]]:
    """Per-layer metric values of the traced runs."""
    traced = [r for r in runs if r.traced and r.layer is not None]
    samples = {
        name: [r.layer[name] for r in traced]
        for name in layers.METRICS if name != "trace.overhead_s"
    }
    # each traced run minus the untraced run just before it, so that drift
    # in machine speed between pairs cancels
    samples["trace.overhead_s"] = [t.wall_s - u.wall_s for u, t in zip(runs[0::2], runs[1::2])]
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description="kgprep end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "kgprep" / "__init__.py").is_file():
        print(f"error: no kgprep sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        workload = prepare(args.workload, args.seed, work, deadline)
        print(f"workload {workload.name} seed {args.seed}: inputs generated in "
              f"{time.perf_counter() - start:.2f} s ({workload.rows} rows)")
        checker = Checker(workload, work, deadline)
        setup = []
        for _ in range(SETUP_REPEATS):
            argv = kgprep_argv(workload, "validate-config")
            status, wall, _, _ = spawn(argv, checker.log, deadline)
            if status != 0:
                print(f"error: validate-config exited {status}", file=sys.stderr)
                return 1
            setup.append(wall)
        runs = measure(workload, checker, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    plain = [r for r in runs if not r.traced]
    failed = sum(1 for r in runs if r.problems)
    samples = {
        "wall_s": [r.wall_s for r in plain],
        "rows_per_s": [workload.rows / r.wall_s for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
        "peak_rss_mb": [r.peak_rss_mb for r in plain],
        "setup_s": setup,
    }
    print_table("end-to-end (untraced runs)", samples, END_TO_END)
    print(f"  failed_ratio {failed}/{len(runs)} = {failed / len(runs):.3f}")
    print(f"  output digest {checker.digest}")
    units = END_TO_END
    if args.trace:
        samples, units = layer_samples(runs), layers.METRICS
        if samples["pipeline.run.wall_s"]:
            print_table("per layer (traced runs)", samples, units)
        else:
            samples = {name: [0.0] for name in units}
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": units[name]}
            for name, values in samples.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and print every end-to-end metric.

    python3 perfbench/report.py [--workloads a,b] [--seeds 0-9] [--seconds S]
                                [--trace] [--record LABEL] [--pin] [--baseline LABEL]

For each workload and seed this runs ``run.py`` (which checks every run's
outputs) and then prints, per workload and metric: unit, median, first and
third quartile over the seeds, their spread as a share of the median, the
metric's bound from BENCHMARK.json, and the sample count; then
``failed_ratio`` (failed runs over runs attempted). ``--trace`` does the same
for the per-layer metrics of traced runs, which have no bound.

``--record LABEL`` appends the medians and quartiles to the trajectory in
``record.json``; ``--pin`` stores each seed's output digest there, which
later runs must reproduce; ``--baseline LABEL`` compares the medians with a
recorded trajectory entry and flags any that are worse by more than the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, str | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    digest = next(
        (ln.split()[-1] for ln in lines if ln.strip().startswith("output digest")), None
    )
    for line in lines[:-1]:
        if "FAILED" in line:
            print(f"    {line.strip()}")
    return json.loads(lines[-1]), digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--record", metavar="LABEL")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--baseline", metavar="LABEL")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in bench[kind]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    baseline = None
    if args.baseline:
        baseline = next(e for e in record["trajectory"] if e["label"] == args.baseline)

    entry = next((e for e in record.get("trajectory", []) if e["label"] == args.record), None)
    if entry is None:
        entry = {"label": args.record, "seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
        if args.record:
            record.setdefault("trajectory", []).append(entry)
    regressions = 0
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in metrics}
        attempted = failed = 0
        for seed in seed_list(args.seeds):
            result, digest = run_once(workload, seed, seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            shown = list(metrics)[:5]
            print(f"  {workload} seed {seed}: " + "  ".join(
                f"{n} {result['metrics'][n]['value']:.4g}" for n in shown
            ) + ("" if result["correct"] else "  INCORRECT"), flush=True)
            if args.pin and digest:
                record.setdefault("digests", {}).setdefault(workload, {})[str(seed)] = digest
        print(f"{workload}:")
        print(f"  {'metric':<40} {'unit':<7} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'n':>3}")
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            m = metrics[name]
            bound = m.get("bound")
            line = (f"  {name:<40} {m['unit']:<7} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                    f"{spread:>7.3f} {bound if bound is not None else '-':>6} {len(vals):>3}")
            base = None
            if baseline is not None:
                base = baseline["workloads"].get(workload, {}).get(kind, {}).get(name)
            if base is not None and base["median"]:
                base = base["median"]
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                flag = "  WORSE" if bound is not None and worse > bound else ""
                regressions += bool(flag)
                line += f"  vs {args.baseline}: {-worse:+.3f}{flag}"
            print(line)
            summary[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "n": len(vals)}
        print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.3f}")
        entry["workloads"].setdefault(workload, {})[kind] = summary
        entry["workloads"][workload][f"{kind}_failed_ratio"] = failed / attempted

    if args.record or args.pin:
        RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

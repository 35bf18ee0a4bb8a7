"""Command-line interface.

Subcommands: run, stage <name>, stats, split, audit, validate-config.
Exit codes: 0 success, 1 config error, 2 input parse error, 3 stage failure.
An output that cannot be written is a config error.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from pathlib import Path

from . import __version__, ingest
from .config import STAGE_NAMES, PipelineConfig, load_config
from .errors import ConfigError, InputError, StageError
from .pipeline import PipelineRunner, run_pipeline
from .stats import compute_stats

log = logging.getLogger("kgprep")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgprep",
        description=(
            "Clean, enrich and split heterogeneous biomedical knowledge "
            "graphs stored as triplet TSV files."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", metavar="PATH", help="pipeline config file")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--seed", type=int, metavar="N", help="single split seed override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--preserve-order",
        action="store_true",
        help="write output rows in input order instead of sorted",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="run the full pipeline per the config")

    p_stage = sub.add_parser("stage", help="run a single stage on a graph checkpoint")
    p_stage.add_argument("name", choices=STAGE_NAMES)
    p_stage.add_argument("--graph", required=True, metavar="TSV", help="input graph checkpoint")

    p_stats = sub.add_parser("stats", help="statistics for a graph file")
    p_stats.add_argument("--graph", required=True, metavar="TSV")

    p_split = sub.add_parser("split", help="write train/valid/test splits for a graph")
    p_split.add_argument("--graph", required=True, metavar="TSV")
    p_split.add_argument("--task", action="append", metavar="NAME",
                         help="task name (repeatable; default: configured tasks)")

    p_audit = sub.add_parser("audit", help="leakage audit over seeded splits")
    p_audit.add_argument("--graph", required=True, metavar="TSV")
    p_audit.add_argument("--task", action="append", metavar="NAME")

    sub.add_parser("validate-config", help="check the config file and exit")
    return parser


def _load_effective_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.split_seeds = [args.seed]
    if args.preserve_order:
        config.preserve_order = True
    return config


def _load_graph(path: str):
    g, stage_log = ingest.load_triplets(path)
    if stage_log.rows_removed:
        log.warning("%s: skipped %d malformed lines", path, stage_log.rows_removed)
    return g


def _cmd_run(args) -> int:
    config = _load_effective_config(args)
    report = run_pipeline(config)
    log.info(
        "done: %d nodes, %d edges in %.2fs -> %s",
        report.node_total, report.edge_total,
        report.wall_time_seconds, config.out_dir,
    )
    return 0


def _cmd_stage(args) -> int:
    config = _load_effective_config(args)
    if args.name != "splits":  # a checkpoint keeps graph order, which dedup reads
        config.preserve_order = True
    runner = PipelineRunner(config, stage=args.name)
    g, stage_log = runner.run_stage(args.name, _load_graph(args.graph).owned())
    runner.write(g)
    ingest.write_json(Path(config.out_dir) / f"stage_{args.name}.json", [stage_log.to_dict()])
    return 0


def _cmd_stats(args) -> int:
    config = _load_effective_config(args)
    g = _load_graph(args.graph)
    report = compute_stats(g)
    if args.out:
        config.validate_out_dir()
        ingest.write_json(Path(config.out_dir) / "stats.json", report.to_dict())
    else:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _run_task_stage(args, stage: str):
    """Run the splits or audit stage on ``--graph``; ``--task`` flags, when
    given, replace the configured tasks."""
    config = _load_effective_config(args)
    if args.task:
        config.split_tasks = args.task
    runner = PipelineRunner(config, stage=stage)
    g, stage_log = runner.run_stage(stage, _load_graph(args.graph))
    runner.write(g, graph=None)  # the splits alone; the audit plans none
    return config, stage_log


def _cmd_split(args) -> int:
    config, _ = _run_task_stage(args, "splits")
    log.info("splits written to %s", Path(config.out_dir) / "splits")
    return 0


def _cmd_audit(args) -> int:
    config, stage_log = _run_task_stage(args, "audit")
    for key, value in sorted(stage_log.details.items()):
        log.info("%s = %d", key, value)
    log.info("report written to %s", Path(config.out_dir) / "leakage_report.json")
    return 0


def _cmd_validate_config(args) -> int:
    if not args.config:
        raise ConfigError("validate-config requires --config PATH")
    config = _load_effective_config(args)
    config.validate()
    print("config OK")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "stage": _cmd_stage,
    "stats": _cmd_stats,
    "split": _cmd_split,
    "audit": _cmd_audit,
    "validate-config": _cmd_validate_config,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(message)s",
    )
    # every loaded row is an object the collector tracks and none is in a
    # cycle: collect young objects less often, and restore the caller's policy
    threshold = gc.get_threshold()
    gc.set_threshold(100_000, 50, 100)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # every input read maps its OSError where it opens the file, so one
        # that reaches here came from writing an output; a failed rename
        # names the file it writes second
        where = exc.filename2 or exc.filename or "output"
        print(f"config error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    finally:
        gc.set_threshold(*threshold)


if __name__ == "__main__":
    sys.exit(main())

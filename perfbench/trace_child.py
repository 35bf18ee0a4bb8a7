"""Run the kgprep CLI once with per-layer tracing and dump the spans.

    python3 perfbench/trace_child.py TRACE_JSON -- KGPREP_ARGS...

``kgprep`` must be importable (the benchmark puts the checkout's ``src`` on
``PYTHONPATH``). Exits with the CLI's own status.
"""

from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    trace_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py TRACE_JSON -- KGPREP_ARGS...")
    from kgprep import cli

    tracer = layers.Tracer()
    layers.install(tracer)
    status = cli.main(cli_args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

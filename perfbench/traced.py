"""Run one program entry point with the layer timers installed.

Usage (``PYTHONPATH=src``, from the repository root)::

    python -X importtime perfbench/traced.py --out spans.json repro.experiments.run all --seed 0
    python -X importtime perfbench/traced.py --out spans.json repro.cli train ...

The module's ``main(argv)`` runs as ``python -m <module>`` would run it:
``repro.experiments.run`` runs ``EXPERIMENTS[name]``, ``repro.cli`` runs
any subcommand, ``serve`` included.  The per-layer self seconds and
counters are written to ``--out`` when the entry point returns,
including when a server is stopped with SIGINT.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, install  # noqa: E402

ENTRY_POINTS = ("repro.experiments.run", "repro.cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("module", choices=ENTRY_POINTS)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    entry = importlib.import_module(args.module)
    if args.argv[:1] == ["serve"]:
        importlib.import_module("repro.serving")
    from repro.nn.graph import plan_cache_stats

    tracer = Tracer()
    install(tracer)
    try:
        status = entry.main(args.argv)
    finally:
        report = tracer.report()
        report["plan_cache"] = plan_cache_stats()
        Path(args.out).write_text(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Serving-benchmark runner: concurrent vs sequential, write BENCH_serving.json.

Same discipline as ``run_pipeline.py``: :mod:`bench_serving` scenarios run
for ``--rounds`` rounds each (best round kept — thread-scheduling noise
only ever subtracts throughput), the payload is stamped with the machine
and the git commit it was generated at, and ``--check`` turns the runner
into a regression gate.

The gate holds three floors, all set far below healthy measurements so
they catch the serving layer *collapsing*, not slow hardware:

* ``SPEEDUP_FLOOR`` — concurrent micro-batched throughput over the
  sequential per-request baseline.  Falls to ~1.0x if batching silently
  degrades to one engine pass per request.
* ``FUSION_FLOOR`` — the concurrent scenario's mean batch size.  Falls
  to 1.0 if requests stop sharing passes.
* ``THROUGHPUT_FLOOR`` — absolute molecules/sec of the concurrent
  scenario.

Usage::

    PYTHONPATH=src python benchmarks/run_serving.py [--rounds N]
        [--output PATH] [--check]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_machine import git_commit, machine_stamp  # noqa: E402

SPEEDUP_FLOOR = 1.2
FUSION_FLOOR = 2.0
THROUGHPUT_FLOOR = 250.0  # molecules/sec; healthy machines measure 1000s


def best_of(rounds: int, scenario) -> dict:
    """Run ``scenario`` ``rounds`` times; keep the highest-throughput run."""
    best = None
    for _ in range(rounds):
        result = scenario()
        if best is None or result["molecules_per_sec"] > best[
                "molecules_per_sec"]:
            best = result
    return best


def main(argv=None) -> int:
    import bench_serving

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds per scenario, best kept (default 3)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_serving.json")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if speedup, fusion, or throughput "
                             "falls below its floor")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    bench_serving._checkpoint_path()  # build + warm outside the timers

    sequential = best_of(args.rounds, bench_serving.run_sequential)
    concurrent = best_of(args.rounds, bench_serving.run_scenario)
    for name, result in (("sequential", sequential),
                         ("concurrent", concurrent)):
        print(f"{name:>14s}  {result['molecules_per_sec']:8.1f} mol/s  "
              f"p50 {result['p50_latency_ms']:7.3f} ms  "
              f"p99 {result['p99_latency_ms']:7.3f} ms  "
              f"mean batch {result['mean_batch_size']:5.2f}",
              file=sys.stderr)

    speedup = round(
        concurrent["molecules_per_sec"] / sequential["molecules_per_sec"], 3
    )
    fusion = concurrent["mean_batch_size"]

    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": git_commit(),
        **machine_stamp(),
        "rounds": args.rounds,
        "workload": {
            "model": bench_serving.MODEL_SPEC["model"],
            "clients": bench_serving.CLIENTS,
            "requests_per_client": bench_serving.REQUESTS_PER_CLIENT,
            "samples_per_request": bench_serving.SAMPLES_PER_REQUEST,
            "molecules_per_run": bench_serving.MOLECULES_PER_RUN,
        },
        "sequential": sequential,
        "concurrent": concurrent,
        "speedup_vs_sequential": speedup,
        "floors": {
            "speedup_vs_sequential": SPEEDUP_FLOOR,
            "mean_batch_size": FUSION_FLOOR,
            "molecules_per_sec": THROUGHPUT_FLOOR,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        failures = []
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"REGRESSION serving speedup {speedup:.2f}x below floor "
                f"{SPEEDUP_FLOOR:.1f}x"
            )
        if fusion < FUSION_FLOOR:
            failures.append(
                f"REGRESSION mean batch size {fusion:.2f} below floor "
                f"{FUSION_FLOOR:.1f} — requests are not sharing passes"
            )
        if concurrent["molecules_per_sec"] < THROUGHPUT_FLOOR:
            failures.append(
                f"REGRESSION concurrent throughput "
                f"{concurrent['molecules_per_sec']:.1f} molecules/sec below "
                f"floor {THROUGHPUT_FLOOR:.1f}"
            )
        for line in failures:
            print(line, file=sys.stderr)
        if failures:
            return 1
        print("--check ok: 3 floor(s) held", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

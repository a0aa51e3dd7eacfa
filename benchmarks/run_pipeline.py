"""Pipeline-benchmark runner: time bench_pipeline.py, write BENCH_pipeline.json.

Same discipline as ``run_kernels.py``: every ``bench_*`` function in
:mod:`bench_pipeline` runs through the fixture shim of :mod:`bench_machine`
(a warm-up until the per-call time settles, then ``--rounds`` timed
rounds), each ``<name>`` / ``<name>_reference`` pair runs interleaved
round by round and its speedup
is the median of the per-round ratios, and molecules/sec throughput is
recorded for each stage.  The payload lands in ``BENCH_pipeline.json`` at
the repo root, stamped with the git commit it was generated at.
``--only`` keeps the partner of every benchmark it selects.

``--check`` turns the runner into a perf-regression gate: it fails (exit 1)
when a measured batched-vs-reference speedup drops below its floor in
:data:`SPEEDUP_FLOORS`, or when the batched pipeline's absolute throughput
falls below :data:`THROUGHPUT_FLOORS` (set far below any plausible
machine's numbers — they catch the batched path silently degrading to the
per-molecule loop, not slow hardware).

Usage::

    PYTHONPATH=src python benchmarks/run_pipeline.py [--only SUBSTR]
        [--rounds N] [--output PATH] [--check]
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

from bench_machine import (  # noqa: E402
    discover,
    git_commit,
    machine_stamp,
    time_benchmarks,
)

_REFERENCE_SUFFIX = "_reference"

# Floors asserted by --check: the measured batched/reference speedup must
# stay at or above these.  Values sit well below the ratios recorded in
# BENCH_pipeline.json so machine noise does not trip the gate, while still
# catching a real regression — the batched path falling back to per-molecule
# scoring shows up as ~1.0x, far below every floor.
SPEEDUP_FLOORS = {
    "bench_score_pipeline_256": 3.0,
}

# Absolute molecules/sec floors for the batched stages.  Deliberately an
# order of magnitude below single-core measurements: they gate on the
# pipeline collapsing (e.g. a cache stops working and every scorer
# recomputes its graph contexts), not on runner hardware.
THROUGHPUT_FLOORS = {
    "bench_score_pipeline_256": 60.0,
}


def pairs(names) -> list[tuple[str, str]]:
    """``(measured, baseline)`` for every ``<name>`` /
    ``<name>_reference`` pair among ``names``."""
    return [
        (name, name + _REFERENCE_SUFFIX)
        for name in names
        if name + _REFERENCE_SUFFIX in names
    ]


def throughputs(results: dict) -> dict:
    """Molecules/sec per stage, from bench_pipeline's per-call counts."""
    import bench_pipeline

    out = {}
    for name, stats in results.items():
        count = bench_pipeline.MOLECULES_PER_CALL.get(name)
        if count and stats["min_s"] > 0:
            out[name] = round(count / stats["min_s"], 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="substring filter on benchmark names")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed rounds per benchmark (default 5)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_pipeline.json")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any measured speedup or throughput "
                             "falls below its floor")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    import bench_pipeline

    benches = discover(bench_pipeline, args.only, pairs)
    if not benches:
        print(f"no benchmarks match --only {args.only!r}; not writing output",
              file=sys.stderr)
        return 1

    results, ratios = time_benchmarks(benches, pairs, args.rounds)
    for name, stats in results.items():
        print(f"{name:44s} min {stats['min_s'] * 1e3:10.3f} ms  "
              f"mean {stats['mean_s'] * 1e3:10.3f} ms", file=sys.stderr)

    measured = {name: ratio for (name, __), ratio in sorted(ratios.items())}
    measured_throughput = throughputs(results)
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": git_commit(),
        **machine_stamp(),
        "rounds": args.rounds,
        "benchmarks": results,
        "speedup_vs_reference": measured,
        "molecules_per_sec": measured_throughput,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        failures = []
        checked = []
        for name, floor in sorted(SPEEDUP_FLOORS.items()):
            if name not in measured:
                print(f"warning: floored benchmark {name} was not measured "
                      f"(filtered by --only?)", file=sys.stderr)
                continue
            checked.append(name)
            if measured[name] < floor:
                failures.append(
                    f"REGRESSION {name}: speedup {measured[name]:.2f}x "
                    f"below floor {floor:.1f}x"
                )
        for name, floor in sorted(THROUGHPUT_FLOORS.items()):
            if name not in measured_throughput:
                print(f"warning: throughput-floored benchmark {name} was "
                      f"not measured (filtered by --only?)", file=sys.stderr)
                continue
            checked.append(name + ":throughput")
            if measured_throughput[name] < floor:
                failures.append(
                    f"REGRESSION {name}: {measured_throughput[name]:.1f} "
                    f"molecules/sec below floor {floor:.1f}"
                )
        for line in failures:
            print(line, file=sys.stderr)
        if failures:
            return 1
        if not checked:
            print("--check measured no floored benchmark; refusing to pass "
                  "an empty gate", file=sys.stderr)
            return 1
        print(f"--check ok: {len(checked)} floor(s) held", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

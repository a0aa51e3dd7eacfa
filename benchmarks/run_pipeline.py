"""Pipeline-benchmark runner: time bench_pipeline.py, write BENCH_pipeline.json.

Same discipline as ``run_kernels.py``: every ``bench_*`` function in
:mod:`bench_pipeline` runs under a minimal pytest-benchmark shim (one
warmup + min-of-rounds), speedups are derived for every ``<name>`` /
``<name>_reference`` pair, and molecules/sec throughput is recorded for
each stage.  The payload lands in ``BENCH_pipeline.json`` at the repo root,
stamped with the git commit it was generated at.

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
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_machine import machine_stamp  # noqa: E402

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


def git_commit() -> str | None:
    """The commit the benchmarked tree is based on, or None outside git.

    Suffixed with ``-dirty`` when the working tree has uncommitted changes,
    so BENCH_pipeline.json never attributes numbers measured on modified
    code to a clean commit.
    """
    def _git(*args):
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = _git("rev-parse", "HEAD")
    if head is None:
        return None
    status = _git("status", "--porcelain")
    dirty = "-dirty" if status is None or status.strip() else ""
    return head.strip() + dirty


class TimerShim:
    """Duck-types the pytest-benchmark fixture: ``benchmark(fn)``.  Times
    min/mean over ``rounds`` calls after one warmup (the warmup also absorbs
    corpus construction and fragment-table caching, so steady-state pipeline
    cost is what gets recorded)."""

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.stats: dict[str, float] | None = None

    def __call__(self, fn):
        result = fn()  # warmup
        times = []
        for _ in range(self.rounds):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        self.stats = {
            "min_s": min(times),
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
            "rounds": self.rounds,
        }
        return result


def discover(only: str | None):
    import bench_pipeline

    benches = []
    for name, fn in inspect.getmembers(bench_pipeline, inspect.isfunction):
        if not name.startswith("bench_"):
            continue
        if only and only not in name:
            continue
        params = inspect.signature(fn).parameters
        if list(params) != ["benchmark"]:
            continue
        benches.append((name, fn))
    return sorted(benches)


def speedups(results: dict) -> dict:
    """reference-time / batched-time for every ``<name>``/``<name>_reference``
    pair."""
    out = {}
    for name, stats in results.items():
        baseline = results.get(name + _REFERENCE_SUFFIX)
        if baseline:
            out[name] = round(baseline["min_s"] / stats["min_s"], 3)
    return out


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

    benches = discover(args.only)
    if not benches:
        print(f"no benchmarks match --only {args.only!r}; not writing output",
              file=sys.stderr)
        return 1

    results: dict[str, dict] = {}
    for name, fn in benches:
        shim = TimerShim(args.rounds)
        fn(shim)
        results[name] = shim.stats
        print(f"{name:44s} min {shim.stats['min_s'] * 1e3:10.3f} ms  "
              f"mean {shim.stats['mean_s'] * 1e3:10.3f} ms", file=sys.stderr)

    measured = speedups(results)
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

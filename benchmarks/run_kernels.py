"""Benchmark-regression runner: time bench_kernels.py, write BENCH_kernels.json.

The kernel micro-benchmarks in :mod:`bench_kernels` are written against the
pytest-benchmark fixture API, but tracking a perf trajectory across PRs needs
a dependency-free, scriptable entry point.  This runner calls every
``bench_*`` function with a minimal fixture shim (warmup + min-of-rounds
timing), derives compiled-vs-naive speedups for the benchmark pairs that have
a ``*_naive`` baseline, and writes everything to ``BENCH_kernels.json`` at
the repo root — the file future PRs diff against.

Each payload is stamped with the git commit it was generated at, and
``--check`` turns the runner into a perf-regression gate: it fails (exit 1)
when any measured compiled/stacked-vs-naive speedup drops below its floor in
:data:`SPEEDUP_FLOORS`, which makes the perf trajectory enforceable in CI.

Usage::

    PYTHONPATH=src python benchmarks/run_kernels.py [--only SUBSTR]
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

_NAIVE_SUFFIX = "_naive"
_C64_SUFFIX = "_c64"

# Floors asserted by --check: the measured speedup of each benchmark over its
# ``*_naive`` baseline must stay at or above these.  Values sit well below
# the ratios recorded in BENCH_kernels.json so machine noise does not trip
# the gate, while still catching a real regression (e.g. the stacked patched
# path falling back to the per-patch loop).
SPEEDUP_FLOORS = {
    "bench_circuit_forward_8q_5layers": 3.0,
    "bench_adjoint_backward_8q_5layers": 1.5,
    # The unified per-instance adjoint (transition-matrix backward on the
    # stacked substrate at p=1) vs the per-parameter generator reference,
    # at the issue's gate geometry: n=8, 3-layer Rot+ring.
    "bench_compiled_adjoint_unified": 1.5,
    # Stacked-vs-sequential floors: the sequential per-patch baseline now
    # runs the same unified transition-matrix backward per patch, so the
    # stacked win is amortized invocation overhead (~2.3x measured at
    # p16/p8_b8) rather than the pre-unification ~3.7-5.9x over the old
    # generator-insertion loop.  The regression these floors catch — the
    # layer silently falling back to the sequential loop — shows up as
    # ~1.0x, far below them.
    "bench_patched_fwd_bwd_p8": 1.2,
    "bench_patched_fwd_bwd_p8_b8": 1.8,
    "bench_patched_fwd_bwd_p16": 1.8,
    # In-place chunked Adam steps vs the allocating expression they
    # replaced: 1.40-1.73x over 14 runs at 5 and 15 rounds on the 2-CPU
    # Xeon host, where the allocating steps timed twice read 0.95-1.09x.
    # Steps that fell back to full-size temporaries would read ~1.0x here,
    # while repro-quick, whose 0.25 bound lets that loss through, would
    # slow by about a tenth.
    "bench_adam_step_1024x256": 1.2,
}

# Floors for the float32/complex64 precision mode: each ``<name>_c64``
# benchmark is measured against its complex128 twin ``<name>``.  The
# headline gate is the bandwidth-bound large-batch stacked pass
# (p=8/batch=32), where halving the bytes per kernel must stay worth at
# least 1.3x fwd+bwd.  The secondary floors sit at 1.05 — locally they
# measure 1.2-1.4x, but shared CI runners and differing BLAS builds add
# noise, and the regression these catch (a path silently widening back to
# complex128) shows up as a ratio of ~1.0.
#
# The compiled-adjoint c64 ratio is recorded but deliberately NOT floored:
# after the adjoint unification the per-instance backward does a fraction
# of the former dense work, its c64 win shrank to ~1.13x, and a 1.05 floor
# could no longer separate a real widening (~1.0) from runner noise.  The
# forward and stacked c64 floors remain the widening tripwires.
C64_SPEEDUP_FLOORS = {
    "bench_patched_fwd_bwd_p8_c64": 1.3,
    "bench_patched_fwd_bwd_p16_c64": 1.05,
    "bench_circuit_forward_8q_5layers_c64": 1.05,
}

def git_commit() -> str | None:
    """The commit the benchmarked tree is based on, or None outside git.

    Suffixed with ``-dirty`` when the working tree has uncommitted changes,
    so BENCH_kernels.json never attributes numbers measured on modified
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
    """Duck-types the pytest-benchmark fixture: ``benchmark(fn)`` and
    ``benchmark.pedantic(fn, ...)``.  Times min/mean over ``rounds`` calls
    after one warmup (the warmup also absorbs one-time plan compilation, so
    steady-state kernel cost is what gets recorded)."""

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

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0):
        kwargs = kwargs or {}
        for _ in range(warmup_rounds):
            fn(*args, **kwargs)
        times = []
        result = None
        for _ in range(max(rounds, 1)):
            start = time.perf_counter()
            for _ in range(max(iterations, 1)):
                result = fn(*args, **kwargs)
            times.append((time.perf_counter() - start) / max(iterations, 1))
        self.stats = {
            "min_s": min(times),
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
            "rounds": rounds,
        }
        return result


def discover(only: str | None):
    import bench_kernels

    benches = []
    for name, fn in inspect.getmembers(bench_kernels, inspect.isfunction):
        if not name.startswith("bench_"):
            continue
        if only and only not in name:
            continue
        params = inspect.signature(fn).parameters
        if list(params) != ["benchmark"]:
            continue
        benches.append((name, fn))
    return sorted(benches)


def _ratio_pairs(results: dict, pair) -> dict:
    """baseline-time / measured-time for every pair ``pair(name) -> (key,
    baseline_name)``; ``pair`` returns None for unpaired benchmarks."""
    out = {}
    for name, stats in results.items():
        mapped = pair(name)
        if mapped is None:
            continue
        key, baseline_name = mapped
        baseline = results.get(baseline_name)
        if baseline:
            out[key] = round(baseline["min_s"] / stats["min_s"], 3)
    return out


def speedups(results: dict) -> dict:
    """naive-time / compiled-time for every ``<name>`` / ``<name>_naive`` pair."""
    return _ratio_pairs(results, lambda name: (name, name + _NAIVE_SUFFIX))


def c64_speedups(results: dict) -> dict:
    """complex128-time / complex64-time for every ``<name>_c64`` / ``<name>``
    pair — the measured win of the float32/complex64 precision mode."""
    return _ratio_pairs(
        results,
        lambda name: (name, name[: -len(_C64_SUFFIX)])
        if name.endswith(_C64_SUFFIX)
        else None,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="substring filter on benchmark names")
    parser.add_argument("--rounds", type=int, default=15,
                        help="timed rounds per benchmark (default 15)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_kernels.json")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any measured speedup falls below its "
                             "floor in SPEEDUP_FLOORS")
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
        print(f"{name:48s} min {shim.stats['min_s'] * 1e3:10.3f} ms  "
              f"mean {shim.stats['mean_s'] * 1e3:10.3f} ms", file=sys.stderr)

    measured = speedups(results)
    measured_c64 = c64_speedups(results)
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": git_commit(),
        **machine_stamp(),
        "rounds": args.rounds,
        "benchmarks": results,
        "speedup_vs_naive": measured,
        "speedup_c64_vs_c128": measured_c64,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        gates = [
            (SPEEDUP_FLOORS, measured),
            (C64_SPEEDUP_FLOORS, measured_c64),
        ]
        failures = []
        checked = []
        for floors, ratios in gates:
            checked += [name for name in floors if name in ratios]
            for name in sorted(set(floors) - set(ratios)):
                print(f"warning: floored benchmark {name} was not measured "
                      f"(filtered by --only?)", file=sys.stderr)
            failures += [
                (name, ratios[name], floor)
                for name, floor in sorted(floors.items())
                if name in ratios and ratios[name] < floor
            ]
        for name, got, floor in failures:
            print(f"REGRESSION {name}: speedup {got:.2f}x below floor "
                  f"{floor:.1f}x", file=sys.stderr)
        if failures:
            return 1
        if not checked:
            print("--check measured no floored benchmark; refusing to pass "
                  "an empty gate", file=sys.stderr)
            return 1
        print(f"--check ok: {len(checked)} speedup floor(s) held",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

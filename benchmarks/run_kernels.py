"""Benchmark-regression runner: time bench_kernels.py, write BENCH_kernels.json.

The kernel micro-benchmarks in :mod:`bench_kernels` are written against the
pytest-benchmark fixture API, but tracking a perf trajectory across PRs needs
a dependency-free, scriptable entry point.  This runner calls every
``bench_*`` function through the fixture shim of :mod:`bench_machine`
(a warm-up until the per-call time settles, then ``--rounds`` timed
rounds), derives compiled-vs-naive speedups for the benchmarks that have
a ``*_naive`` baseline and complex64-vs-complex128 speedups for the
``*_c64`` ones, and writes
everything to ``BENCH_kernels.json`` at the repo root — the file future
PRs diff against.  The two sides of each pair run interleaved, round by
round, and a speedup is the median of the per-round ratios
(:func:`bench_machine.time_benchmarks`).  ``--only`` keeps the partner of
every benchmark it selects.

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
    # Since Linear weights are F-ordered the in-place step no longer
    # transposes the gradient: 1.48-1.73x over 10 runs at 5 rounds, against
    # 1.36-1.62x for the C weight in the same interleaved batch.
    # Steps that fell back to full-size temporaries would read ~1.0x here,
    # while repro-quick, whose 0.25 bound lets that loss through, would
    # slow by about a tenth.
    "bench_adam_step_1024x256": 1.2,
    # Training steps of a 1024-256-1024 MLP with the weights as Linear
    # builds them (F-ordered) vs C copies, which pay a transposing copy of
    # each weight in every forward and every Adam step: medians of
    # 1.81-1.96x over 10 runs at 5 rounds on the 2-CPU Xeon host, 2 BLAS
    # threads.  A Linear that went back to C weights reads ~1.0x here.
    "bench_linear_train_step": 1.5,
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


def pairs(names) -> list[tuple[str, str]]:
    """``(measured, baseline)`` for every ``<name>`` / ``<name>_naive`` and
    every ``<name>_c64`` / ``<name>`` pair among ``names``."""
    out = []
    for name in names:
        if name + _NAIVE_SUFFIX in names:
            out.append((name, name + _NAIVE_SUFFIX))
        if name.endswith(_C64_SUFFIX) and name[: -len(_C64_SUFFIX)] in names:
            out.append((name, name[: -len(_C64_SUFFIX)]))
    return out


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

    import bench_kernels

    benches = discover(bench_kernels, args.only, pairs)
    if not benches:
        print(f"no benchmarks match --only {args.only!r}; not writing output",
              file=sys.stderr)
        return 1

    results, ratios = time_benchmarks(benches, pairs, args.rounds)
    for name, stats in results.items():
        print(f"{name:48s} min {stats['min_s'] * 1e3:10.3f} ms  "
              f"mean {stats['mean_s'] * 1e3:10.3f} ms", file=sys.stderr)

    measured = {
        name: ratio for (name, baseline), ratio in sorted(ratios.items())
        if baseline == name + _NAIVE_SUFFIX
    }
    measured_c64 = {
        name: ratio for (name, __), ratio in sorted(ratios.items())
        if name.endswith(_C64_SUFFIX)
    }
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
        for floors, values in gates:
            checked += [name for name in floors if name in values]
            for name in sorted(set(floors) - set(values)):
                print(f"warning: floored benchmark {name} was not measured "
                      f"(filtered by --only?)", file=sys.stderr)
            failures += [
                (name, values[name], floor)
                for name, floor in sorted(floors.items())
                if name in values and values[name] < floor
            ]
        for name, got, floor in failures:
            print(f"REGRESSION {name}: speedup {got:.2f}x below floor "
                  f"{floor:.2f}x", file=sys.stderr)
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

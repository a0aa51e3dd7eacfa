"""What the benchmark runners share: the machine stamp, the commit, timing.

Benchmark floors are only comparable between runs on similar hardware, so
each runner records the CPU count, the BLAS implementation numpy was
built against and the number of threads that BLAS runs with next to its
timings, plus the git commit they were taken at.  Kept defensive:
``np.show_config`` grew its machine-readable ``mode="dicts"`` form in
numpy 1.25, and the layout of the returned dict is not a stable API — any
shape surprise degrades to ``None`` rather than failing a benchmark run.

``run_kernels.py`` and ``run_pipeline.py`` time ``bench_*`` functions
written against the pytest-benchmark fixture API through
:func:`discover` and :func:`time_benchmarks`.  A floored speedup is the
ratio of two benchmarks, and the host's speed drifts while they run, so
the benchmarks of every pair are timed round by round, in alternating
order, and the speedup is the median of the per-round ratios: drift then
lands on both sides of each ratio instead of between two minima taken
seconds apart.
"""

from __future__ import annotations

import ctypes
import inspect
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def blas_vendor() -> str | None:
    """The BLAS library name numpy reports, or None when undetectable."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25: show_config() prints, no dict mode
        return None
    except Exception:
        return None
    if not isinstance(cfg, dict):
        return None
    deps = cfg.get("Build Dependencies")
    if not isinstance(deps, dict):
        return None
    blas = deps.get("blas")
    if not isinstance(blas, dict):
        return None
    name = blas.get("name")
    return name if isinstance(name, str) and name else None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs with, or None if undetectable.

    Asked of the loaded library itself, so the answer reflects
    ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` as OpenBLAS read them.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def machine_stamp() -> dict:
    """Keys merged into every benchmark payload."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas": blas_vendor(),
        "blas_threads": blas_threads(),
    }


def git_commit() -> str | None:
    """The commit the benchmarked tree is based on, or None outside git.

    Suffixed with ``-dirty`` when the working tree has uncommitted changes,
    so a ``BENCH_*.json`` file never attributes numbers measured on
    modified code to a clean commit.
    """
    def _git(*args):
        try:
            proc = subprocess.run(
                ["git", *args], cwd=REPO_ROOT, capture_output=True,
                text=True, timeout=10,
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


# Warm-up before the first timed round: at least WARMUP_S of calls, and
# on until the last two calls agree within a factor SETTLED, for at most
# WARMUP_CALLS calls or WARMUP_MAX_S.  One call used to be the whole
# warm-up, and 1-5 ms kernels then timed at ~40 ms for the first 2-3
# rounds on the 2-CPU host.
WARMUP_S = 0.25
SETTLED = 1.25
WARMUP_CALLS = 1000
WARMUP_MAX_S = 2.0


class TimerShim:
    """Duck-types the pytest-benchmark fixture's ``benchmark(fn)``: runs
    ``fn`` once (which absorbs one-time plan compilation and caches) and
    keeps it for :func:`time_benchmarks`, which warms it further."""

    def __init__(self):
        self.fn = None

    def __call__(self, fn):
        self.fn = fn
        return fn()


def discover(module, only: str | None, pairs) -> dict:
    """``bench_*`` functions of ``module`` taking only ``benchmark``.

    ``pairs(names)`` lists the ``(measured, baseline)`` pairs among
    ``names``.  With ``only``, the names containing it are kept together
    with the partner of each, so every pair a selected benchmark belongs
    to is still measured.
    """
    benches = {
        name: fn
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if name.startswith("bench_")
        and list(inspect.signature(fn).parameters) == ["benchmark"]
    }
    if only:
        selected = {name for name in benches if only in name}
        kept = set(selected)
        for measured, baseline in pairs(benches):
            if measured in selected or baseline in selected:
                kept |= {measured, baseline}
        benches = {name: benches[name] for name in kept}
    return dict(sorted(benches.items()))


def warm_up(fn) -> int:
    """Call ``fn`` until its per-call time settles; return the call count.

    Stops once the calls add up to ``WARMUP_S`` and the last two agree
    within a factor ``SETTLED``, or after ``WARMUP_CALLS`` calls or
    ``WARMUP_MAX_S`` seconds, whichever comes first.
    """
    spent, last = 0.0, None
    for calls in range(1, WARMUP_CALLS + 1):
        start = time.perf_counter()
        fn()
        lap = time.perf_counter() - start
        spent += lap
        settled = (last is not None
                   and max(lap, last) <= SETTLED * min(lap, last))
        if spent >= WARMUP_S and settled or spent >= WARMUP_MAX_S:
            break
        last = lap
    return calls


def time_benchmarks(benches: dict, pairs, rounds: int):
    """Time every benchmark; return its stats and every pair's speedup.

    Benchmarks linked by ``pairs(names)`` (its ``(measured, baseline)``
    pairs) form one group.  Each member is warmed (:func:`warm_up`), then
    the group is timed round by round: in name order, and in reverse on
    every other round, so each side of a pair runs first in half the
    rounds.  Returns ``(results, ratios)``: per benchmark its
    min/mean/max seconds over ``rounds``, and per pair the median over
    rounds of baseline time / measured time.
    """
    links = pairs(benches)
    group = {name: {name} for name in benches}
    for measured, baseline in links:
        merged = group[measured] | group[baseline]
        for name in merged:
            group[name] = merged
    laps: dict[str, list[float]] = {}
    for members in sorted({tuple(sorted(g)) for g in group.values()}):
        fns = []
        for name in members:
            shim = TimerShim()
            benches[name](shim)
            warm_up(shim.fn)
            fns.append(shim.fn)
            laps[name] = []
        order = list(range(len(members)))
        for r in range(rounds):
            for i in order if r % 2 == 0 else order[::-1]:
                start = time.perf_counter()
                fns[i]()
                laps[members[i]].append(time.perf_counter() - start)
    results = {
        name: {
            "min_s": min(times),
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
            "rounds": rounds,
        }
        for name, times in sorted(laps.items())
    }
    ratios = {
        (measured, baseline): round(statistics.median(
            slow / fast
            for fast, slow in zip(laps[measured], laps[baseline])
        ), 3)
        for measured, baseline in links
    }
    return results, ratios

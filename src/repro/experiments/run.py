"""Command-line experiment runner.

Usage::

    python -m repro.experiments.run table1
    python -m repro.experiments.run fig6 --seed 3
    python -m repro.experiments.run all
    REPRO_FULL=1 python -m repro.experiments.run table2

Prints the same rows/series the paper's table or figure reports.

The experiments are independent and seeded, so ``all`` runs them in a
spawn-context process pool with one worker per usable CPU, at most one
per experiment.  Each worker returns its experiment's printed block
(header, table and panels) and the parent prints the blocks in the
order above as they arrive: the output equals the in-process loop's,
apart from the ``(N.Ns)`` timings in the headers.

Workers start with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1, before numpy loads in them: processes that
each run multi-threaded BLAS oversubscribe the cores and finish later
than one process would.  The variables are restored in the parent once
the pool is shut down; ``REPRO_FULL`` reaches the workers through the
same inherited environment.

The CPU affinity sets the pool size, so a single usable CPU runs the
experiments one after another in this process, as does a single
experiment::

    taskset -c 0 python -m repro.experiments.run all

If an experiment raises in a worker, or the run is interrupted, the
pending experiments are cancelled, the running workers are terminated,
and the exception propagates with the worker's traceback attached.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager

from ..cli import _non_negative_int
from . import (
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table1,
    run_table2,
    get_scale,
)
from .fig4 import Fig4Config
from .fig5 import Fig5Config
from .fig6 import Fig6Config
from .fig7 import Fig7Config
from .fig8 import Fig8Config
from .table2 import Table2Config

__all__ = ["main"]

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")


def _run_table1(seed: int):
    return run_table1(seed=seed)


def _run_table2(seed: int):
    return run_table2(Table2Config.from_scale(seed=seed))


def _run_fig4(seed: int):
    return run_fig4(Fig4Config.from_scale(seed=seed))


def _run_fig5(seed: int):
    return run_fig5(Fig5Config.from_scale(seed=seed))


def _run_fig6(seed: int):
    return run_fig6(Fig6Config.from_scale(seed=seed))


def _run_fig7(seed: int):
    return run_fig7(Fig7Config.from_scale(seed=seed))


def _run_fig8(seed: int):
    return run_fig8(Fig8Config.from_scale(seed=seed))


EXPERIMENTS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
}


def _block(name: str, seed: int) -> str:
    """Run one experiment and return the text the runner prints for it."""
    start = time.time()
    result = EXPERIMENTS[name](seed)
    elapsed = time.time() - start
    parts = [f"\n=== {name} ({elapsed:.1f}s) ===\n",
             result.format_table(), "\n"]
    for attr in ("digit_panel", "molecule_panel", "cifar_panel"):
        panel = getattr(result, attr, "")
        if panel:
            parts.append(f"\n--- {attr} ---\n{panel}\n")
    return "".join(parts)


@contextmanager
def _single_threaded_blas():
    """Set the BLAS thread variables to 1 for the processes started inside."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run(names: list[str], seed: int, workers: int) -> None:
    """Print each experiment's block in ``names`` order.

    With fewer than two ``workers`` the experiments run here, one after
    another.  Otherwise they run in a process pool, and each block is
    printed once it and every block before it have arrived.
    """
    if workers < 2:
        for name in names:
            print(_block(name, seed), end="", flush=True)
        return

    # Imported here, not at module level: spawned workers import this
    # module first, and a plain import of the runner stays cheap.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    blocks: list[str | None] = [None] * len(names)
    printed = 0
    with _single_threaded_blas(), ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        try:
            futures = {pool.submit(_block, name, seed): index
                       for index, name in enumerate(names)}
            for future in as_completed(futures):
                blocks[futures[future]] = future.result()
                while printed < len(blocks) and blocks[printed] is not None:
                    print(blocks[printed], end="", flush=True)
                    printed += 1
        except BaseException:
            # Python 3.14's ProcessPoolExecutor.terminate_workers() does
            # this; shutdown() alone would wait for the running experiments.
            # Only the executor's manager thread reaps the terminated
            # workers, and shutdown(wait=True) waits for it: a second
            # join() from this thread could lose the waitpid race and
            # return before the exit is recorded, leaving the worker listed.
            for process in list(pool._processes.values()):
                process.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
            raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run",
        description="Reproduce one table/figure from the paper.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    scale = get_scale()
    print(f"scale: {scale.name} (set REPRO_FULL=1 for paper-scale runs)")
    _run(names, args.seed, min(len(names), len(os.sched_getaffinity(0))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared machine stamp for every ``BENCH_*.json`` payload.

Benchmark floors are only comparable between runs on similar hardware, so
each runner records the CPU count, the BLAS implementation numpy was
built against and the number of threads that BLAS runs with next to its
timings.  Kept defensive: ``np.show_config``
grew its machine-readable ``mode="dicts"`` form in numpy 1.25, and the
layout of the returned dict is not a stable API — any shape surprise
degrades to ``None`` rather than failing a benchmark run.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


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

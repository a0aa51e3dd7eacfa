"""Parse ``python -X importtime`` output into per-package import seconds.

Each ``import time:`` line gives one module's self and cumulative
microseconds.  Self times never overlap, so summing them by the module's
top-level package attributes every microsecond exactly once: a
``scipy.stats`` pulled in from inside ``repro.evaluation`` counts for
``scipy``, not for ``repro``.  The total is the sum over every module,
which equals the sum of the top-level cumulative times.
"""

from __future__ import annotations

import re

_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")


def package_seconds(text: str) -> dict[str, float]:
    """Self seconds per top-level package, from ``-X importtime`` stderr.

    Lines that are not import timings (the header, warnings the program
    wrote to stderr) are skipped.
    """
    totals: dict[str, float] = {}
    for line in text.splitlines():
        match = _LINE.match(line)
        if match is None:
            continue
        package = match.group(3).split(".", 1)[0]
        totals[package] = totals.get(package, 0.0) + int(match.group(1)) / 1e6
    return totals


def import_metrics(text: str) -> dict[str, float]:
    """The ``imports.*`` per-layer metrics from one process's importtime."""
    seconds = package_seconds(text)
    return {
        "imports.total_s": sum(seconds.values()),
        "imports.scipy_s": seconds.get("scipy", 0.0),
        "imports.networkx_s": seconds.get("networkx", 0.0),
        "imports.repro_self_s": seconds.get("repro", 0.0),
    }

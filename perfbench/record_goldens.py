"""Record the ``repro-quick`` output goldens at the recorded seed.

Run from the repository root after a change that is meant to alter the
reproduction's results::

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens.json``: every number each experiment prints
at seed 0, compared with plain ``==`` by ``run.py`` at that seed and
used for the cell count at every other seed.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, EXPERIMENTS, Run, run_experiments

RECORDED_SEED = 0


def main() -> int:
    run = Run("record-goldens", RECORDED_SEED, 0)
    try:
        __, code, parsed = run_experiments(run)
    finally:
        run.close()
    missing = [name for name in EXPERIMENTS if name not in parsed]
    if code != 0 or missing:
        print(f"experiments.run failed (exit {code}, missing {missing})",
              file=sys.stderr)
        return 1
    goldens = {"seed": RECORDED_SEED,
               "experiments": {name: parsed[name][1] for name in EXPERIMENTS}}
    (BENCH / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The runtime needs numpy and the standard library, nothing else."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def test_entry_points_load_neither_scipy_nor_networkx():
    probe = (
        "import sys\n"
        "import repro.cli, repro.experiments.run, repro.serving\n"
        "print(sorted({name.split('.')[0] for name in sys.modules}"
        " & {'scipy', 'networkx'}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

"""The runtime needs numpy and the standard library, nothing else."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _loaded_after(statement: str, modules: set[str]) -> str:
    """Which of ``modules`` a fresh interpreter holds after ``statement``."""
    probe = (
        "import sys\n"
        f"{statement}\n"
        f"print(sorted(set(sys.modules) & {modules!r}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_entry_points_load_neither_scipy_nor_networkx():
    assert _loaded_after("import repro.cli, repro.experiments.run, repro.serving",
                         {"scipy", "networkx"}) == "[]"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serving",
                                    "repro.training"])
def test_entry_points_import_no_process_machinery(module):
    # The experiment runner's pool is the repo's one use of worker
    # processes, so nothing else may pay for importing their machinery.
    assert _loaded_after(f"import {module}",
                         {"multiprocessing", "concurrent.futures.process"}) == "[]"


@pytest.mark.parametrize("module", ["repro.cli", "repro.experiments.run",
                                    "repro.training"])
def test_entry_points_import_no_thread_pool(module):
    # The quantum kernels are plain NumPy calls; only the serving batcher
    # (Future) and the experiment pool (inside main) use concurrent.futures.
    assert _loaded_after(f"import {module}", {"concurrent.futures"}) == "[]"


def test_experiment_runner_imports_no_process_machinery():
    # Pool workers import the runner before they run anything, and so
    # does repro-quick's set-up probe: the pool is imported inside main.
    assert _loaded_after("import repro.experiments.run",
                         {"multiprocessing", "concurrent.futures.process"}) == "[]"

"""Molecule-pipeline benchmarks: batched vs per-molecule reference scoring.

Times the Table II evaluation path — decode -> sanitize -> QED/logP/SA ->
uniqueness — end to end on a representative noisy ligand stack.  Every
``bench_*`` function has a ``*_reference`` twin running the kept per-molecule scalar
path on the same workload; the two produce bit-for-bit identical values
(enforced by ``tests/chem/test_batch_equivalence.py``), so the recorded
ratio is pure pipeline speedup.

Written against the pytest-benchmark fixture API; ``run_pipeline.py``
drives the same functions with a minimal shim and records molecules/sec
into ``BENCH_pipeline.json``.

The workload is 256 PDBbind-like 32x32 ligand matrices perturbed with
seeded Gaussian noise — the shape of real model samples: a mix of strictly
valid molecules, repairable ones, and wrecks the sanitizer must shed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.chem.metrics import score_matrices, score_matrices_reference
from repro.chem.sa import default_fragment_table
from repro.data import load_pdbbind_ligands

PIPELINE_N = 256
NOISE_SEED = 617
NOISE_SIGMA = 0.35

# Molecules processed per call, used by run_pipeline.py to report
# molecules/sec for each stage.
MOLECULES_PER_CALL = {
    "bench_score_pipeline_256": PIPELINE_N,
    "bench_score_pipeline_256_reference": PIPELINE_N,
}


@lru_cache(maxsize=1)
def _noisy_stack() -> np.ndarray:
    """256 seeded ligand matrices + Gaussian noise (model-sample-shaped)."""
    raw = load_pdbbind_ligands(PIPELINE_N, seed=2019).raw.astype(np.float64)
    rng = np.random.default_rng(NOISE_SEED)
    return raw + rng.normal(0.0, NOISE_SIGMA, size=raw.shape)


# ----------------------------------------------------------------------
# decode -> sanitize -> score, end to end
# ----------------------------------------------------------------------
def bench_score_pipeline_256(benchmark):
    stack = _noisy_stack()
    table = default_fragment_table()
    benchmark(lambda: score_matrices(stack, table=table))


def bench_score_pipeline_256_reference(benchmark):
    stack = _noisy_stack()
    table = default_fragment_table()
    benchmark(lambda: score_matrices_reference(stack, table=table))

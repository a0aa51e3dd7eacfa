"""Synthetic QM9-like small-molecule dataset (8x8 molecule matrices).

The real QM9 holds ~134k organic molecules with up to 9 heavy atoms drawn
from C/N/O/F.  The paper learns the 8x8 (= 64 = 2**6 feature) encoding so
amplitude embedding maps one molecule onto 6 qubits; this generator emits
exactly that encoding for seeded, valence-correct molecules with <= 8 heavy
atoms and a QM9-like element distribution.
"""

from __future__ import annotations

import numpy as np

from ..chem.generation import MoleculeSpec, random_molecule
from ..chem.matrix import encode_molecule
from .loader import ArrayDataset

__all__ = ["QM9_MATRIX_SIZE", "qm9_spec", "load_qm9"]

QM9_MATRIX_SIZE = 8


def qm9_spec() -> MoleculeSpec:
    """Molecule distribution mirroring QM9's composition statistics."""
    return MoleculeSpec(
        min_atoms=4,
        max_atoms=QM9_MATRIX_SIZE,
        hetero_weights={"N": 0.11, "O": 0.15, "F": 0.02},
        ring_closure_prob=0.3,
        max_ring_closures=2,
        double_bond_prob=0.25,
        triple_bond_prob=0.04,
        aromatize_prob=0.5,
    )


def iter_qm9_matrices(n_samples: int, seed: int = 2022):
    """Yield the QM9-like matrices one at a time (single sequential rng).

    Generation consumes one rng stream in sample order; :func:`load_qm9`
    stacks exactly what this yields.
    """
    rng = np.random.default_rng(seed)
    spec = qm9_spec()
    for _ in range(n_samples):
        yield encode_molecule(random_molecule(rng, spec), QM9_MATRIX_SIZE)


def load_qm9(n_samples: int = 1024, seed: int = 2022) -> ArrayDataset:
    """Generate the dataset: features ``(n, 64)`` float, raw ``(n, 8, 8)`` int."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    matrices = np.empty((n_samples, QM9_MATRIX_SIZE, QM9_MATRIX_SIZE), dtype=np.int64)
    for index, matrix in enumerate(iter_qm9_matrices(n_samples, seed)):
        matrices[index] = matrix
    features = matrices.reshape(n_samples, -1).astype(np.float64)
    return ArrayDataset(features, raw=matrices, name="qm9")

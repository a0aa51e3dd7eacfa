"""Synthetic PDBbind-2019-refined-like ligand dataset (32x32 matrices).

Section IV-A: the refined PDBbind 2019 set has 4852 protein-ligand
complexes; keeping only ligands with <= 32 heavy atoms drawn from
{C, N, O, F, S} leaves 2492 molecules, encoded as 32x32 (= 1024 = 2**10
feature) matrices and split 85/15.

This module mirrors that *pipeline*, not just its output: it generates a
raw pool of drug-like ligands whose sizes and element palettes overshoot
the filter (mimicking the full refined set), applies the same two filters,
and keeps the first 2492 survivors.
"""

from __future__ import annotations

import numpy as np

from ..chem.generation import MoleculeSpec, random_molecule
from ..chem.matrix import ATOM_CODES, encode_molecule
from ..chem.molecule import Molecule
from .loader import ArrayDataset

__all__ = [
    "PDBBIND_MATRIX_SIZE",
    "PDBBIND_REFINED_COUNT",
    "PDBBIND_FILTERED_COUNT",
    "pdbbind_spec",
    "ligand_passes_filter",
    "load_pdbbind_ligands",
]

PDBBIND_MATRIX_SIZE = 32
PDBBIND_REFINED_COUNT = 4852
PDBBIND_FILTERED_COUNT = 2492


def pdbbind_spec() -> MoleculeSpec:
    """Raw ligand pool: bigger and more heteroatom-rich than the filter allows."""
    return MoleculeSpec(
        min_atoms=10,
        max_atoms=44,
        hetero_weights={"N": 0.10, "O": 0.13, "F": 0.02, "S": 0.04, "P": 0.01,
                        "Cl": 0.02},
        ring_closure_prob=0.55,
        max_ring_closures=4,
        double_bond_prob=0.22,
        triple_bond_prob=0.02,
        aromatize_prob=0.65,
    )


def ligand_passes_filter(mol: Molecule) -> bool:
    """The paper's filter: <= 32 heavy atoms, only matrix-encodable elements."""
    if mol.num_atoms > PDBBIND_MATRIX_SIZE:
        return False
    return all(symbol in ATOM_CODES for symbol in mol.symbols)


def iter_pdbbind_matrices(
    n_samples: int = PDBBIND_FILTERED_COUNT,
    seed: int = 2019,
    pool_size: int | None = None,
):
    """Yield filtered ligand matrices one at a time (single sequential rng).

    The generate-and-filter loop consumes one rng stream in attempt order;
    :func:`load_pdbbind_ligands` stacks exactly what this yields.  Raises
    ``RuntimeError`` after exhausting the attempt budget with fewer than
    ``n_samples`` survivors (after yielding those it found).
    """
    rng = np.random.default_rng(seed)
    spec = pdbbind_spec()
    if pool_size is None:
        pool_size = max(
            n_samples + 8,
            int(np.ceil(n_samples * PDBBIND_REFINED_COUNT / PDBBIND_FILTERED_COUNT)),
        )
    kept = 0
    attempts = 0
    max_attempts = pool_size * 4
    while kept < n_samples and attempts < max_attempts:
        mol = random_molecule(rng, spec)
        attempts += 1
        if ligand_passes_filter(mol):
            kept += 1
            yield encode_molecule(mol, PDBBIND_MATRIX_SIZE)
    if kept < n_samples:
        raise RuntimeError(
            f"filter accepted only {kept} of {attempts} ligands; "
            "loosen the spec or lower n_samples"
        )


def load_pdbbind_ligands(
    n_samples: int = PDBBIND_FILTERED_COUNT,
    seed: int = 2019,
    pool_size: int | None = None,
) -> ArrayDataset:
    """Generate, filter, and encode the ligand set.

    Parameters
    ----------
    n_samples:
        Ligands to keep after filtering (paper: 2492).  Smaller values give
        the fast benchmark subsets.
    pool_size:
        Size of the raw pre-filter pool; defaults to scaling the paper's
        4852 proportionally to ``n_samples``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    matrices = np.stack(list(iter_pdbbind_matrices(n_samples, seed, pool_size)))
    features = matrices.reshape(n_samples, -1).astype(np.float64)
    return ArrayDataset(features, raw=matrices, name="pdbbind")

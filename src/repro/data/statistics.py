"""Dataset statistics for molecule-matrix datasets.

Quantifies what the generators actually produce — atom/bond composition,
size distribution, sparsity — so the claim that the synthetic QM9 and
PDBbind stand-ins match the paper's data *in the ways the models care
about* (sparse symmetric matrices, realistic ring and heteroatom content;
see :mod:`repro.chem.generation`) is checkable, and so users can compare
their own datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chem.matrix import CODE_TO_ORDER, CODE_TO_SYMBOL
from .loader import ArrayDataset

__all__ = ["MatrixDatasetStats", "dataset_statistics"]

_BOND_NAMES = {1: "single", 2: "double", 3: "triple", 4: "aromatic"}


@dataclass
class MatrixDatasetStats:
    """Composition summary of a molecule-matrix dataset."""

    n_samples: int
    matrix_size: int
    atom_counts: dict[str, int] = field(default_factory=dict)
    bond_counts: dict[str, int] = field(default_factory=dict)
    heavy_atoms_mean: float = 0.0
    heavy_atoms_max: int = 0
    bonds_per_molecule_mean: float = 0.0
    sparsity: float = 0.0  # fraction of zero entries

    def atom_fractions(self) -> dict[str, float]:
        total = sum(self.atom_counts.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in self.atom_counts.items()}

    def bond_fractions(self) -> dict[str, float]:
        total = sum(self.bond_counts.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in self.bond_counts.items()}

    def format_table(self) -> str:
        from ..experiments.tables import format_table

        rows = [
            ["samples", self.n_samples],
            ["matrix size", f"{self.matrix_size}x{self.matrix_size}"],
            ["heavy atoms (mean/max)",
             f"{self.heavy_atoms_mean:.1f} / {self.heavy_atoms_max}"],
            ["bonds per molecule (mean)", f"{self.bonds_per_molecule_mean:.1f}"],
            ["sparsity", f"{self.sparsity:.3f}"],
        ]
        for symbol, fraction in sorted(self.atom_fractions().items()):
            rows.append([f"atom {symbol}", f"{fraction:.3f}"])
        for name, fraction in sorted(self.bond_fractions().items()):
            rows.append([f"bond {name}", f"{fraction:.3f}"])
        return format_table(["Statistic", "Value"], rows,
                            title="Molecule-matrix dataset statistics")


def dataset_statistics(dataset: ArrayDataset) -> MatrixDatasetStats:
    """Compute composition statistics from a dataset's raw matrices."""
    if dataset.raw is None:
        raise ValueError("dataset has no raw matrices; load a molecule dataset")
    matrices = np.asarray(dataset.raw)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError(f"raw matrices must be (n, s, s), got {matrices.shape}")

    n, size, __ = matrices.shape
    stats = MatrixDatasetStats(n_samples=n, matrix_size=size)

    diagonals = matrices[:, np.arange(size), np.arange(size)]
    for code, symbol in CODE_TO_SYMBOL.items():
        count = int((diagonals == code).sum())
        if count:
            stats.atom_counts[symbol] = count
    heavy = (diagonals > 0).sum(axis=1)
    stats.heavy_atoms_mean = float(heavy.mean())
    stats.heavy_atoms_max = int(heavy.max())

    upper = np.triu_indices(size, k=1)
    off_diag = matrices[:, upper[0], upper[1]]
    total_bonds = 0
    for code in CODE_TO_ORDER:
        count = int((off_diag == code).sum())
        if count:
            stats.bond_counts[_BOND_NAMES[code]] = count
            total_bonds += count
    stats.bonds_per_molecule_mean = total_bonds / n if n else 0.0
    stats.sparsity = float((matrices == 0).mean())
    return stats

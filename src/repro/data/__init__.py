"""Dataset substrate: seeded synthetic stand-ins for the paper's data.

* :func:`load_qm9` — 8x8 molecule matrices (low-dimensional experiments);
* :func:`load_pdbbind_ligands` — 32x32 ligand matrices (scalable experiments);
* :func:`load_digits` — 8x8 digit images (Fig. 4 visualization);
* :func:`load_cifar_gray` — 32x32 grayscale images (Fig. 8 visualization).
"""

from .cifar import CIFAR_SIZE, load_cifar_gray, synth_image
from .digits import DIGIT_SIZE, digit_template, load_digits
from .loader import ArrayDataset, DataLoader, l1_normalize, train_test_split
from .pdbbind import (
    PDBBIND_FILTERED_COUNT,
    PDBBIND_MATRIX_SIZE,
    PDBBIND_REFINED_COUNT,
    ligand_passes_filter,
    load_pdbbind_ligands,
    pdbbind_spec,
)
from .qm9 import QM9_MATRIX_SIZE, load_qm9, qm9_spec
from .statistics import MatrixDatasetStats, dataset_statistics

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "train_test_split",
    "l1_normalize",
    "load_qm9",
    "qm9_spec",
    "QM9_MATRIX_SIZE",
    "load_pdbbind_ligands",
    "pdbbind_spec",
    "ligand_passes_filter",
    "PDBBIND_MATRIX_SIZE",
    "PDBBIND_REFINED_COUNT",
    "PDBBIND_FILTERED_COUNT",
    "load_digits",
    "digit_template",
    "DIGIT_SIZE",
    "load_cifar_gray",
    "synth_image",
    "CIFAR_SIZE",
    "MatrixDatasetStats",
    "dataset_statistics",
]

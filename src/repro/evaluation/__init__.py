"""Evaluation utilities: reconstruction panels, prior sampling, rendering."""

from .reconstruction import reconstruct_samples
from .sampling import (
    decode_latents,
    matrix_size,
    prior_latents,
    sample_batch,
    sample_matrices,
)
from .visualize import ascii_image, render_molecule_matrix, side_by_side

__all__ = [
    "reconstruct_samples",
    "matrix_size",
    "prior_latents",
    "decode_latents",
    "sample_matrices",
    "sample_batch",
    "ascii_image",
    "render_molecule_matrix",
    "side_by_side",
]

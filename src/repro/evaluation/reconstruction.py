"""Reconstruction-quality evaluation helpers."""

from __future__ import annotations

import numpy as np

from ..data.loader import ArrayDataset
from ..models.base import Autoencoder

__all__ = ["reconstruct_samples"]


def reconstruct_samples(
    model: Autoencoder,
    dataset: ArrayDataset,
    n_samples: int = 3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick random samples and reconstruct them (paper's qualitative panels).

    Returns ``(originals, reconstructions)`` with shape ``(n, features)``.
    """
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(dataset), size=min(n_samples, len(dataset)),
                         replace=False)
    originals = dataset.features[indices]
    return originals, model.reconstruct(originals)

"""Prior sampling from generative autoencoders into molecule space.

This is the front of the Table II pipeline: draw Gaussian noise from the
learned latent space, decode to continuous matrices, then discretize onto
molecule-matrix codes and decode to graphs.  Lenient validity correction and
the normalized QED / logP / SA scores follow in
:func:`repro.chem.metrics.score_matrices` / ``score_molecules``.
"""

from __future__ import annotations

import numpy as np

from ..chem.batch import MoleculeBatch
from ..models.base import Autoencoder
from ..nn.tensor import Tensor, no_grad

__all__ = ["matrix_size", "prior_latents", "decode_latents",
           "sample_matrices", "sample_batch"]


def matrix_size(model: Autoencoder) -> int:
    """Side length of the square molecule matrix ``model`` reconstructs."""
    size = int(round(np.sqrt(model.input_dim)))
    if size * size != model.input_dim:
        raise ValueError(
            f"input dim {model.input_dim} is not a square matrix flattening"
        )
    return size


def prior_latents(
    model: Autoencoder, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """The N(0, I) prior draw ``model.sample`` would make from ``rng``.

    Split out so the serving layer can draw each request's latents from
    its own seeded stream, stack them, and decode once — the draw is
    identical to sequential per-request sampling by construction.
    """
    return rng.normal(size=(n_samples, model.latent_dim))


def decode_latents(model: Autoencoder, latents: np.ndarray) -> np.ndarray:
    """Decode a ``(n, latent_dim)`` latent stack to flat features.

    This is exactly the decode half of ``VariationalMixin.sample``
    (untracked, default-policy tensor wrapping), so decoding a stacked
    batch of requests runs the same code path as each request alone.
    """
    with no_grad():
        return model.decode(Tensor(latents)).data


def sample_matrices(
    model: Autoencoder, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Decode prior noise into ``(n, size, size)`` continuous matrices."""
    flat = model.sample(n_samples, rng)
    size = matrix_size(model)
    return flat.reshape(n_samples, size, size)


def sample_batch(
    model: Autoencoder, n_samples: int, rng: np.random.Generator
) -> MoleculeBatch:
    """Sampled matrices discretized and decoded as one packed batch."""
    return MoleculeBatch.from_matrices(sample_matrices(model, n_samples, rng))

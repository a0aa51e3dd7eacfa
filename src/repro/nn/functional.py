"""Functional operations and losses on :class:`repro.nn.tensor.Tensor`.

Everything here is composed from registered tape primitives, so each
function needs no backward of its own: ``Tensor.backward`` differentiates
it through the primitives' VJPs.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["mse_loss", "gaussian_kl"]


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error, the paper's reconstruction loss."""
    diff = prediction - _as_tensor(target)
    squared = diff * diff
    return _reduce(squared, reduction)


def gaussian_kl(mu: Tensor, logvar: Tensor, reduction: str = "mean") -> Tensor:
    """KL( N(mu, exp(logvar)) || N(0, I) ), summed over the latent dimension.

    This is the VAE regularizer from Kingma & Welling (the paper's Eq. for
    the ELBO): 0.5 * sum(mu^2 + exp(logvar) - logvar - 1).
    """
    per_sample = (mu * mu + logvar.exp() - logvar - 1.0).sum(axis=-1) * 0.5
    return _reduce(per_sample, reduction)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value))


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction {reduction!r}")

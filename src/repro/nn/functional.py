"""Functional operations and losses on :class:`repro.nn.tensor.Tensor`.

Everything here is composed from registered tape primitives, so each
function needs no backward of its own: ``Tensor.backward`` differentiates
it through the primitives' VJPs.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
    "mse_loss",
    "l1_loss",
    "bce_loss",
    "gaussian_kl",
    "softmax",
    "log_softmax",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softplus(x: Tensor) -> Tensor:
    """Numerically-stable softplus log(1 + e^x) = max(x,0) + log1p(e^-|x|)."""
    return x.relu() + ((-x.abs()).exp() + 1.0).log()


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error, the paper's reconstruction loss."""
    diff = prediction - _as_tensor(target)
    squared = diff * diff
    return _reduce(squared, reduction)


def l1_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean absolute error."""
    return _reduce((prediction - _as_tensor(target)).abs(), reduction)


def bce_loss(
    prediction: Tensor, target: Tensor, eps: float = 1e-12, reduction: str = "mean"
) -> Tensor:
    """Binary cross entropy on probabilities in (0, 1)."""
    target = _as_tensor(target)
    pred = prediction.clip(eps, 1.0 - eps)
    loss = -(target * pred.log() + (1.0 - target) * (1.0 - pred).log())
    return _reduce(loss, reduction)


def gaussian_kl(mu: Tensor, logvar: Tensor, reduction: str = "mean") -> Tensor:
    """KL( N(mu, exp(logvar)) || N(0, I) ), summed over the latent dimension.

    This is the VAE regularizer from Kingma & Welling (the paper's Eq. for
    the ELBO): 0.5 * sum(mu^2 + exp(logvar) - logvar - 1).
    """
    per_sample = (mu * mu + logvar.exp() - logvar - 1.0).sum(axis=-1) * 0.5
    return _reduce(per_sample, reduction)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the max-subtraction stabilization."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax, computed stably."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


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

"""Autoencoder training objectives.

The paper reports "Train MSE Loss" throughout, i.e. the reconstruction term
is mean squared error; variational models add the KL divergence to the
standard-normal prior (negative ELBO with a Gaussian decoder).  The KL term
is normalized by feature count so reconstruction and regularization stay on
comparable scales across the 64- and 1024-dimensional experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.base import AutoencoderOutput
from ..nn import functional as F
from ..nn.tensor import Tensor

__all__ = ["LossTerms", "autoencoder_loss"]


@dataclass
class LossTerms:
    """Scalar diagnostics from one loss evaluation."""

    total: float
    reconstruction: float
    kl: float


def autoencoder_loss(
    output: AutoencoderOutput, target: Tensor
) -> tuple[Tensor, LossTerms]:
    """MSE reconstruction plus (for variational outputs) the KL term.

    Returns the differentiable total loss and detached float diagnostics.
    """
    recon = F.mse_loss(output.reconstruction, target)
    if output.mu is not None and output.logvar is not None:
        n_features = target.shape[-1]
        kl = F.gaussian_kl(output.mu, output.logvar) * (1.0 / n_features)
        total = recon + kl
        return total, LossTerms(total.item(), recon.item(), kl.item())
    return recon, LossTerms(recon.item(), recon.item(), 0.0)

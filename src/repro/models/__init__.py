"""Autoencoder model zoo: classical, baseline quantum, and scalable quantum.

Naming map to the paper:

=============  ===========================================
Paper name     Class
=============  ===========================================
AE / CAE       :class:`~repro.models.classical.ClassicalAE`
VAE / CVAE     :class:`~repro.models.classical.ClassicalVAE`
F-BQ-AE        :class:`~repro.models.baseline.FullyQuantumAE`
F-BQ-VAE       :class:`~repro.models.baseline.FullyQuantumVAE`
H-BQ-AE        :class:`~repro.models.baseline.HybridQuantumAE`
H-BQ-VAE       :class:`~repro.models.baseline.HybridQuantumVAE`
SQ-AE          :class:`~repro.models.scalable.ScalableQuantumAE`
SQ-VAE         :class:`~repro.models.scalable.ScalableQuantumVAE`
=============  ===========================================
"""

from .base import Autoencoder, AutoencoderOutput, VariationalMixin
from .baseline import (
    FullyQuantumAE,
    FullyQuantumVAE,
    HybridQuantumAE,
    HybridQuantumVAE,
)
from .classical import ClassicalAE, ClassicalVAE, default_hidden_dims
from .factory import MODEL_CHOICES, build_from_metadata, build_model
from .scalable import DEFAULT_SQ_LAYERS, ScalableQuantumAE, ScalableQuantumVAE

__all__ = [
    "MODEL_CHOICES",
    "build_model",
    "build_from_metadata",
    "Autoencoder",
    "AutoencoderOutput",
    "VariationalMixin",
    "ClassicalAE",
    "ClassicalVAE",
    "default_hidden_dims",
    "FullyQuantumAE",
    "FullyQuantumVAE",
    "HybridQuantumAE",
    "HybridQuantumVAE",
    "ScalableQuantumAE",
    "ScalableQuantumVAE",
    "DEFAULT_SQ_LAYERS",
]

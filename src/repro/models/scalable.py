"""Scalable quantum autoencoders (Section III-C): SQ-AE and SQ-VAE.

The paper's qubit-efficient scaling recipe for 1024-feature ligands:

* **encoder** — a patched quantum circuit: the 1024 features split into
  ``p`` equal sub-vectors; patch ``k`` amplitude-embeds its ``1024/p``
  features into ``log2(1024/p)`` qubits, runs L strongly entangling layers,
  and returns per-qubit Z expectations.  Concatenated, these give the
  latent space of dimension LSD = ``p * log2(1024/p)`` (18/32/56/96 for
  p = 2/4/8/16);
* **decoder** — a second patched circuit: the latent splits into ``p``
  angle-embedded sub-circuits with expectation outputs ("probabilities from
  1024 basis states are too miniscule to be reconstructed"), followed by a
  final classical Linear(LSD, input) mapping measurements back to original
  ligand features;
* the AE adds a Linear(LSD, LSD) latent map (mirroring H-BQ-AE); the VAE
  instead adds Linear(LSD, LSD) mu / logvar heads for reparameterization.
"""

from __future__ import annotations

import numpy as np

from ..nn.modules import Linear
from ..nn.precision import resolve_precision
from ..nn.tensor import Tensor
from ..qnn.circuits import amplitude_encoder_circuit, angle_expval_circuit
from ..qnn.patched import PatchedQuantumLayer, patch_qubits
from .base import Autoencoder, VariationalMixin

__all__ = ["ScalableQuantumAE", "ScalableQuantumVAE"]

DEFAULT_SQ_LAYERS = 5  # selected by the paper's depth ablation (Fig. 6)


class ScalableQuantumAE(Autoencoder):
    """SQ-AE: patched quantum encoder/decoder with a classical output map.

    ``dtype`` selects the model precision end to end (quantum weights and
    statevector passes plus classical maps); None follows the active
    precision policy — float64 by default, ``dtype="float32"`` trains the
    whole autoencoder in single precision.
    """

    def __init__(
        self,
        input_dim: int = 1024,
        n_patches: int = 4,
        n_layers: int = DEFAULT_SQ_LAYERS,
        rng: np.random.Generator | None = None,
        dtype=None,
    ):
        qubits = patch_qubits(input_dim, n_patches)
        latent_dim = n_patches * qubits
        super().__init__(input_dim, latent_dim)
        rng = rng if rng is not None else np.random.default_rng(0)
        precision = resolve_precision(dtype)
        self.precision = precision
        self.n_patches = n_patches
        self.n_layers = n_layers
        self.qubits_per_patch = qubits
        per_patch_features = input_dim // n_patches

        self.encoder_q = PatchedQuantumLayer(
            amplitude_encoder_circuit(
                qubits, per_patch_features, n_layers, zero_fallback=True
            ),
            n_patches=n_patches,
            rng=rng,
            dtype=precision,
        )
        self.decoder_q = PatchedQuantumLayer(
            angle_expval_circuit(qubits, qubits, n_layers),
            n_patches=n_patches,
            rng=rng,
            dtype=precision,
        )
        self.latent_map = Linear(latent_dim, latent_dim, rng=rng, dtype=precision)
        self.output_map = Linear(latent_dim, input_dim, rng=rng, dtype=precision)

    def encode(self, x: Tensor) -> Tensor:
        return self.latent_map(self.encoder_q(x))

    def decode(self, z: Tensor) -> Tensor:
        return self.output_map(self.decoder_q(z))

    def output_bias(self):
        return self.output_map.bias


class ScalableQuantumVAE(VariationalMixin, ScalableQuantumAE):
    """SQ-VAE: the patched architecture with variational latent heads."""

    def __init__(
        self,
        input_dim: int = 1024,
        n_patches: int = 4,
        n_layers: int = DEFAULT_SQ_LAYERS,
        rng: np.random.Generator | None = None,
        noise_seed: int = 0,
        dtype=None,
    ):
        ScalableQuantumAE.__init__(
            self, input_dim, n_patches, n_layers, rng, dtype=dtype
        )
        rng = rng if rng is not None else np.random.default_rng(1)
        self.mu_head = Linear(
            self.latent_dim, self.latent_dim, rng=rng, dtype=self.precision
        )
        self.logvar_head = Linear(
            self.latent_dim, self.latent_dim, rng=rng, dtype=self.precision
        )
        self.seed_noise(noise_seed)

    def encode_distribution(self, x: Tensor) -> tuple[Tensor, Tensor]:
        hidden = self.encoder_q(x)
        return self.mu_head(hidden), self.logvar_head(hidden)

    def decode(self, z: Tensor) -> Tensor:
        return self.output_map(self.decoder_q(self.latent_map(z)))
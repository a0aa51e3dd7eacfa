"""Name-keyed model construction shared by the CLI and the serving layer.

The paper's eight architectures are addressable by their CLI names
(``ae`` ... ``sq-vae``).  :func:`build_model` turns a name plus the
architecture hyperparameters into a freshly initialized module;
:func:`build_from_metadata` rebuilds the exact architecture a checkpoint
was trained as, straight from the metadata dict ``save_module`` wrote —
including the recorded precision, so a float32 checkpoint rehydrates into
a float32 module instead of a float64 shell around float32 weights.
"""

from __future__ import annotations

import numpy as np

from .baseline import (
    FullyQuantumAE,
    FullyQuantumVAE,
    HybridQuantumAE,
    HybridQuantumVAE,
)
from .classical import ClassicalAE, ClassicalVAE
from .scalable import ScalableQuantumAE, ScalableQuantumVAE

__all__ = ["MODEL_CHOICES", "build_model", "build_from_metadata"]

MODEL_CHOICES = ("ae", "vae", "f-bq-ae", "f-bq-vae", "h-bq-ae", "h-bq-vae",
                 "sq-ae", "sq-vae")


def build_model(name: str, input_dim: int, n_patches: int, n_layers: int,
                latent_dim: int, seed: int, dtype=None):
    """Construct a freshly initialized model by CLI name.

    ``dtype`` selects the model precision end to end (None follows the
    active policy); unknown names raise ``SystemExit`` listing the choices.
    """
    rng = np.random.default_rng(seed)
    builders = {
        "ae": lambda: ClassicalAE(input_dim=input_dim, latent_dim=latent_dim,
                                  rng=rng, dtype=dtype),
        "vae": lambda: ClassicalVAE(input_dim=input_dim, latent_dim=latent_dim,
                                    rng=rng, noise_seed=seed, dtype=dtype),
        "f-bq-ae": lambda: FullyQuantumAE(input_dim=input_dim,
                                          n_layers=n_layers, rng=rng,
                                          dtype=dtype),
        "f-bq-vae": lambda: FullyQuantumVAE(input_dim=input_dim,
                                            n_layers=n_layers, rng=rng,
                                            noise_seed=seed, dtype=dtype),
        "h-bq-ae": lambda: HybridQuantumAE(input_dim=input_dim,
                                           n_layers=n_layers, rng=rng,
                                           dtype=dtype),
        "h-bq-vae": lambda: HybridQuantumVAE(input_dim=input_dim,
                                             n_layers=n_layers, rng=rng,
                                             noise_seed=seed, dtype=dtype),
        "sq-ae": lambda: ScalableQuantumAE(input_dim=input_dim,
                                           n_patches=n_patches,
                                           n_layers=n_layers, rng=rng,
                                           dtype=dtype),
        "sq-vae": lambda: ScalableQuantumVAE(input_dim=input_dim,
                                             n_patches=n_patches,
                                             n_layers=n_layers, rng=rng,
                                             noise_seed=seed, dtype=dtype),
    }
    try:
        return builders[name]()
    except KeyError:
        raise SystemExit(
            f"unknown model {name!r}; choose from {sorted(builders)}"
        ) from None


def build_from_metadata(metadata: dict):
    """Rebuild the architecture a checkpoint's metadata describes.

    Uses the recorded ``precision`` (older checkpoints without one get the
    historical float64 default) so the module's execution precision matches
    the stored weights.  The returned module still has fresh weights —
    follow with :func:`repro.nn.serialization.load_module`.
    """
    return build_model(
        metadata["model"],
        metadata["input_dim"],
        metadata.get("n_patches", 4),
        metadata.get("n_layers", 2),
        metadata.get("latent_dim") or 16,
        metadata.get("seed", 0),
        dtype=metadata.get("precision"),
    )

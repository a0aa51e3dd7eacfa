#!/usr/bin/env python3
"""Image reconstruction with patched quantum autoencoders (Fig. 8b-c).

The paper notes the scalable architecture "also applies to other tasks such
as image generation": this example trains an SQ-AE and a classical AE on
32x32 grayscale images and prints side-by-side ASCII reconstructions,
mirroring the CIFAR-10 panel of Fig. 8(c).

Run:
    python examples/image_reconstruction.py
    IMAGES=256 EPOCHS=10 python examples/image_reconstruction.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.data import load_cifar_gray
from repro.evaluation import ascii_image, side_by_side
from repro.models import ClassicalAE, ScalableQuantumAE
from repro.training import TrainConfig, Trainer, evaluate_reconstruction


def main() -> None:
    n_images = int(os.environ.get("IMAGES", 64))
    epochs = int(os.environ.get("EPOCHS", 5))
    seed = int(os.environ.get("SEED", 0))

    data = load_cifar_gray(n_samples=n_images, seed=seed)
    print(f"images: {n_images} grayscale 32x32")

    models = {
        "SQ-AE (p=2, LSD 18)": ScalableQuantumAE(
            input_dim=1024, n_patches=2, n_layers=5,
            rng=np.random.default_rng(seed),
        ),
        "Classical AE (LSD 18)": ClassicalAE(
            input_dim=1024, latent_dim=18, rng=np.random.default_rng(seed)
        ),
    }
    for name, model in models.items():
        trainer = Trainer(model, TrainConfig.paper_sq(epochs=epochs, seed=seed))
        history = trainer.fit(data)
        print(f"{name}: final train loss {history.final_train_loss:.4f}, "
              f"mean recon MSE {evaluate_reconstruction(model, data):.4f}")

    # Qualitative panel: input vs both reconstructions for two images.
    originals = data.features[:2]
    panels = [
        "\n\n".join(ascii_image(img) for img in originals),
        "\n\n".join(
            ascii_image(img)
            for img in models["Classical AE (LSD 18)"].reconstruct(originals)
        ),
        "\n\n".join(
            ascii_image(img)
            for img in models["SQ-AE (p=2, LSD 18)"].reconstruct(originals)
        ),
    ]
    print()
    print(side_by_side(panels, titles=["Input", "Classical AE", "SQ-AE"]))
    print("\nAfter a short budget both models capture the sketch of the")
    print("input; longer training sharpens both (Section IV-D).")


if __name__ == "__main__":
    main()

"""repro — reproduction of "Scalable Variational Quantum Circuits for
Autoencoder-based Drug Discovery" (Junde Li and Swaroop Ghosh, DATE 2022).

Subpackages
-----------
``repro.nn``
    Reverse-mode autodiff tensors, modules, and optimizers (PyTorch stand-in).
``repro.quantum``
    Batched statevector simulator with exact adjoint gradients (PennyLane
    stand-in).
``repro.qnn``
    Quantum circuits as differentiable network layers; the paper's patched
    quantum circuit lives here.
``repro.chem``
    Molecule graphs, the molecule-matrix codec, and QED / logP / SA scoring
    (RDKit stand-in).
``repro.data``
    Seeded synthetic QM9 / PDBbind / Digits / CIFAR datasets.
``repro.models``
    The autoencoder zoo: classical AE/VAE, baseline quantum (F-BQ / H-BQ),
    and scalable patched quantum (SQ) variants.
``repro.training``
    Trainer with the paper's heterogeneous learning rates, losses, history.
``repro.evaluation``
    Reconstruction panels, prior sampling into molecule matrices, ASCII
    rendering.
``repro.experiments``
    One driver per paper table/figure (Table I/II, Fig. 4-8).

Quickstart
----------
>>> from repro.data import load_qm9
>>> from repro.models import ClassicalVAE
>>> from repro.training import Trainer, TrainConfig
>>> data = load_qm9(n_samples=128, seed=0)
>>> model = ClassicalVAE(input_dim=64, latent_dim=6)
>>> history = Trainer(model, TrainConfig(epochs=3)).fit(data)
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "quantum",
    "qnn",
    "chem",
    "data",
    "models",
    "training",
    "evaluation",
    "experiments",
]

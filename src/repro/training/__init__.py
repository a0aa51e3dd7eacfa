"""Training runtime: the training loop, its losses and histories."""

from .history import EpochRecord, History
from .losses import LossTerms, autoencoder_loss
from .trainer import (
    PAPER_CLASSICAL_LR,
    PAPER_QUANTUM_LR,
    TrainConfig,
    Trainer,
    evaluate_reconstruction,
)

__all__ = [
    "History",
    "EpochRecord",
    "LossTerms",
    "autoencoder_loss",
    "TrainConfig",
    "Trainer",
    "evaluate_reconstruction",
    "PAPER_QUANTUM_LR",
    "PAPER_CLASSICAL_LR",
]

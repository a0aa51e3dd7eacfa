"""Training loop with the paper's optimizer configuration.

Section IV-B: mini-batches of 32, Adam with default betas (0.9, 0.999),
learning rate 0.001 for the depth study, and — after the Fig. 7 ablation —
*heterogeneous* learning rates: 0.03 for quantum rotation angles and 0.01
for classical weights.  :class:`TrainConfig` exposes exactly those knobs.

:class:`Trainer` is the one training loop: per batch a forward pass, the
loss, one backward walk and one optimizer step; per epoch the test loss and
the history record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..data.loader import ArrayDataset, DataLoader
from ..models.base import Autoencoder
from ..nn.optim import heterogeneous_adam
from ..nn.precision import resolve_precision, use_precision
from ..nn.tensor import Tensor, no_grad
from .history import EpochRecord, History
from .losses import autoencoder_loss

__all__ = ["TrainConfig", "Trainer", "evaluate_reconstruction"]

PAPER_QUANTUM_LR = 0.03
PAPER_CLASSICAL_LR = 0.01


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 20
    batch_size: int = 32
    quantum_lr: float = 0.001
    classical_lr: float = 0.001
    seed: int = 0
    # Precision policy for the whole run (None = active policy, float64 by
    # default).  "float32" casts every batch to single precision and scopes
    # the policy over the loop, so gradients/optimizer state follow too —
    # pair with a model built with the same dtype to train fully in float32.
    precision: str | None = None

    @classmethod
    def paper_sq(cls, epochs: int = 20, seed: int = 0) -> "TrainConfig":
        """The final SQ-VAE/AE configuration (Fig. 7's best cell)."""
        return cls(
            epochs=epochs,
            quantum_lr=PAPER_QUANTUM_LR,
            classical_lr=PAPER_CLASSICAL_LR,
            seed=seed,
        )


class Trainer:
    """Fits one autoencoder on one dataset and records the loss trace."""

    def __init__(self, model: Autoencoder, config: TrainConfig):
        self.model = model
        self.config = config
        self.precision = resolve_precision(config.precision)
        self.optimizer = heterogeneous_adam(
            model, quantum_lr=config.quantum_lr, classical_lr=config.classical_lr
        )

    def fit(
        self,
        train_data: ArrayDataset,
        test_data: ArrayDataset | None = None,
    ) -> History:
        """Train for ``config.epochs`` epochs; evaluates test loss per epoch.

        The whole loop runs under the config's precision policy: batches
        are cast to its real dtype and gradient buffers follow its
        accumulation rule.
        """
        with use_precision(self.precision):
            return self._fit(train_data, test_data)

    def _fit(
        self,
        train_data: ArrayDataset,
        test_data: ArrayDataset | None = None,
    ) -> History:
        config = self.config
        loader = DataLoader(
            train_data,
            batch_size=config.batch_size,
            shuffle=True,
            seed=config.seed,
        )
        # An empty loader used to surface as a bare ZeroDivisionError from
        # the epoch-mean division below; fail up front with the cause.
        if len(loader) == 0:
            raise ValueError(
                f"training loader yields no batches: dataset has "
                f"{len(train_data)} sample(s) at batch_size="
                f"{config.batch_size}"
            )
        real = self.precision.real
        history = History()
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            epoch_total = epoch_recon = epoch_kl = 0.0
            n_batches = 0
            self.model.train()
            for batch in loader:
                self.optimizer.zero_grad()
                output = self.model(Tensor(batch, dtype=real))
                loss, terms = autoencoder_loss(output, Tensor(batch, dtype=real))
                loss.backward()
                self.optimizer.step()
                epoch_total += terms.total
                epoch_recon += terms.reconstruction
                epoch_kl += terms.kl
                n_batches += 1
                history.batch_losses.append(terms.total)
            record = EpochRecord(
                epoch=epoch,
                train_loss=epoch_total / n_batches,
                train_reconstruction=epoch_recon / n_batches,
                train_kl=epoch_kl / n_batches,
            )
            if test_data is not None:
                record.test_loss = self.evaluate(test_data)
                record.test_reconstruction = record.test_loss
            record.seconds = time.perf_counter() - started
            history.append(record)
        return history

    def evaluate(self, data: ArrayDataset) -> float:
        """Mean reconstruction MSE over a dataset (no gradient tracking).

        Runs under the config's precision policy — evaluation used to pick
        up whatever ambient precision the caller had active, so a
        float32-configured trainer evaluated in float64 when called
        outside ``fit``.
        """
        with use_precision(self.precision):
            return evaluate_reconstruction(
                self.model, data, self.config.batch_size, dtype=self.precision
            )


@no_grad()
def evaluate_reconstruction(
    model: Autoencoder, data: ArrayDataset, batch_size: int = 32, dtype=None
) -> float:
    """Reconstruction MSE of ``model`` on ``data`` (posterior mean path).

    Runs entirely untracked (``no_grad`` in decorator form — nothing here
    needs a tape).  ``dtype`` casts each batch to the policy's real dtype
    before encoding (None follows the active policy); the squared error
    itself accumulates in float64 either way.

    The model's mode is restored on exit: every submodule gets back the
    ``training`` flag it entered with (an unconditional ``model.train()``
    here used to clobber a caller's eval mode).
    """
    if len(data) == 0:
        raise ValueError("cannot evaluate reconstruction on an empty dataset")
    real = resolve_precision(dtype).real
    prior_modes = [(module, module.training) for module in model.modules()]
    model.eval()
    total = 0.0
    count = 0
    try:
        for start in range(0, len(data), batch_size):
            batch = data.features[start : start + batch_size]
            recon = model.decode(model.encode(Tensor(batch, dtype=real)))
            total += float(
                ((recon.data.astype(np.float64) - batch) ** 2).sum()
            )
            count += batch.size
    finally:
        for module, was_training in prior_modes:
            module.training = was_training
    return total / count

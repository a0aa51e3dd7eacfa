"""Pluggable training execution strategies (the ``TrainStep`` seam).

:class:`~repro.training.trainer.Trainer` owns everything that happens
*between* optimizer updates — epoch accounting, the scheduler, early
stopping, history — while a :class:`TrainStep` strategy owns the update
itself.  The contract:

* ``setup(trainer, features)`` binds the strategy to one ``fit`` call:
  the trainer's model/optimizer/config and the training feature matrix.
  It runs inside the fit's precision and backend scopes, so a strategy
  that captures execution context reads the *resolved* policies here.
* ``step(indices)`` performs exactly one optimizer update from the rows
  ``features[indices]`` — forward, loss, backward, optional gradient
  clipping, ``optimizer.step()`` — and returns the batch's
  :class:`~repro.training.losses.LossTerms`.  The trainer's model holds
  the post-update parameters when it returns, whatever machinery computed
  the gradients.
* ``close()`` releases whatever ``setup`` acquired; the trainer calls it
  on every exit path (including a ``step`` raising mid-epoch), and it
  must be idempotent.

:class:`SequentialTrainStep` is the default strategy: the original
single-process loop body, bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..nn.tensor import Tensor
from .losses import LossTerms, autoencoder_loss

__all__ = ["TrainStep", "SequentialTrainStep", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (torch semantics).  Parameters without
    gradients are skipped; a norm *exactly* at ``max_norm`` is left
    untouched.  Scaling happens in place (``out=p.grad``) — one steady
    buffer per parameter instead of a fresh allocation per clipped step.

    The squared temporaries are forced into C order before summing:
    ``.sum()`` reduces in *memory* order, so an F-ordered gradient (a
    matmul VJP is often a transposed view) would otherwise round its
    pairwise sum differently from a C-ordered copy of the same values —
    the norm must not depend on gradient memory layout.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(
        float(np.multiply(p.grad, p.grad, order="C").sum()) for p in params
    )))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for param in params:
            np.multiply(param.grad, scale, out=param.grad)
    return total


class TrainStep:
    """One optimizer update's execution strategy; see the module docstring."""

    name = "abstract"

    def setup(self, trainer, features: np.ndarray) -> None:
        """Bind to one ``fit`` call (model, optimizer, config, data)."""
        self.model = trainer.model
        self.optimizer = trainer.optimizer
        self.config = trainer.config
        self.precision = trainer.precision
        self.features = features

    def step(self, indices: np.ndarray) -> LossTerms:
        """Run one optimizer update over ``features[indices]``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release per-fit resources; idempotent, called on every exit."""

    # -- shared update tail ---------------------------------------------
    def apply_update(self) -> None:
        """Clip (when configured) and step the optimizer on current grads.

        Every strategy funnels through this once its gradients are in the
        master model's ``param.grad`` buffers, so clipping and the
        optimizer see identical arithmetic whatever computed them.
        """
        if self.config.max_grad_norm is not None:
            clip_grad_norm(self.model.parameters(), self.config.max_grad_norm)
        self.optimizer.step()


class SequentialTrainStep(TrainStep):
    """The default in-process strategy (the historical loop body)."""

    name = "sequential"

    def step(self, indices: np.ndarray) -> LossTerms:
        real = self.precision.real
        batch = self.features[indices]
        # set_to_none pairs with the compiled tape (repro.nn.graph):
        # full-size batches re-record structurally identical tapes, so
        # every backward after the first runs one cached GraphPlan with
        # reused cotangent buffers, and dropping .grad lets leaves adopt
        # the plan's fresh outputs instead of accumulating into stale
        # zeroed buffers.
        self.optimizer.zero_grad(set_to_none=True)
        output = self.model(Tensor(batch, dtype=real))
        loss, terms = autoencoder_loss(
            output, Tensor(batch, dtype=real), beta=self.config.beta
        )
        loss.backward()
        self.apply_update()
        return terms

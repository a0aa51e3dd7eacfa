"""Optimizers with parameter groups.

The paper trains hybrid models with *heterogeneous learning rates*: quantum
rotation angles live in ``[-pi, pi]`` while classical weights span a much
larger range, so the two families get different step sizes (Fig. 7 sweeps a
5x5 grid and selects quantum lr 0.03 / classical lr 0.01).  Parameter groups
make that a first-class feature, exactly like ``torch.optim``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer handling parameter groups and ``zero_grad``."""

    def __init__(self, params, defaults: dict):
        self.defaults = defaults
        self.param_groups: list[dict] = []
        params = list(params)
        if params and isinstance(params[0], dict):
            for group in params:
                merged = dict(defaults)
                merged.update(group)
                merged["params"] = list(group["params"])
                self.param_groups.append(merged)
        else:
            merged = dict(defaults)
            merged["params"] = params
            self.param_groups.append(merged)
        for group in self.param_groups:
            if not all(isinstance(p, Tensor) for p in group["params"]):
                raise TypeError("optimizer parameters must be Tensors")

    def zero_grad(self) -> None:
        """Drop every parameter gradient; the next backward allocates fresh
        buffers."""
        for param in self.parameters():
            param.zero_grad()

    def parameters(self) -> Iterable[Tensor]:
        for group in self.param_groups:
            yield from group["params"]

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the paper's optimizer, beta1=0.9, beta2=0.999."""

    def __init__(
        self,
        params,
        lr: float = 0.001,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, {"lr": lr, "betas": tuple(betas), "eps": eps})
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                key = id(param)
                t = self._t.get(key, 0) + 1
                self._t[key] = t
                m = self._m.get(key)
                if m is None:  # zero moments, allocated on the first step only
                    m = v = np.zeros_like(param.data)
                else:
                    v = self._v[key]
                m = beta1 * m + (1.0 - beta1) * param.grad
                v = beta2 * v + (1.0 - beta2) * param.grad**2
                self._m[key] = m
                self._v[key] = v
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                # Cast back so float64-accumulated gradients (the mixed32
                # policy) never silently widen float32 parameters.
                param.data = (
                    param.data - lr * m_hat / (np.sqrt(v_hat) + eps)
                ).astype(param.data.dtype, copy=False)


def heterogeneous_adam(
    model,
    quantum_lr: float,
    classical_lr: float,
    betas: Sequence[float] = (0.9, 0.999),
) -> Adam:
    """Build an Adam optimizer with the paper's quantum/classical lr split.

    Parameters tagged ``group == 'quantum'`` get ``quantum_lr``; everything
    else gets ``classical_lr``.  Models with only one family degrade
    gracefully to a single group.
    """
    buckets = {"quantum": [], "classical": []}
    for param in model.parameters():
        bucket = "quantum" if getattr(param, "group", "classical") == "quantum" else "classical"
        buckets[bucket].append(param)
    groups = []
    if buckets["quantum"]:
        groups.append({"params": buckets["quantum"], "lr": quantum_lr})
    if buckets["classical"]:
        groups.append({"params": buckets["classical"], "lr": classical_lr})
    return Adam(groups, lr=classical_lr, betas=betas)


__all__.append("heterogeneous_adam")

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


# Elements per chunk of the in-place Adam update: the moment, parameter
# and scratch chunks stay in cache through all 14 elementwise ops.  One Adam
# step on a C-ordered weight with an F-ordered gradient (so including one
# transposing copy), median ms on one core of a 2-CPU Xeon (4 MiB L2,
# numpy 2.4.6), 1024 x 256 / 1024 x 1024 weight: 2.8 / 19.5 at 32,768;
# 3.3 / 20.3 at 8,192; 3.4 / 23.6 unchunked; 4.2 / 33.7 for the
# allocating expression.
_CHUNK = 32_768


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the paper's optimizer, beta1=0.9, beta2=0.999.

    ``step`` works in place: each parameter keeps ``m``/``v`` buffers laid
    out like its array, and the update is written into ``param.data``
    rather than rebinding it, so anything holding a parameter's array
    (``detach()``, ``Tensor(param.data)``) sees every step; take
    ``.copy()`` for a snapshot.  The update walks the parameter in memory
    order, so a C- or F-contiguous array (``Linear.weight`` is F) keeps its
    layout, and a gradient already in that layout is read without a copy.
    A strided or read-only parameter array is first replaced by a
    C-contiguous copy, once.

    The result is bit-identical to the allocating expression::

        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        param = (param - update).astype(param.dtype)

    with zero moments at the first step.  The same 14 operations run in
    that order, at that expression's dtypes and with Python-float
    hyperparameters, over ``_CHUNK``-element slices: the moments take the
    widest of the parameter, gradient and previous moment dtypes (float64
    under mixed32), and a float32 parameter takes the float64 update cast
    on output.
    """

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
        # Two _CHUNK-element scratch buffers per dtype.
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> None:
        for group in self.param_groups:
            # Python floats: a numpy float64 scalar would run a float32
            # parameter's arithmetic at float64.
            lr = float(group["lr"])
            beta1, beta2 = (float(beta) for beta in group["betas"])
            eps = float(group["eps"])
            for param in group["params"]:
                if param.grad is None:
                    continue
                key = id(param)
                t = self._t.get(key, 0) + 1
                self._t[key] = t
                self._update(param, key, t, lr, beta1, beta2, eps)

    def _update(self, param: Tensor, key: int, t: int, lr: float,
                beta1: float, beta2: float, eps: float) -> None:
        data = param.data
        contiguous = data.flags.c_contiguous or data.flags.f_contiguous
        if not (contiguous and data.flags.writeable):
            # ravel must give views, or the writes below would be lost.
            data = param.data = np.array(data, order="C")
        order = "C" if data.flags.c_contiguous else "F"
        # Every array below is the parameter's shape in its layout, so the
        # K-order ravels are views that pair up element by element.
        grad = np.asarray(param.grad, order=order)
        m_old = self._m.get(key)
        if m_old is None:
            # Zero moments, so ``beta * 0 + x`` keeps the reference's
            # signed zeros.
            dtype = np.result_type(data, grad)
            m_old = np.zeros_like(data, dtype)
            v_old = np.zeros_like(data, dtype)
        else:
            # No-ops unless ``param.data`` was rebound to the other layout.
            m_old = np.asarray(m_old, order=order)
            v_old = np.asarray(self._v[key], order=order)
            dtype = np.result_type(data, grad, m_old)
        m, v = m_old, v_old
        if dtype != m_old.dtype:
            # A wider gradient widens the moments; ``beta * m`` still runs
            # at the old width, in the old buffer.
            m, v = np.empty_like(data, dtype), np.empty_like(data, dtype)
        self._m[key], self._v[key] = m, v
        flat, grad = data.ravel(order="K"), grad.ravel(order="K")
        m_old, v_old = m_old.ravel(order="K"), v_old.ravel(order="K")
        m, v = m.ravel(order="K"), v.ravel(order="K")
        # The gradient terms run at the gradient's width.  When that is the
        # moments' width, ``gs`` and ``a`` are one buffer: ``gs`` is done
        # with before ``a`` is written.
        sg = self._buffers(grad.dtype)[0]
        s1, s2 = self._buffers(dtype)
        c1, c2 = 1.0 - beta1, 1.0 - beta2
        bias1, bias2 = 1.0 - beta1**t, 1.0 - beta2**t
        for lo in range(0, flat.size, _CHUNK):
            hi = min(lo + _CHUNK, flat.size)
            g, gs, a, b = grad[lo:hi], sg[:hi - lo], s1[:hi - lo], s2[:hi - lo]
            mo, vo, mc, vc = m_old[lo:hi], v_old[lo:hi], m[lo:hi], v[lo:hi]
            np.multiply(mo, beta1, out=mo)
            np.multiply(g, c1, out=gs)
            np.add(mo, gs, out=mc)
            np.multiply(vo, beta2, out=vo)
            np.square(g, out=gs)
            np.multiply(gs, c2, out=gs)
            np.add(vo, gs, out=vc)
            np.divide(mc, bias1, out=a)
            np.divide(vc, bias2, out=b)
            np.multiply(a, lr, out=a)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(flat[lo:hi], a, out=flat[lo:hi])

    def _buffers(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        buffers = self._scratch.get(dtype)
        if buffers is None:
            buffers = self._scratch[dtype] = (np.empty(_CHUNK, dtype),
                                              np.empty(_CHUNK, dtype))
        return buffers


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

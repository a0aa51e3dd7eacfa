"""Hybrid bridge: quantum circuits as differentiable ``repro.nn`` modules.

Every quantum layer runs through one tape primitive, :func:`quantum_execute`:
``p`` weight vectors of one circuit and a ``(batch, p * n_inputs)`` input
go through :func:`repro.quantum.autodiff.execute_stacked` as one
``(p * batch, 2**n)`` statevector pass, recorded as one tape node whose
parents are the ``p`` weight Parameters and ``x``.  Its VJP is one
:func:`~repro.quantum.autodiff.backward_stacked` adjoint walk; the input
chain runs only when ``x`` needs a gradient.  :class:`QuantumLayer` is the
``p = 1`` call, :mod:`repro.qnn.patched` the same call over its patches.
Gradients are first order; the parameter-shift rule
(:mod:`repro.quantum.shift`) is the tests' cross-check.  Weights are
``group='quantum'`` Parameters, for the paper's per-family learning rates.
"""

from __future__ import annotations

import numpy as np

from ..nn.autodiff import Primitive, defvjp_all
from ..nn.init import fresh_rng
from ..nn.modules import Module, Parameter
from ..nn.precision import resolve_precision
from ..nn.tensor import Tensor, is_grad_enabled, tape_record
from ..quantum.autodiff import backward_stacked, execute_stacked
from ..quantum.circuit import Circuit
from ..quantum.engine import stacked_plan

# perfbench/spans.py looks these two up here by name.  The primitive calls
# execute_stacked/backward_stacked, which spans.py rebinds by identity in
# every repro.qnn module, so its quantum spans still time every call.
from ..quantum.autodiff import backward as q_backward  # noqa: F401
from ..quantum.autodiff import execute as q_execute  # noqa: F401

__all__ = ["QuantumLayer", "quantum_execute"]


def _quantum_vjp_all(g, ans, operands, params, argnums):
    p = len(operands) - 1  # the weight rows, then x
    batch = g.shape[0]
    grad_inputs, grad_weights = backward_stacked(
        params["cache"],
        np.ascontiguousarray(g.reshape(batch, p, -1).transpose(1, 0, 2)),
        want_inputs=p in argnums,
    )
    return [
        grad_weights[k] if k < p
        else np.ascontiguousarray(grad_inputs.transpose(1, 0, 2)).reshape(batch, -1)
        for k in argnums
    ]


_QEXEC = Primitive("quantum_execute")
defvjp_all(_QEXEC, _quantum_vjp_all)


def quantum_execute(
    circuit: Circuit, weights: list[Tensor], x: Tensor, precision=None
) -> Tensor:
    """Run ``len(weights)`` bindings of ``circuit`` as one tape primitive.

    ``x`` is ``(batch, p * circuit.n_inputs)``; binding ``k`` reads the
    ``k``-th column block.  Returns the ``(batch, p * output_dim)``
    concatenation of the bindings' outputs.
    """
    precision = resolve_precision(precision)
    p, batch = len(weights), x.shape[0]
    inputs = np.ascontiguousarray(
        np.asarray(x.data, dtype=precision.real)
        .reshape(batch, p, -1)
        .transpose(1, 0, 2)
    )
    track = is_grad_enabled() and (
        x.requires_grad or any(w.requires_grad for w in weights)
    )
    outputs, cache = execute_stacked(
        circuit,
        inputs,
        np.stack([w.data for w in weights]),
        want_cache=track,
        dtype=precision,
    )
    data = np.ascontiguousarray(outputs.transpose(1, 0, 2)).reshape(batch, -1)
    if not track:
        return Tensor(data)
    return tape_record(_QEXEC, data, (*weights, x), {"cache": cache})


class QuantumLayer(Module):
    """Execute a parameterized circuit as one layer of a hybrid network.

    Parameters
    ----------
    circuit:
        A built circuit (with a measurement).  The layer allocates one flat
        weight vector of ``circuit.n_weights`` angles, drawn uniformly from
        ``[-pi, pi]`` ("quantum parameters fall in the range [-pi, pi]").
    rng:
        Seeded generator for weight initialization.
    dtype:
        Precision spec (:func:`repro.nn.precision.resolve_precision`)
        resolved at construction: the weights live in its real dtype and
        every execution runs at its paired complex dtype.  None follows the
        active precision policy (float64 by default).
    """

    def __init__(
        self, circuit: Circuit, rng: np.random.Generator | None = None, dtype=None
    ):
        super().__init__()
        if circuit.measurement is None:
            raise ValueError("QuantumLayer requires a measured circuit")
        self.circuit = circuit
        self.precision = resolve_precision(dtype)
        # Pay plan compilation at construction; every forward/backward then
        # binds and runs the cached program.
        stacked_plan(circuit)
        self.weights = Parameter(
            fresh_rng(rng).uniform(-np.pi, np.pi, size=circuit.n_weights),
            group="quantum",
            dtype=self.precision.real,
        )

    @property
    def output_dim(self) -> int:
        return self.circuit.output_dim

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(batch, n_inputs)`` to ``(batch, output_dim)`` outputs."""
        if x.shape[-1] != self.circuit.n_inputs:
            raise ValueError(
                f"circuit consumes {self.circuit.n_inputs} input "
                f"feature(s), got {x.shape[-1]}"
            )
        return quantum_execute(self.circuit, [self.weights], x, self.precision)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"QuantumLayer({self.circuit!r})"

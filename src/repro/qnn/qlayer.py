"""Hybrid bridge: quantum circuits as differentiable ``repro.nn`` modules.

:class:`QuantumLayer` owns the circuit's trainable rotation angles as a
``Parameter`` tagged ``group='quantum'`` (so the optimizer can apply the
paper's heterogeneous learning rates) and records every execution as a
first-class autodiff primitive (:func:`quantum_execute`): the simulator's
exact vector-Jacobian product is the primitive's registered VJP, so
``no_grad``, ``retain_graph``, precision policy, and gradient accumulation
flow through the same tape walk as the classical ops.  That VJP is the
``p = 1`` call of the stacked patched path (:mod:`repro.quantum.engine`):
the same plan and checkpointed transition-matrix backward, so
single-circuit layers — the MolQAE-style non-patched autoencoders — train
on the same hot path as the patched ones.

When the backward walk itself is being recorded (``create_graph=True``,
the grad-of-grad path behind :func:`repro.nn.autodiff.hvp`), the adjoint
cache is of no use — it yields numbers, not a differentiable graph.  The
primitive's VJP then switches to the parameter-shift rule: each weight
gradient is expanded into two shifted executions of the *same* recorded
primitive, whose own (fast) VJPs are exact adjoints — so second
derivatives are shift-of-adjoint, exact to machine precision for circuits
whose weight-sourced gates admit the two-term rule (RX/RY/RZ; enforced by
:func:`repro.quantum.shift.require_two_term`).
"""

from __future__ import annotations

import numpy as np

from ..nn.autodiff import Primitive, defvjp_all, is_tensor
from ..nn.init import fresh_rng
from ..nn.modules import Module, Parameter
from ..nn.precision import resolve_precision
from ..nn.tensor import Tensor, is_grad_enabled, tape_record
from ..quantum.autodiff import backward as q_backward
from ..quantum.autodiff import execute as q_execute
from ..quantum.circuit import Circuit
from ..quantum.engine import stacked_plan
from ..quantum.shift import _SHIFT, require_two_term

__all__ = ["QuantumLayer", "quantum_execute"]


def _quantum_vjp_all(g, ans, operands, params, argnums):
    if is_tensor(g):
        return _quantum_vjp_graph(g, operands, params, argnums)
    circuit = params["circuit"]
    grad_inputs, grad_weights = q_backward(params["cache"], g)
    grads = []
    for argnum in argnums:
        if argnum == 0:
            grads.append(grad_weights)
        elif grad_inputs is None:  # pragma: no cover - cache always has inputs
            grads.append(None)
        else:
            x_val = operands[1]
            if x_val.shape[1] > circuit.n_inputs:
                full = np.zeros_like(x_val)
                full[:, : circuit.n_inputs] = grad_inputs
                grads.append(full)
            else:
                grads.append(grad_inputs)
    return grads


def _quantum_vjp_graph(g, operands, params, argnums):
    """``create_graph`` VJP: expand weight gradients by parameter shift.

    Each shifted evaluation is itself a recorded quantum primitive, so the
    next backward walk differentiates it with the exact adjoint — second
    derivatives come out as shift-of-adjoint.
    """
    if any(argnum != 0 for argnum in argnums):
        raise NotImplementedError(
            "higher-order gradients w.r.t. quantum-layer inputs are not "
            "supported; only the rotation weights admit the "
            "parameter-shift recursion"
        )
    circuit = params["circuit"]
    require_two_term(circuit)
    weights = operands[0]
    x = operands[1] if len(operands) > 1 else None
    precision = params["precision"]
    n = circuit.n_weights
    cols = []
    for index in range(n):
        shift = np.zeros(n, dtype=weights.dtype)
        shift[index] = _SHIFT
        plus = quantum_execute(circuit, weights + shift, x, precision=precision)
        minus = quantum_execute(circuit, weights - shift, x, precision=precision)
        cols.append((g * ((plus - minus) * 0.5)).sum())
    return [Tensor.stack(cols)]


_QEXEC = Primitive("quantum_execute")
defvjp_all(_QEXEC, _quantum_vjp_all)


def quantum_execute(
    circuit: Circuit,
    weights: Tensor,
    x: Tensor | None = None,
    precision=None,
) -> Tensor:
    """Run ``circuit`` as a recorded tape primitive.

    ``weights`` (and optionally ``x``) are Tensors; the returned
    ``(batch, output_dim)`` Tensor carries a tape node whose VJP is the
    engine's exact adjoint (or the parameter-shift expansion under
    ``create_graph``).  This is the single graph entry point for
    single-circuit layers — :class:`QuantumLayer.forward` is validation
    plus this call.
    """
    precision = resolve_precision(precision)
    inputs = None if x is None else np.asarray(x.data, dtype=precision.real)
    track = is_grad_enabled() and (
        weights.requires_grad or (x is not None and x.requires_grad)
    )
    outputs, cache = q_execute(
        circuit,
        inputs,
        weights.data,
        want_cache=track,
        dtype=precision,
    )
    if not track:
        return Tensor(outputs)
    args = (weights,) if x is None else (weights, x)
    return tape_record(
        _QEXEC,
        outputs,
        args,
        {"cache": cache, "circuit": circuit, "precision": precision},
    )


class QuantumLayer(Module):
    """Execute a parameterized circuit as one layer of a hybrid network.

    Parameters
    ----------
    circuit:
        A built circuit template (with a measurement).  The layer allocates
        one flat weight vector matching ``circuit.n_weights``.
    rng:
        Seeded generator for weight initialization.
    init_scale:
        Weights are drawn uniformly from ``[-init_scale, init_scale]``.
        Defaults to pi, covering the full rotation-angle range the paper
        discusses ("quantum parameters fall in the range [-pi, pi]").
    input_prefix:
        Accept inputs wider than ``circuit.n_inputs``: the circuit consumes
        the leading ``circuit.n_inputs`` columns and the extra columns are
        ignored (they receive zero gradient).  Off by default — a width
        mismatch is almost always a wiring bug, and silently training on an
        unintended feature prefix corrupts gradients without any error, so
        the assumption must be opted into explicitly.
    dtype:
        Precision spec (:func:`repro.nn.precision.resolve_precision`)
        resolved at construction: the rotation weights live in its real
        dtype and every execution runs at its paired complex dtype.  None
        follows the active precision policy (float64 by default).
    """

    def __init__(
        self,
        circuit: Circuit,
        rng: np.random.Generator | None = None,
        init_scale: float = np.pi,
        input_prefix: bool = False,
        dtype=None,
    ):
        super().__init__()
        if circuit.measurement is None:
            raise ValueError("QuantumLayer requires a measured circuit")
        self.circuit = circuit
        self.input_prefix = bool(input_prefix)
        self.precision = resolve_precision(dtype)
        # Pay plan compilation at construction; every forward/backward then
        # binds and runs the cached program.
        stacked_plan(circuit)
        rng = fresh_rng(rng)
        self.weights = Parameter(
            rng.uniform(-init_scale, init_scale, size=circuit.n_weights),
            group="quantum",
            dtype=self.precision.real,
        )

    @property
    def output_dim(self) -> int:
        return self.circuit.output_dim

    def forward(self, x: Tensor | None = None) -> Tensor:
        """Run the circuit on a ``(batch, n_inputs)`` tensor (or no input).

        Returns a ``(batch, output_dim)`` tensor wired into the autodiff
        graph: backward computes exact gradients for both the rotation
        weights and (when the circuit embeds inputs) the input features.
        """
        if x is not None and x.shape[-1] != self.circuit.n_inputs:
            if not (self.input_prefix and x.shape[-1] > self.circuit.n_inputs):
                hint = (
                    "; construct the layer with input_prefix=True to "
                    "deliberately feed the circuit a wider tensor's leading "
                    "columns"
                    if x.shape[-1] > self.circuit.n_inputs
                    else ""
                )
                raise ValueError(
                    f"circuit consumes {self.circuit.n_inputs} input "
                    f"feature(s), got {x.shape[-1]}{hint}"
                )
        return quantum_execute(
            self.circuit, self.weights, x, precision=self.precision
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"QuantumLayer({self.circuit!r})"

"""Parameter-shift rule — the hardware-compatible gradient baseline.

Every parametric gate is an RY or RZ, generated by an involutory Pauli
(the eigenvalues of G/2 are +-1/2), so the exact derivative of any
expectation-value output is

    df/dtheta = ( f(theta + pi/2) - f(theta - pi/2) ) / 2

This module exists to cross-validate the fast adjoint backward pass in
:mod:`repro.quantum.autodiff`: the property-based tests assert both methods
agree to near machine precision.  It costs two executions per parameter, so
it is used only in tests and verification tooling, never in training, and
only for first derivatives: the tape computes nothing of higher order.
"""

from __future__ import annotations

import numpy as np

from .autodiff import execute
from .circuit import Circuit

__all__ = ["parameter_shift_gradients", "parameter_shift_jacobian"]

_SHIFT = np.pi / 2


def parameter_shift_jacobian(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    dtype=None,
) -> np.ndarray:
    """Jacobian d outputs / d weights, shape ``(batch, output_dim, n_weights)``.

    ``dtype`` selects the execution precision of the shifted evaluations
    (None follows the active policy); the Jacobian itself always
    accumulates in float64.
    """
    weights = np.asarray(weights, dtype=np.float64)
    base, __ = execute(circuit, inputs, weights, want_cache=False, dtype=dtype)
    batch, out_dim = base.shape
    jacobian = np.zeros((batch, out_dim, circuit.n_weights), dtype=np.float64)
    for index in range(circuit.n_weights):
        shifted = weights.copy()
        shifted[index] = weights[index] + _SHIFT
        plus, __ = execute(circuit, inputs, shifted, want_cache=False, dtype=dtype)
        shifted[index] = weights[index] - _SHIFT
        minus, __ = execute(circuit, inputs, shifted, want_cache=False, dtype=dtype)
        jacobian[:, :, index] = (plus - minus) / 2.0
    return jacobian


def parameter_shift_gradients(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    grad_outputs: np.ndarray,
    dtype=None,
) -> np.ndarray:
    """Weight gradient via parameter shift, contracted with ``grad_outputs``.

    Matches the ``grad_weights`` returned by
    :func:`repro.quantum.autodiff.backward` (summed over the batch).
    """
    jacobian = parameter_shift_jacobian(circuit, inputs, weights, dtype=dtype)
    return np.einsum("bo,bow->w", np.asarray(grad_outputs, dtype=np.float64), jacobian)

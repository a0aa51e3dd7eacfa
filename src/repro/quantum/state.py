"""Batched statevector representation and gate application.

States are stored as ``(batch, 2**n)`` complex arrays; every operation is
vectorized over the batch, which is what makes training the paper's hybrid
models tractable on a CPU.  Wire 0 is the most significant bit of the
computational-basis index (PennyLane convention).

The state dtype is policy-parameterized (:mod:`repro.nn.precision`):
``complex128`` by default, ``complex64`` when the caller opts into single
precision — measurement helpers derive their real dtype from the state, so
a ``complex64`` pass yields ``float32`` probabilities and expectations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn.precision import real_dtype_for

__all__ = [
    "zero_state",
    "num_wires",
    "apply_gate",
    "expval_z",
    "probabilities",
    "z_signs",
]


def zero_state(n_wires: int, batch: int = 1, dtype=np.complex128) -> np.ndarray:
    """The |0...0> state replicated over a batch."""
    state = np.zeros((batch, 2**n_wires), dtype=dtype)
    state[:, 0] = 1.0
    return state


def num_wires(state: np.ndarray) -> int:
    """Infer the wire count from a ``(batch, 2**n)`` state."""
    dim = state.shape[-1]
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    return n


def apply_gate(
    state: np.ndarray, gate: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply a k-qubit gate to the given wires of a batched state.

    ``gate`` is either a ``(2**k, 2**k)`` matrix shared across the batch or a
    ``(batch, 2**k, 2**k)`` stack of per-sample matrices (used by angle
    embedding, where the rotation angle is a data feature).
    """
    batch = state.shape[0]
    n = num_wires(state)
    k = len(wires)
    if len(set(wires)) != k:
        raise ValueError(f"duplicate wires in {wires}")
    if any(not 0 <= w < n for w in wires):
        raise ValueError(f"wires {wires} out of range for {n}-qubit state")
    dim_k = 2**k
    if gate.shape[-2:] != (dim_k, dim_k):
        raise ValueError(f"gate shape {gate.shape} does not act on {k} wires")

    psi = state.reshape((batch,) + (2,) * n)
    source_axes = [w + 1 for w in wires]
    dest_axes = list(range(1, k + 1))
    psi = np.moveaxis(psi, source_axes, dest_axes)
    moved_shape = psi.shape
    psi = psi.reshape(batch, dim_k, -1)

    if gate.ndim == 2:
        psi = np.einsum("ij,bjr->bir", gate, psi)
    elif gate.ndim == 3:
        if gate.shape[0] != batch:
            raise ValueError(
                f"batched gate has batch {gate.shape[0]}, state has {batch}"
            )
        psi = np.einsum("bij,bjr->bir", gate, psi)
    else:
        raise ValueError(f"gate must be 2- or 3-dimensional, got {gate.ndim}")

    psi = psi.reshape(moved_shape)
    psi = np.moveaxis(psi, dest_axes, source_axes)
    return psi.reshape(batch, 2**n)


def expval_z(state: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    """Pauli-Z expectation on each wire: ``(batch, len(wires))`` in [-1, 1].

    This is the measurement the paper uses for encoder outputs (latent
    variables) and for SQ decoder outputs.
    """
    signs = z_signs(num_wires(state), dtype=real_dtype_for(state.dtype))
    return probabilities(state) @ signs[list(wires)].T


def probabilities(state: np.ndarray) -> np.ndarray:
    """Basis-state probabilities |<i|psi>|^2, shape ``(batch, 2**n)``.

    The paper's baseline quantum decoder returns this 2**n-dimensional
    vector as the reconstruction.
    """
    return state.real**2 + state.imag**2


_Z_SIGN_CACHE: dict[tuple[int, np.dtype], np.ndarray] = {}


def z_signs(n_wires: int, dtype=np.float64) -> np.ndarray:
    """Sign pattern of Z on each wire over basis indices: ``(n, 2**n)`` of +-1."""
    dtype = np.dtype(dtype)
    key = (n_wires, dtype)
    cached = _Z_SIGN_CACHE.get(key)
    if cached is not None:
        return cached
    indices = np.arange(2**n_wires)
    signs = np.empty((n_wires, 2**n_wires), dtype=dtype)
    for w in range(n_wires):
        bit = (indices >> (n_wires - 1 - w)) & 1
        signs[w] = 1.0 - 2.0 * bit
    _Z_SIGN_CACHE[key] = signs
    return signs

"""Quantum gate matrices and their generators.

Conventions follow PennyLane (the paper's simulation platform):

* ``RY/RZ(theta) = exp(-i * theta / 2 * P)`` for Pauli ``P``.
* ``Rot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)`` — the
  three-parameter rotation the paper places on every qubit of each strongly
  entangling layer.
* ``CNOT`` on (control, target), the entangler of that layer's ring.

Each parameterized gate exposes its *generator* ``G`` such that
``dU/dtheta = -i/2 * G @ U(theta)``; the exact backward pass in
:mod:`repro.quantum.autodiff` uses this identity.

Gate construction is dtype-parameterized for the precision policy
(:mod:`repro.nn.precision`): parametric gates follow their angle's real
dtype (``float32`` angles yield ``complex64`` matrices) unless an explicit
``dtype`` is passed, and :func:`fixed_gate` / :func:`generator` hand out
cached casts of the constant matrices, so a ``complex64`` execution never
mixes widths mid-kernel.  The module-level constants stay ``complex128``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_Y",
    "PAULI_Z",
    "CNOT",
    "ry",
    "rz",
    "rot",
    "fixed_gate",
    "generator",
    "PARAMETRIC_GATES",
    "FIXED_GATES",
    "GENERATORS",
]

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def _as_angle(theta) -> np.ndarray:
    """Coerce an angle to a floating array, preserving float32/float64."""
    theta = np.asarray(theta)
    if theta.dtype.kind != "f":
        theta = theta.astype(np.float64)
    return theta


def _gate_dtype(theta: np.ndarray, dtype) -> np.dtype:
    """Requested dtype, or the complex counterpart of the angle dtype."""
    if dtype is not None:
        return np.dtype(dtype)
    return np.result_type(theta.dtype, np.complex64)


def ry(theta, dtype=None) -> np.ndarray:
    """Rotation about Y."""
    theta = _as_angle(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return _assemble_2x2(c, -s, s, c, _gate_dtype(theta, dtype))


def rz(theta, dtype=None) -> np.ndarray:
    """Rotation about Z."""
    theta = _as_angle(theta)
    phase = np.exp(-0.5j * theta)
    zero = np.zeros_like(phase)
    return _assemble_2x2(phase, zero, zero, np.conj(phase), _gate_dtype(theta, dtype))


def rot(phi: float, theta: float, omega: float, dtype=None) -> np.ndarray:
    """General single-qubit rotation ``RZ(omega) RY(theta) RZ(phi)``."""
    return rz(omega, dtype) @ ry(theta, dtype) @ rz(phi, dtype)


def _assemble_2x2(a, b, c, d, dtype=np.complex128) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim == 0:
        return np.array([[a, b], [c, d]], dtype=dtype)
    gate = np.empty(a.shape + (2, 2), dtype=dtype)
    gate[..., 0, 0] = a
    gate[..., 0, 1] = b
    gate[..., 1, 0] = c
    gate[..., 1, 1] = d
    return gate


PARAMETRIC_GATES = {"RY": ry, "RZ": rz}
FIXED_GATES = {"CNOT": CNOT}

# Public so the compiled engine (repro.quantum.engine) can map generators
# through gate fusion without keeping its own copy of this table.
GENERATORS = {"RY": PAULI_Y, "RZ": PAULI_Z}

# Down-cast constant matrices are cached per (table, name, dtype) so
# lower-precision executions reuse one complex64 copy instead of re-casting
# per bind.
_CAST_CACHE: dict[tuple[int, str, np.dtype], np.ndarray] = {}


def _cached_cast(table: dict, name: str, dtype) -> np.ndarray:
    matrix = table[name]
    dtype = np.dtype(dtype)
    if matrix.dtype == dtype:
        return matrix
    key = (id(table), name, dtype)
    cached = _CAST_CACHE.get(key)
    if cached is None:
        cached = _CAST_CACHE[key] = matrix.astype(dtype)
    return cached


def fixed_gate(name: str, dtype=np.complex128) -> np.ndarray:
    """The constant gate matrix for ``name`` in the given complex dtype."""
    return _cached_cast(FIXED_GATES, name, dtype)


def generator(name: str, dtype=np.complex128) -> np.ndarray:
    """Return ``G`` with ``dU/dtheta = -i/2 G U`` for a parametric gate."""
    try:
        return _cached_cast(GENERATORS, name, dtype)
    except KeyError:
        raise KeyError(f"gate {name!r} has no generator (not parametric)") from None

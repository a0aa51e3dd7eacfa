"""Quantum-classical bridge: circuits as differentiable network modules.

One tape primitive (:func:`repro.qnn.qlayer.quantum_execute`) runs every
quantum layer: :class:`QuantumLayer` is its ``p = 1`` call, and
:class:`PatchedQuantumLayer` runs ``p`` weight vectors of one shared
circuit (Section III-C's patches) through it as one stacked pass.  The
circuit builders the models use live in :mod:`repro.qnn.circuits`.
"""

from .circuits import (
    amplitude_encoder_circuit,
    angle_expval_circuit,
    probs_decoder_circuit,
)
from .patched import PatchedQuantumLayer, patch_qubits, patched_latent_dim
from .qlayer import QuantumLayer

__all__ = [
    "QuantumLayer",
    "PatchedQuantumLayer",
    "patch_qubits",
    "patched_latent_dim",
    "amplitude_encoder_circuit",
    "probs_decoder_circuit",
    "angle_expval_circuit",
]

"""Quantum-classical bridge: circuits as differentiable network modules."""

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

"""Patched quantum circuits — the paper's key scaling contribution.

Section III-C: *"we partition the entire feature vector into multiple
equal-sized sub-vectors, and each sub-vector is fed into a quantum
sub-circuit"*.  Compared with the patch-GAN of Huang et al. (which feeds all
features to every sub-circuit), this uses fewer qubits per patch and widens
the output: with ``p`` patches over 1024 features each patch amplitude-embeds
``1024/p`` features into ``log2(1024/p)`` qubits, and the concatenated
per-qubit expectations give a latent space of ``p * log2(1024/p)`` dimensions
(18/32/56/96 for p = 2/4/8/16 — Section IV-D).

The ``p`` sub-circuits are one template circuit with ``p`` weight vectors.
:class:`PatchedQuantumLayer` shares that ``Circuit`` (and so one compiled
plan) with its ``patches`` children and runs them all as one
:func:`repro.qnn.qlayer.quantum_execute` call: one ``(p * batch, 2**n)``
statevector pass, one tape node over the patch weights and the input, one
adjoint walk.  A :class:`~repro.qnn.qlayer.QuantumLayer` is its ``p = 1``.
"""

from __future__ import annotations

import numpy as np

from ..nn.init import fresh_rng
from ..nn.modules import Module, ModuleList
from ..nn.precision import resolve_precision
from ..nn.tensor import Tensor
from ..quantum.circuit import Circuit
from .qlayer import QuantumLayer, quantum_execute

# perfbench/spans.py looks these two up here by name; the same functions
# run inside quantum_execute (see the note in qlayer.py).
from ..quantum.autodiff import backward_stacked, execute_stacked  # noqa: F401

__all__ = ["PatchedQuantumLayer", "patched_latent_dim", "patch_qubits"]


def patch_qubits(n_features: int, n_patches: int) -> int:
    """Qubits per patch for amplitude-embedded patches: log2(features/p)."""
    if n_features % n_patches:
        raise ValueError(
            f"{n_features} features do not split into {n_patches} equal patches"
        )
    per_patch = n_features // n_patches
    if per_patch < 2:
        raise ValueError(
            f"{n_features} features over {n_patches} patches leaves "
            f"{per_patch} feature(s) per patch — a 0-qubit sub-circuit; "
            "use fewer patches"
        )
    n_qubits = int(per_patch).bit_length() - 1
    if 2**n_qubits != per_patch:
        raise ValueError(f"patch size {per_patch} is not a power of two")
    return n_qubits


def patched_latent_dim(n_features: int, n_patches: int) -> int:
    """Latent dimension of a patched amplitude encoder: p * log2(features/p)."""
    return n_patches * patch_qubits(n_features, n_patches)


class PatchedQuantumLayer(Module):
    """Split features across ``p`` copies of one circuit, concat outputs.

    Parameters
    ----------
    circuit:
        The measured template every patch runs; patch ``k`` reads the
        ``k``-th block of ``circuit.n_inputs`` input columns.
    n_patches:
        Number of sub-circuits ``p``.
    rng:
        Seeded generator; the patches draw their weights from it in order.
    dtype:
        Precision spec resolved at construction and shared by every patch:
        weights live in its real dtype, the stacked pass runs at its paired
        complex dtype.  None follows the active precision policy.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_patches: int,
        rng: np.random.Generator | None = None,
        dtype=None,
    ):
        super().__init__()
        if n_patches < 1:
            raise ValueError("need at least one patch")
        rng = fresh_rng(rng)
        self.circuit = circuit
        self.n_patches = n_patches
        self.precision = resolve_precision(dtype)
        self.patches = ModuleList(
            QuantumLayer(circuit, rng=rng, dtype=self.precision)
            for __ in range(n_patches)
        )
        self.inputs_per_patch = circuit.n_inputs
        self.output_dim = n_patches * circuit.output_dim

    @property
    def input_dim(self) -> int:
        return self.inputs_per_patch * self.n_patches

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(batch, p * inputs_per_patch)`` to concatenated patch outputs."""
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} features "
                f"({self.n_patches} patches x {self.inputs_per_patch}), "
                f"got {x.shape[-1]}"
            )
        weights = [patch.weights for patch in self.patches]
        return quantum_execute(self.circuit, weights, x, self.precision)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PatchedQuantumLayer(patches={self.n_patches}, "
            f"in={self.input_dim}, out={self.output_dim})"
        )

"""Circuit factories for the paper's encoder / decoder blocks.

Section III fixes the repeatable hidden layer to ``Rot`` gates on every qubit
followed by a periodic CNOT layout (strongly entangling layers); what varies
between architectures is the embedding and the measurement:

* baseline encoder  — amplitude embedding, per-qubit Z expectations
  (latent dim = n_wires = log2(features));
* baseline decoder  — angle embedding of the latent, basis probabilities
  (output dim = 2**n_wires);
* scalable encoder/decoder patches — amplitude/angle embedding with
  *expectation* outputs, assembled by
  :class:`repro.qnn.patched.PatchedQuantumLayer`.
"""

from __future__ import annotations

from ..quantum.circuit import Circuit

__all__ = [
    "amplitude_encoder_circuit",
    "probs_decoder_circuit",
    "angle_expval_circuit",
]


def amplitude_encoder_circuit(
    n_wires: int, n_features: int, n_layers: int, zero_fallback: bool = False
) -> Circuit:
    """Amplitude-embed ``n_features`` then measure Z on every wire.

    The qubit-efficient encoder: 64 features -> 6 qubits -> 6 latent values.
    ``zero_fallback`` lets all-zero patch sub-vectors embed as |0...0>
    (needed by the scalable patched encoder on sparse ligand matrices).
    """
    return (
        Circuit(n_wires)
        .amplitude_embedding(n_features, zero_fallback=zero_fallback)
        .strongly_entangling_layers(n_layers)
        .measure_expval()
    )


def probs_decoder_circuit(n_wires: int, n_layers: int) -> Circuit:
    """Angle-embed ``n_wires`` latent values then measure basis probabilities.

    The baseline decoder: 6 latent angles -> 2**6 = 64 probabilities, which
    only reconstructs *normalized* data (outputs sum to 1) — the constraint
    Fig. 4(a) of the paper attributes the baseline's failure on
    original-scale data to.
    """
    return (
        Circuit(n_wires)
        .angle_embedding(n_wires)
        .strongly_entangling_layers(n_layers)
        .measure_probs()
    )


def angle_expval_circuit(n_wires: int, n_features: int, n_layers: int) -> Circuit:
    """Angle-embed ``n_features`` then measure Z on every wire.

    Used by the scalable decoder patches, where probabilities over 1024
    basis states would be "too miniscule to be reconstructed" (Section
    III-C); expectations keep outputs O(1).
    """
    return (
        Circuit(n_wires)
        .angle_embedding(n_features)
        .strongly_entangling_layers(n_layers)
        .measure_expval()
    )


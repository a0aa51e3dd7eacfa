"""Simulator scaling benchmarks: cost vs qubits, patches, and batch size.

These document the computational envelope of the reproduction (and guard
against performance regressions): statevector simulation is exponential in
qubits per circuit but the patched architecture keeps each patch small —
the entire point of Section III-C.
"""

import numpy as np
import pytest

from repro.quantum import Circuit, backward, execute


def _run_circuit(n_wires, n_layers=3, batch=32):
    circuit = (
        Circuit(n_wires)
        .amplitude_embedding(2**n_wires, zero_fallback=True)
        .strongly_entangling_layers(n_layers)
        .measure_expval()
    )
    rng = np.random.default_rng(n_wires)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(batch, 2**n_wires))) + 0.01

    def step():
        outputs, cache = execute(circuit, inputs, weights)
        grad_in, grad_w = backward(cache, np.ones_like(outputs))
        return grad_w

    return step


@pytest.mark.parametrize("n_wires", [4, 6, 8, 10])
def bench_forward_backward_by_qubits(benchmark, n_wires):
    """Forward+backward cost of one circuit at increasing qubit counts."""
    grad_w = benchmark(_run_circuit(n_wires))
    assert np.isfinite(grad_w).all()


@pytest.mark.parametrize("batch", [1, 8, 32, 128])
def bench_forward_backward_by_batch(benchmark, batch):
    """Batched simulation amortization at a fixed 8-qubit circuit."""
    grad_w = benchmark(_run_circuit(8, batch=batch))
    assert np.isfinite(grad_w).all()


@pytest.mark.parametrize("patches", [2, 4, 8, 16])
def bench_patched_encoder_by_patch_count(benchmark, patches):
    """Full 1024-feature patched encoder: more patches = smaller circuits.

    Total state memory scales as p * 2**(10 - log2 p) = 1024 * p / p = 1024
    amplitudes per sample regardless — but gate cost per patch shrinks
    exponentially, which is why p = 16 is cheaper than p = 2 despite
    running 8x more circuits.
    """
    from repro.nn import Tensor
    from repro.qnn import PatchedQuantumLayer, amplitude_encoder_circuit, patch_qubits

    qubits = patch_qubits(1024, patches)
    rng = np.random.default_rng(patches)
    layer = PatchedQuantumLayer(
        amplitude_encoder_circuit(qubits, 1024 // patches, 5, zero_fallback=True),
        n_patches=patches,
        rng=rng,
    )
    x = Tensor(np.abs(rng.normal(size=(32, 1024))) + 0.01)
    out = benchmark(lambda: layer(x))
    assert out.shape[1] == layer.output_dim


def bench_molecule_generation(benchmark):
    """Dataset substrate: ligand generation throughput."""
    from repro.chem import MoleculeSpec, random_molecules

    spec = MoleculeSpec(min_atoms=12, max_atoms=32,
                        hetero_weights={"N": 0.1, "O": 0.12, "S": 0.03},
                        ring_closure_prob=0.5, max_ring_closures=3)
    mols = benchmark(lambda: random_molecules(25, seed=0, spec=spec))
    assert len(mols) == 25

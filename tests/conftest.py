"""Shared fixtures: seeded random circuits and gradient cross-checks.

The engine property suites (compiled, stacked, differential, precision,
patched) all need the same two ingredients — a seeded random-circuit
generator covering the whole gate set, and a parameter-shift
cross-check for adjoint weight gradients.  They used to carry near-identical
private copies; the fixtures below are the one shared implementation.

Both fixtures are session-scoped factory handles (plain functions), so they
compose with hypothesis ``@given`` tests without tripping the
function-scoped-fixture health check.
"""

import numpy as np
import pytest

from repro.quantum import Circuit, Operation, parameter_shift_gradients

ALL_GATES = ["RY", "RZ", "CNOT"]


def build_random_circuit(
    rng,
    n_wires,
    n_ops,
    embedding="none",
    measurement="expval",
    reupload=False,
    adjacent=False,
):
    """A seeded random circuit over the whole gate set: RY, RZ and CNOT.

    Covers every lowering rule the engine has: fused rotation runs (lone
    rotations included), CNOT gathers and their composition, and both
    embeddings.  ``reupload`` sprinkles input-sourced rotations through the
    body so fused runs mix batched (per-sample) and shared matrices;
    ``adjacent`` biases rotation placement onto neighbouring wires so the
    scheduler's 4x4 kron pair merging is exercised hard.
    """
    circuit = Circuit(n_wires)
    if embedding == "amplitude":
        circuit.amplitude_embedding(2**n_wires)
    elif embedding == "angle":
        circuit.angle_embedding(n_wires)
    prev_wire = 0
    for _ in range(n_ops):
        name = ALL_GATES[rng.integers(len(ALL_GATES))]
        if name == "CNOT" and n_wires < 2:
            name = "RY"
        if name == "CNOT":
            a, b = rng.choice(n_wires, size=2, replace=False)
            circuit.cnot(int(a), int(b))
            continue
        if adjacent and n_wires > 1:
            step = int(rng.integers(-1, 2))
            wire = int(np.clip(prev_wire + step, 0, n_wires - 1))
        else:
            wire = int(rng.integers(n_wires))
        prev_wire = wire
        if reupload and circuit.n_inputs and rng.random() < 0.3:
            source = ("input", int(rng.integers(circuit.n_inputs)))
        else:
            source = ("weight", circuit._new_weight())
        circuit.ops.append(Operation(name, (wire,), source))
    if measurement == "expval":
        circuit.measure_expval()
    else:
        circuit.measure_probs()
    return circuit


def assert_gradients_match_shift(
    circuit, inputs, weights, grad_outputs, grad_weights, atol=1e-9, dtype=None
):
    """Adjoint weight gradients must reproduce the parameter-shift rule."""
    shift = parameter_shift_gradients(
        circuit, inputs, weights, grad_outputs, dtype=dtype
    )
    np.testing.assert_allclose(grad_weights, shift, atol=atol)


@pytest.fixture(scope="session")
def random_circuit():
    """Factory handle on :func:`build_random_circuit`."""
    return build_random_circuit


@pytest.fixture(scope="session")
def gradcheck_shift():
    """Factory handle on :func:`assert_gradients_match_shift`."""
    return assert_gradients_match_shift

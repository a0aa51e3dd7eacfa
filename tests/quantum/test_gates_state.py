"""Unit tests for gate matrices and batched statevector operations."""

import numpy as np
import pytest

from repro.quantum import (
    apply_gate,
    expval_z,
    gates,
    num_wires,
    probabilities,
    zero_state,
)

# Fixed single-qubit gates the circuits never build, as state-op fixtures.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


class TestGateMatrices:
    @pytest.mark.parametrize("name", ["RY", "RZ"])
    def test_rotations_are_unitary(self, name):
        gate = gates.PARAMETRIC_GATES[name](0.7)
        np.testing.assert_allclose(gate @ gate.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("name", ["RY", "RZ"])
    def test_rotation_at_zero_is_identity(self, name):
        gate = gates.PARAMETRIC_GATES[name](0.0)
        np.testing.assert_allclose(gate, np.eye(2), atol=1e-12)

    def test_rz_pi_is_minus_i_z(self):
        np.testing.assert_allclose(gates.rz(np.pi), -1j * gates.PAULI_Z, atol=1e-12)

    def test_ry_pi_flips_zero_to_one(self):
        state = gates.ry(np.pi) @ np.array([1, 0], dtype=complex)
        np.testing.assert_allclose(np.abs(state) ** 2, [0, 1], atol=1e-12)

    def test_rot_composition(self):
        phi, theta, omega = 0.3, 0.8, -0.4
        expected = gates.rz(omega) @ gates.ry(theta) @ gates.rz(phi)
        np.testing.assert_allclose(gates.rot(phi, theta, omega), expected, atol=1e-12)

    def test_batched_rotation_matches_scalar(self):
        thetas = np.array([0.1, 0.2, 0.3])
        batched = gates.ry(thetas)
        assert batched.shape == (3, 2, 2)
        for theta, gate in zip(thetas, batched):
            np.testing.assert_allclose(gate, gates.ry(theta), atol=1e-12)

    def test_generator_identity_rotations(self):
        # dU/dtheta == -i/2 * G * U, checked by finite differences.
        eps = 1e-7
        for name in ["RY", "RZ"]:
            fn = gates.PARAMETRIC_GATES[name]
            theta = 0.4321
            numeric = (fn(theta + eps) - fn(theta - eps)) / (2 * eps)
            analytic = -0.5j * gates.generator(name) @ fn(theta)
            np.testing.assert_allclose(numeric, analytic, atol=1e-7)

    def test_generator_unknown_gate_raises(self):
        with pytest.raises(KeyError):
            gates.generator("CNOT")


class TestStateOps:
    def test_zero_state(self):
        state = zero_state(3, batch=2)
        assert state.shape == (2, 8)
        np.testing.assert_allclose(probabilities(state)[:, 0], [1.0, 1.0])

    def test_num_wires(self):
        assert num_wires(zero_state(4)) == 4

    def test_num_wires_bad_dim(self):
        with pytest.raises(ValueError):
            num_wires(np.zeros((1, 3), dtype=complex))

    def test_apply_x_flips(self):
        state = apply_gate(zero_state(2), PAULI_X, (0,))
        # wire 0 is the most significant bit -> |10> = index 2
        np.testing.assert_allclose(probabilities(state)[0, 2], 1.0)

    def test_apply_cnot_entangles(self):
        state = zero_state(2)
        state = apply_gate(state, HADAMARD, (0,))
        state = apply_gate(state, gates.CNOT, (0, 1))
        probs = probabilities(state)[0]
        np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_cnot_wire_order_matters(self):
        state = apply_gate(zero_state(2), PAULI_X, (1,))  # |01>
        flipped = apply_gate(state, gates.CNOT, (1, 0))  # control wire 1 is set
        np.testing.assert_allclose(probabilities(flipped)[0, 3], 1.0, atol=1e-12)

    def test_apply_gate_preserves_norm(self):
        rng = np.random.default_rng(0)
        state = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        state /= np.linalg.norm(state, axis=1, keepdims=True)
        out = apply_gate(state, gates.ry(0.77), (1,))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(4), atol=1e-12)

    def test_apply_gate_batched_matrices(self):
        thetas = np.array([0.0, np.pi])
        state = zero_state(1, batch=2)
        out = apply_gate(state, gates.ry(thetas), (0,))
        probs = probabilities(out)
        np.testing.assert_allclose(probs[0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(probs[1], [0, 1], atol=1e-12)

    def test_apply_gate_duplicate_wires(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), gates.CNOT, (0, 0))

    def test_apply_gate_wire_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), PAULI_X, (2,))

    def test_apply_gate_wrong_gate_size(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), gates.CNOT, (0,))

    def test_batched_gate_wrong_batch(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(1, batch=3), gates.ry(np.array([0.1, 0.2])), (0,))


class TestMeasurements:
    def test_expval_zero_state(self):
        values = expval_z(zero_state(3), wires=(0, 1, 2))
        np.testing.assert_allclose(values, [[1.0, 1.0, 1.0]])

    def test_expval_flipped(self):
        state = apply_gate(zero_state(2), PAULI_X, (1,))
        values = expval_z(state, wires=(0, 1))
        np.testing.assert_allclose(values, [[1.0, -1.0]])

    def test_expval_superposition(self):
        state = apply_gate(zero_state(1), HADAMARD, (0,))
        np.testing.assert_allclose(expval_z(state, (0,)), [[0.0]], atol=1e-12)

    def test_expval_matches_analytic_ry(self):
        theta = 0.9
        state = apply_gate(zero_state(1), gates.ry(theta), (0,))
        np.testing.assert_allclose(expval_z(state, (0,)), [[np.cos(theta)]], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        state = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
        state /= np.linalg.norm(state, axis=1, keepdims=True)
        np.testing.assert_allclose(probabilities(state).sum(axis=1), np.ones(5))

"""Tests for the circuit builder, execution, and exact gradients.

The adjoint backward pass is the load-bearing component of the whole
reproduction (every hybrid model trains through it), so it is validated
three ways: against the parameter-shift rule, against finite differences,
and via hypothesis property tests over random circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    Circuit,
    Operation,
    backward,
    execute,
    prepare_amplitude_state,
    sel_weight_count,
)


def _finite_diff_weights(circuit, inputs, weights, grad_outputs, eps=1e-6):
    grads = np.zeros_like(weights)
    for i in range(weights.size):
        w = weights.copy()
        w[i] += eps
        hi, __ = execute(circuit, inputs, w, want_cache=False)
        w[i] -= 2 * eps
        lo, __ = execute(circuit, inputs, w, want_cache=False)
        grads[i] = ((hi - lo) / (2 * eps) * grad_outputs).sum()
    return grads


def _finite_diff_inputs(circuit, inputs, weights, grad_outputs, eps=1e-6):
    grads = np.zeros_like(inputs)
    for b in range(inputs.shape[0]):
        for i in range(inputs.shape[1]):
            x = inputs.copy()
            x[b, i] += eps
            hi, __ = execute(circuit, x, weights, want_cache=False)
            x[b, i] -= 2 * eps
            lo, __ = execute(circuit, x, weights, want_cache=False)
            grads[b, i] = ((hi - lo) / (2 * eps) * grad_outputs).sum(axis=1)[b]
    return grads


class TestCircuitBuilder:
    def test_sel_weight_count(self):
        circuit = Circuit(4).strongly_entangling_layers(3)
        assert circuit.n_weights == sel_weight_count(4, 3) == 36

    def test_sel_gate_sequence(self):
        circuit = Circuit(2).strongly_entangling_layers(1)
        names = [op.name for op in circuit.ops]
        assert names == ["RZ", "RY", "RZ"] * 2 + ["CNOT", "CNOT"]

    def test_sel_periodic_cnots(self):
        circuit = Circuit(3).strongly_entangling_layers(1)
        cnots = [op.wires for op in circuit.ops if op.name == "CNOT"]
        assert cnots == [(0, 1), (1, 2), (2, 0)]

    def test_single_wire_sel_has_no_cnot(self):
        circuit = Circuit(1).strongly_entangling_layers(2)
        assert all(op.name != "CNOT" for op in circuit.ops)

    def test_angle_embedding_slots(self):
        circuit = Circuit(4).angle_embedding(3)
        assert circuit.n_inputs == 3
        assert [op.source for op in circuit.ops] == [
            ("input", 0),
            ("input", 1),
            ("input", 2),
        ]

    def test_angle_embedding_too_many_features(self):
        with pytest.raises(ValueError):
            Circuit(2).angle_embedding(3)

    def test_amplitude_embedding_too_many_features(self):
        with pytest.raises(ValueError):
            Circuit(2).amplitude_embedding(5)

    def test_amplitude_embedding_must_be_first(self):
        circuit = Circuit(2).ry(0)
        with pytest.raises(ValueError):
            circuit.amplitude_embedding(4)

    def test_output_dim(self):
        assert Circuit(3).measure_expval().output_dim == 3
        assert Circuit(3).measure_probs().output_dim == 8

    def test_output_dim_without_measurement(self):
        with pytest.raises(ValueError):
            Circuit(2).output_dim

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Operation("FOO", (0,))

    @pytest.mark.parametrize("name, wires, source", [
        ("RX", (0,), ("weight", 0)),
        ("CRZ", (0, 1), ("weight", 0)),
        ("CZ", (0, 1), None),
        ("SWAP", (0, 1), None),
        ("H", (0,), None),
        ("X", (0,), None),
        ("Y", (0,), None),
        ("Z", (0,), None),
    ])
    def test_only_ry_rz_and_cnot_are_gates(self, name, wires, source):
        with pytest.raises(ValueError, match="unknown gate"):
            Operation(name, wires, source)

    @pytest.mark.parametrize("name, wires, source", [
        ("RY", (0, 1), ("weight", 0)),
        ("RZ", (), ("weight", 0)),
        ("CNOT", (0,), None),
        ("CNOT", (0, 1, 2), None),
    ])
    def test_gate_wire_count_checked(self, name, wires, source):
        with pytest.raises(ValueError, match="acts on"):
            Operation(name, wires, source)

    @pytest.mark.parametrize("name, wires, source, message", [
        ("RY", (0,), None, "requires a parameter"),
        ("CNOT", (0, 1), ("weight", 0), "takes no parameter"),
    ])
    def test_gate_parameter_checked(self, name, wires, source, message):
        with pytest.raises(ValueError, match=message):
            Operation(name, wires, source)


class TestExecution:
    def test_expval_single_ry(self):
        circuit = Circuit(1).ry(0).measure_expval()
        theta = 0.73
        outputs, __ = execute(circuit, None, np.array([theta]))
        np.testing.assert_allclose(outputs, [[np.cos(theta)]], atol=1e-12)

    def test_probs_output_sums_to_one(self):
        circuit = Circuit(3).strongly_entangling_layers(2).measure_probs()
        rng = np.random.default_rng(0)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs, __ = execute(circuit, None, weights)
        np.testing.assert_allclose(outputs.sum(axis=1), [1.0], atol=1e-12)

    def test_amplitude_embedding_probs_identity_circuit(self):
        circuit = Circuit(2).amplitude_embedding(4).measure_probs()
        x = np.array([[1.0, 2.0, 2.0, 0.0]])
        outputs, __ = execute(circuit, x, np.zeros(0))
        np.testing.assert_allclose(outputs, [[1 / 9, 4 / 9, 4 / 9, 0.0]], atol=1e-12)

    def test_amplitude_embedding_pads(self):
        circuit = Circuit(2).amplitude_embedding(3).measure_probs()
        x = np.array([[1.0, 1.0, 1.0]])
        outputs, __ = execute(circuit, x, np.zeros(0))
        np.testing.assert_allclose(outputs[0, 3], 0.0, atol=1e-12)

    def test_amplitude_embedding_zero_vector_raises(self):
        circuit = Circuit(2).amplitude_embedding(4).measure_probs()
        with pytest.raises(ValueError):
            execute(circuit, np.zeros((1, 4)), np.zeros(0))

    def test_angle_embedding_matches_analytic(self):
        circuit = Circuit(2).angle_embedding(2).measure_expval()
        x = np.array([[0.3, 1.1], [0.0, np.pi]])
        outputs, __ = execute(circuit, x, np.zeros(0))
        np.testing.assert_allclose(outputs, np.cos(x), atol=1e-12)

    def test_batched_execution_matches_loop(self):
        circuit = (
            Circuit(3)
            .angle_embedding(3)
            .strongly_entangling_layers(2)
            .measure_expval()
        )
        rng = np.random.default_rng(1)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = rng.uniform(-1, 1, size=(5, 3))
        batch_out, __ = execute(circuit, x, weights)
        for b in range(5):
            single, __ = execute(circuit, x[b : b + 1], weights)
            np.testing.assert_allclose(batch_out[b], single[0], atol=1e-12)

    def test_missing_measurement_raises(self):
        with pytest.raises(ValueError):
            execute(Circuit(2).ry(0), None, np.zeros(1))

    def test_wrong_weight_count_raises(self):
        with pytest.raises(ValueError):
            execute(Circuit(2).ry(0).measure_expval(), None, np.zeros(5))

    def test_inputs_required(self):
        circuit = Circuit(2).angle_embedding(2).measure_expval()
        with pytest.raises(ValueError):
            execute(circuit, None, np.zeros(0))


class TestGradients:
    def test_single_ry_gradient_analytic(self):
        circuit = Circuit(1).ry(0).measure_expval()
        theta = 0.73
        outputs, cache = execute(circuit, None, np.array([theta]))
        __, grad_w = backward(cache, np.ones_like(outputs))
        np.testing.assert_allclose(grad_w, [-np.sin(theta)], atol=1e-12)

    def test_adjoint_matches_parameter_shift_expval(self, gradcheck_shift):
        circuit = (
            Circuit(3)
            .angle_embedding(3)
            .strongly_entangling_layers(2)
            .measure_expval()
        )
        rng = np.random.default_rng(2)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = rng.uniform(-2, 2, size=(4, 3))
        outputs, cache = execute(circuit, x, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        __, adjoint = backward(cache, grad_outputs)
        gradcheck_shift(circuit, x, weights, grad_outputs, adjoint, atol=1e-10)

    def test_adjoint_matches_parameter_shift_probs(self, gradcheck_shift):
        circuit = Circuit(2).strongly_entangling_layers(2).measure_probs()
        rng = np.random.default_rng(3)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs, cache = execute(circuit, None, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        __, adjoint = backward(cache, grad_outputs)
        gradcheck_shift(circuit, None, weights, grad_outputs, adjoint, atol=1e-10)

    def test_input_gradients_match_finite_diff(self):
        circuit = (
            Circuit(3)
            .angle_embedding(3)
            .strongly_entangling_layers(1)
            .measure_expval()
        )
        rng = np.random.default_rng(4)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = rng.uniform(-1, 1, size=(3, 3))
        outputs, cache = execute(circuit, x, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        grad_in, __ = backward(cache, grad_outputs)
        fd = _finite_diff_inputs(circuit, x, weights, grad_outputs)
        np.testing.assert_allclose(grad_in, fd, atol=1e-6)

    def test_amplitude_input_gradients_match_finite_diff(self):
        circuit = (
            Circuit(2)
            .amplitude_embedding(4)
            .strongly_entangling_layers(1)
            .measure_expval()
        )
        rng = np.random.default_rng(5)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = rng.uniform(0.2, 2.0, size=(2, 4))
        outputs, cache = execute(circuit, x, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        grad_in, __ = backward(cache, grad_outputs)
        fd = _finite_diff_inputs(circuit, x, weights, grad_outputs)
        np.testing.assert_allclose(grad_in, fd, atol=1e-6)

    def test_probs_gradient_with_amplitude_embedding(self):
        # The F-BQ decoder-like configuration: angle in, probs out.
        circuit = (
            Circuit(2)
            .angle_embedding(2)
            .strongly_entangling_layers(2)
            .measure_probs()
        )
        rng = np.random.default_rng(7)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = rng.uniform(-1, 1, size=(3, 2))
        outputs, cache = execute(circuit, x, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        grad_in, grad_w = backward(cache, grad_outputs)
        np.testing.assert_allclose(
            grad_w, _finite_diff_weights(circuit, x, weights, grad_outputs), atol=1e-6
        )
        np.testing.assert_allclose(
            grad_in, _finite_diff_inputs(circuit, x, weights, grad_outputs), atol=1e-6
        )


class TestGradientProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n_wires=st.integers(min_value=1, max_value=4),
        n_layers=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        use_probs=st.booleans(),
    )
    def test_adjoint_equals_shift_on_random_sel_circuits(
        self, gradcheck_shift, n_wires, n_layers, seed, use_probs
    ):
        circuit = Circuit(n_wires).strongly_entangling_layers(n_layers)
        if use_probs:
            circuit.measure_probs()
        else:
            circuit.measure_expval()
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs, cache = execute(circuit, None, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        __, adjoint = backward(cache, grad_outputs)
        gradcheck_shift(circuit, None, weights, grad_outputs, adjoint)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch=st.integers(min_value=1, max_value=4),
    )
    def test_norm_preserved_under_random_circuits(self, seed, batch):
        rng = np.random.default_rng(seed)
        circuit = (
            Circuit(3)
            .angle_embedding(3)
            .strongly_entangling_layers(2)
            .measure_probs()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = rng.uniform(-3, 3, size=(batch, 3))
        outputs, __ = execute(circuit, x, weights)
        np.testing.assert_allclose(outputs.sum(axis=1), np.ones(batch), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_amplitude_state_is_normalized(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0.1, 5.0, size=(3, 6))
        state, norms = prepare_amplitude_state(features, 3)
        np.testing.assert_allclose(np.linalg.norm(state, axis=1), np.ones(3), atol=1e-12)
        assert norms.shape == (3,)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_expval_bounded(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(4).strongly_entangling_layers(3).measure_expval()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs, __ = execute(circuit, None, weights)
        assert np.all(outputs <= 1.0 + 1e-12)
        assert np.all(outputs >= -1.0 - 1e-12)

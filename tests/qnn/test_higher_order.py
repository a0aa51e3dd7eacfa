"""Grad-of-grad through quantum layers vs parameter-shift second derivatives.

The quantum primitives' ``create_graph`` VJP expands each weight gradient
into parameter-shifted executions whose own backward is the exact adjoint,
so tape second derivatives should match the shift-of-shift Hessian
(:func:`repro.quantum.shift.parameter_shift_hessian`) to machine precision
in float64 — the acceptance anchor is 1e-8.
"""

import numpy as np
import pytest

from repro.nn import Tensor, grad, hvp
from repro.qnn.circuits import amplitude_encoder_circuit, angle_expval_circuit
from repro.qnn.patched import PatchedQuantumLayer
from repro.qnn.qlayer import QuantumLayer
from repro.quantum.circuit import Circuit
from repro.quantum.shift import (
    parameter_shift_hessian,
    parameter_shift_jacobian,
    require_two_term,
)


def _weights_only_layer(seed=7):
    circuit = Circuit(2)
    circuit.strongly_entangling_layers(1)
    circuit.measure_expval()
    return QuantumLayer(circuit, rng=np.random.default_rng(seed))


class TestParameterShiftHessian:
    def test_hessian_is_symmetric(self):
        layer = _weights_only_layer()
        hessian = parameter_shift_hessian(layer.circuit, None, layer.weights.data)
        np.testing.assert_allclose(
            hessian, np.swapaxes(hessian, 2, 3), atol=1e-12
        )

    def test_hessian_diagonal_matches_double_shift_identity(self):
        # For a two-term gate, d2f/dtheta_i2 = (f(+pi) - 2 f(0) + f(-pi)) / 4
        # ... which parameter_shift_hessian must reproduce exactly.
        layer = _weights_only_layer(seed=3)
        circuit, w = layer.circuit, layer.weights.data
        hessian = parameter_shift_hessian(circuit, None, w)
        from repro.quantum.autodiff import execute

        base, __ = execute(circuit, None, w, want_cache=False)
        for i in range(circuit.n_weights):
            shifted = w.copy()
            shifted[i] = w[i] + np.pi
            hi, __ = execute(circuit, None, shifted, want_cache=False)
            shifted[i] = w[i] - np.pi
            lo, __ = execute(circuit, None, shifted, want_cache=False)
            np.testing.assert_allclose(
                hessian[:, :, i, i], (hi - 2 * base + lo) / 4.0, atol=1e-12
            )

    def test_require_two_term_rejects_crz(self):
        circuit = Circuit(2)
        circuit.crz(0, 1)
        circuit.measure_expval()
        with pytest.raises(ValueError, match="two-term"):
            require_two_term(circuit)


class TestQuantumGradOfGrad:
    def test_create_graph_first_order_matches_plain_backward(self):
        layer = _weights_only_layer()
        loss = layer(None).sum()
        (g,) = grad(loss, [layer.weights], create_graph=True, retain_graph=True)
        loss.backward()
        np.testing.assert_allclose(g.data, layer.weights.grad, atol=1e-12)

    def test_hvp_matches_parameter_shift_hessian(self):
        layer = _weights_only_layer()
        w = layer.weights
        loss = layer(None).sum()
        rng = np.random.default_rng(11)
        v = rng.normal(size=w.shape)
        h = hvp(loss, w, v)
        hessian = parameter_shift_hessian(layer.circuit, None, w.data)[0]
        reference = np.einsum("oij,j->i", hessian, v)
        np.testing.assert_allclose(h.data, reference, atol=1e-8)

    def test_hvp_with_inputs_matches_parameter_shift_hessian(self):
        circuit = angle_expval_circuit(2, 2, 1)
        layer = QuantumLayer(circuit, rng=np.random.default_rng(5))
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 2)))  # constant inputs, batched
        loss = (layer(x) ** 2).sum()
        v = rng.normal(size=layer.weights.shape)
        h = hvp(loss, layer.weights, v)

        # d2L/dw2 for L = sum f_bo^2: 2 (J^T J + sum_bo f_bo H_bo).
        outputs = layer(x).data
        jac = parameter_shift_jacobian(circuit, x.data, layer.weights.data)
        hess = parameter_shift_hessian(circuit, x.data, layer.weights.data)
        full = 2.0 * (
            np.einsum("boi,boj->ij", jac, jac)
            + np.einsum("bo,boij->ij", outputs, hess)
        )
        np.testing.assert_allclose(h.data, full @ v, atol=1e-8)

    def test_second_order_wrt_inputs_raises(self):
        circuit = angle_expval_circuit(2, 2, 1)
        layer = QuantumLayer(circuit, rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 2)), requires_grad=True)
        loss = layer(x).sum()
        with pytest.raises(NotImplementedError, match="inputs"):
            grad(grad(loss, x, create_graph=True).sum(), x)

    def test_graph_mode_rejects_crz_weights(self):
        circuit = Circuit(2)
        circuit.rx(0)
        circuit.crz(0, 1)
        circuit.measure_expval()
        layer = QuantumLayer(circuit, rng=np.random.default_rng(2))
        loss = layer(None).sum()
        with pytest.raises(ValueError, match="two-term"):
            grad(grad(loss, layer.weights, create_graph=True).sum(), layer.weights)


class TestPatchedGradOfGrad:
    @pytest.fixture()
    def layer_and_input(self):
        layer = PatchedQuantumLayer(
            lambda i: amplitude_encoder_circuit(2, 4, 1),
            n_patches=2,
            rng=np.random.default_rng(3),
        )
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 8)) + 2.0)  # away from zero-norm patches
        return layer, x

    def test_stacked_hvp_matches_per_patch_hessians(self, layer_and_input):
        layer, x = layer_and_input
        assert layer.stacked
        loss = layer(x).sum()
        params = [patch.weights for patch in layer.patches]
        rng = np.random.default_rng(17)
        vs = [rng.normal(size=p.shape) for p in params]
        hs = hvp(loss, params, vs)
        # Patches are independent, so the full Hessian is block-diagonal:
        # each patch's HVP is its own shift-of-shift Hessian applied to v_k.
        per_in = layer.inputs_per_patch
        for k, (patch, v, h) in enumerate(zip(layer.patches, vs, hs)):
            chunk = x.data[:, k * per_in : (k + 1) * per_in]
            hessian = parameter_shift_hessian(
                patch.circuit, chunk, patch.weights.data
            )
            reference = np.einsum("boij,j->i", hessian, v)
            np.testing.assert_allclose(h.data, reference, atol=1e-8)

    def test_stacked_matches_sequential_second_order(self, layer_and_input):
        layer, x = layer_and_input
        params = [patch.weights for patch in layer.patches]
        vs = [
            np.random.default_rng(23 + k).normal(size=p.shape)
            for k, p in enumerate(params)
        ]
        h_stacked = hvp((layer(x) ** 2).sum(), params, vs)
        h_seq = hvp((layer._forward_sequential(x) ** 2).sum(), params, vs)
        for hs, hq in zip(h_stacked, h_seq):
            np.testing.assert_allclose(hs.data, hq.data, atol=1e-10)

    def test_patched_second_order_wrt_inputs_raises(self, layer_and_input):
        layer, x = layer_and_input
        x.requires_grad = True
        loss = layer(x).sum()
        with pytest.raises(NotImplementedError, match="inputs"):
            grad(grad(loss, x, create_graph=True).sum(), x)

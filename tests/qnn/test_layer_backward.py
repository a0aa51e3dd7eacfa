"""First-order gradients of the quantum layers through ``Tensor.backward``.

A loss built on a :class:`QuantumLayer` or :class:`PatchedQuantumLayer`
is walked by the tape like any other graph; the layer's VJPs are the
exact adjoint.  These tests check the weight gradients against the
parameter-shift Jacobian, and everything else (input features, a whole
SQ-AE train step) against central finite differences.  Losses are squared outputs, so each
cotangent reaching the layer depends on the forward values.
"""

import numpy as np

from repro.nn import Tensor, no_grad
from repro.nn.functional import mse_loss
from repro.qnn import (
    PatchedQuantumLayer,
    QuantumLayer,
    amplitude_encoder_circuit,
    angle_expval_circuit,
)
from repro.quantum import Circuit, execute
from repro.quantum.shift import parameter_shift_jacobian


def fd_grad(loss, array, eps=1e-6):
    """Central differences of ``loss()`` w.r.t. ``array``, perturbed in place."""
    grad = np.zeros_like(array)
    flat_g, flat_x = grad.reshape(-1), array.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = loss()
        flat_x[i] = orig - eps
        lo = loss()
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * eps)
    return grad


def squared(layer, x):
    return (layer(x) ** 2).sum()


def value_of(loss_fn, *args):
    def loss():
        with no_grad():
            return loss_fn(*args).item()

    return loss


def _weights_only_layer(seed=7):
    circuit = Circuit(2)
    circuit.strongly_entangling_layers(1)
    circuit.measure_expval()
    return QuantumLayer(circuit, rng=np.random.default_rng(seed))


def _patched_layer():
    return PatchedQuantumLayer(
        lambda i: amplitude_encoder_circuit(2, 4, 1),
        n_patches=2,
        rng=np.random.default_rng(3),
    )


def _patched_input(requires_grad=False):
    rng = np.random.default_rng(5)
    # Away from zero-norm patches, where amplitude encoding has no gradient.
    return Tensor(rng.normal(size=(3, 8)) + 2.0, requires_grad=requires_grad)


class TestQuantumLayerBackward:
    def test_weights_only_layer_matches_parameter_shift(self):
        layer = _weights_only_layer()
        layer(None).sum().backward()
        jac = parameter_shift_jacobian(layer.circuit, None, layer.weights.data)
        np.testing.assert_allclose(
            layer.weights.grad, jac.sum(axis=(0, 1)), atol=1e-10
        )

    def test_batched_squared_loss_matches_jacobian(self):
        circuit = angle_expval_circuit(2, 2, 1)
        layer = QuantumLayer(circuit, rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(13).normal(size=(3, 2)))
        squared(layer, x).backward()
        # dL/dw for L = sum f_bo^2 is sum_bo 2 f_bo J_bo.
        outputs, __ = execute(circuit, x.data, layer.weights.data, want_cache=False)
        jac = parameter_shift_jacobian(circuit, x.data, layer.weights.data)
        np.testing.assert_allclose(
            layer.weights.grad,
            np.einsum("bo,bow->w", 2.0 * outputs, jac),
            atol=1e-10,
        )

    def test_angle_input_grads_match_finite_differences(self):
        # The SQ decoder's patch circuit: latent angles in, expectations out.
        layer = QuantumLayer(
            angle_expval_circuit(2, 2, 3), rng=np.random.default_rng(1)
        )
        x = Tensor(np.random.default_rng(2).uniform(-1, 1, (3, 2)),
                   requires_grad=True)
        squared(layer, x).backward()
        fd = fd_grad(value_of(squared, layer, Tensor(x.data)), x.data)
        np.testing.assert_allclose(x.grad, fd, atol=1e-6)

    def test_amplitude_layer_matches_finite_differences(self):
        circuit = Circuit(3)
        circuit.amplitude_embedding(8)
        circuit.strongly_entangling_layers(1)
        circuit.measure_expval()
        layer = QuantumLayer(circuit, rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)),
                   requires_grad=True)
        squared(layer, x).backward()
        loss = value_of(squared, layer, Tensor(x.data))
        np.testing.assert_allclose(
            layer.weights.grad, fd_grad(loss, layer.weights.data), atol=1e-6
        )
        np.testing.assert_allclose(x.grad, fd_grad(loss, x.data), atol=1e-6)


class TestPatchedLayerBackward:
    def test_squared_loss_matches_per_patch_jacobians(self):
        layer, x = _patched_layer(), _patched_input()
        assert layer.stacked
        squared(layer, x).backward()
        # Patches are independent: each patch's weight gradient is its own
        # shift-rule Jacobian contracted with 2 f on its own outputs.
        per_in = layer.inputs_per_patch
        for k, patch in enumerate(layer.patches):
            chunk = x.data[:, k * per_in : (k + 1) * per_in]
            outputs, __ = execute(
                patch.circuit, chunk, patch.weights.data, want_cache=False
            )
            jac = parameter_shift_jacobian(patch.circuit, chunk, patch.weights.data)
            np.testing.assert_allclose(
                patch.weights.grad,
                np.einsum("bo,bow->w", 2.0 * outputs, jac),
                atol=1e-10,
            )

    def test_stacked_matches_sequential_squared_loss(self):
        layer = _patched_layer()
        grads = []
        for forward in (layer, layer._forward_sequential):
            layer.zero_grad()
            x = _patched_input(requires_grad=True)
            (forward(x) ** 2).sum().backward()
            grads.append([x.grad] + [p.weights.grad for p in layer.patches])
        for stacked, sequential in zip(*grads):
            np.testing.assert_allclose(stacked, sequential, atol=1e-10)

    def test_input_grads_match_finite_differences(self):
        layer, x = _patched_layer(), _patched_input(requires_grad=True)
        squared(layer, x).backward()
        fd = fd_grad(value_of(squared, layer, Tensor(x.data)), x.data)
        np.testing.assert_allclose(x.grad, fd, atol=1e-6)


def test_scalable_qae_train_step_matches_finite_differences():
    """An SQ-AE reconstruction loss, whose input is also its target: every
    parameter's gradient and the input's match central differences."""
    from repro.models import ScalableQuantumAE

    model = ScalableQuantumAE(
        input_dim=16, n_patches=2, n_layers=1, rng=np.random.default_rng(7)
    )
    x = Tensor(np.random.default_rng(0).normal(size=(3, 16)), requires_grad=True)

    def loss_fn(inputs):
        return mse_loss(model(inputs).reconstruction, inputs)

    loss_fn(x).backward()
    loss = value_of(loss_fn, Tensor(x.data))
    params = model.parameters()
    assert params and all(p.grad is not None for p in params)
    for p in params:
        np.testing.assert_allclose(p.grad, fd_grad(loss, p.data), atol=1e-6)
    np.testing.assert_allclose(x.grad, fd_grad(loss, x.data), atol=1e-6)

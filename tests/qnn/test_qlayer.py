"""Tests for the hybrid quantum-classical bridge (QuantumLayer, patches)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Linear, Sequential, Tensor, functional as F
from repro.qnn import (
    PatchedQuantumLayer,
    QuantumLayer,
    amplitude_encoder_circuit,
    angle_expval_circuit,
    patch_qubits,
    patched_latent_dim,
    probs_decoder_circuit,
)
from repro.quantum import Circuit


def _fd_loss_grad(loss_fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat_g, flat_x = grad.reshape(-1), array.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = loss_fn()
        flat_x[i] = orig - eps
        lo = loss_fn()
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * eps)
    return grad


class TestQuantumLayer:
    def test_forward_shape_expval(self):
        layer = QuantumLayer(
            angle_expval_circuit(3, 3, 2), rng=np.random.default_rng(0)
        )
        out = layer(Tensor(np.zeros((5, 3))))
        assert out.shape == (5, 3)

    def test_forward_shape_probs(self):
        layer = QuantumLayer(probs_decoder_circuit(3, 2), rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((2, 3))))
        assert out.shape == (2, 8)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(2), atol=1e-10)

    def test_weights_are_quantum_group(self):
        layer = QuantumLayer(angle_expval_circuit(2, 2, 1))
        assert layer.weights.group == "quantum"
        assert layer.num_parameters() == layer.circuit.n_weights

    def test_requires_measured_circuit(self):
        with pytest.raises(ValueError):
            QuantumLayer(Circuit(2).ry(0))

    def test_weight_gradient_through_loss(self):
        rng = np.random.default_rng(1)
        layer = QuantumLayer(angle_expval_circuit(2, 2, 1), rng=rng)
        x = Tensor(rng.uniform(-1, 1, (3, 2)))
        target = rng.uniform(-1, 1, (3, 2))

        loss = F.mse_loss(layer(x), Tensor(target))
        loss.backward()
        analytic = layer.weights.grad.copy()

        def loss_value():
            out, __ = _np_forward(layer, x.data)
            return ((out - target) ** 2).mean()

        fd = _fd_loss_grad(lambda: loss_value(), layer.weights.data)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_input_gradient_through_loss(self):
        rng = np.random.default_rng(2)
        layer = QuantumLayer(angle_expval_circuit(2, 2, 1), rng=rng)
        x = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
        target = rng.uniform(-1, 1, (3, 2))
        F.mse_loss(layer(x), Tensor(target)).backward()
        analytic = x.grad.copy()

        def loss_value():
            out, __ = _np_forward(layer, x.data)
            return ((out - target) ** 2).mean()

        fd = _fd_loss_grad(lambda: loss_value(), x.data)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_no_grad_tracking_in_eval(self):
        from repro.nn import no_grad

        layer = QuantumLayer(angle_expval_circuit(2, 2, 1))
        with no_grad():
            out = layer(Tensor(np.zeros((1, 2))))
        assert not out.requires_grad

    def test_hybrid_chain_trains(self):
        # quantum encoder -> classical head: loss must decrease.
        rng = np.random.default_rng(3)
        layer = QuantumLayer(amplitude_encoder_circuit(3, 8, 2), rng=rng)
        head = Linear(3, 8, rng=rng)
        x = Tensor(rng.uniform(0.1, 1.0, (16, 8)))
        opt = Adam(list(layer.parameters()) + list(head.parameters()), lr=0.05)
        first = None
        for _ in range(30):
            opt.zero_grad()
            loss = F.mse_loss(head(layer(x)), x)
            loss.backward()
            opt.step()
            first = loss.item() if first is None else first
        assert loss.item() < first * 0.8

    def test_wider_input_rejected(self):
        # Feeding more features than the circuit consumes is a wiring bug:
        # the layer must error loudly instead of silently training on a
        # feature prefix.
        rng = np.random.default_rng(4)
        layer = QuantumLayer(angle_expval_circuit(2, 2, 1), rng=rng)
        x = Tensor(rng.uniform(-1, 1, (2, 5)), requires_grad=True)
        with pytest.raises(ValueError, match="consumes 2 input feature"):
            layer(x)

    def test_narrower_input_rejected(self):
        layer = QuantumLayer(angle_expval_circuit(3, 3, 1))
        with pytest.raises(ValueError, match="consumes 3"):
            layer(Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("option", ["input_prefix", "init_scale"])
    def test_removed_options_are_refused(self, option):
        with pytest.raises(TypeError, match=option):
            QuantumLayer(angle_expval_circuit(2, 2, 1), **{option: True})

    def test_weights_span_minus_pi_to_pi(self):
        layer = QuantumLayer(
            angle_expval_circuit(4, 4, 5), rng=np.random.default_rng(6)
        )
        expected = np.random.default_rng(6).uniform(
            -np.pi, np.pi, layer.circuit.n_weights
        )
        assert (layer.weights.data == expected).all()


def _np_forward(layer, inputs):
    from repro.quantum import execute

    return execute(layer.circuit, inputs, layer.weights.data, want_cache=False)


class TestPatchedLayer:
    def test_patch_qubits(self):
        assert patch_qubits(1024, 2) == 9
        assert patch_qubits(1024, 4) == 8
        assert patch_qubits(1024, 8) == 7
        assert patch_qubits(1024, 16) == 6

    def test_paper_latent_dims(self):
        # Section IV-D: LSD 18/32/56/96 for p = 2/4/8/16.
        assert patched_latent_dim(1024, 2) == 18
        assert patched_latent_dim(1024, 4) == 32
        assert patched_latent_dim(1024, 8) == 56
        assert patched_latent_dim(1024, 16) == 96

    def test_patch_validation(self):
        with pytest.raises(ValueError):
            patch_qubits(1024, 3)
        with pytest.raises(ValueError):
            patch_qubits(96, 2)

    def test_forward_shape(self):
        rng = np.random.default_rng(0)
        layer = PatchedQuantumLayer(
            amplitude_encoder_circuit(3, 8, 1), n_patches=4, rng=rng
        )
        assert layer.input_dim == 32
        assert layer.output_dim == 12
        out = layer(Tensor(np.abs(rng.normal(size=(2, 32))) + 0.1))
        assert out.shape == (2, 12)

    def test_wrong_input_dim_raises(self):
        layer = PatchedQuantumLayer(
            amplitude_encoder_circuit(2, 4, 1), n_patches=2
        )
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((1, 9))))

    def test_patches_have_independent_weights(self):
        layer = PatchedQuantumLayer(
            amplitude_encoder_circuit(2, 4, 1),
            n_patches=3,
            rng=np.random.default_rng(1),
        )
        w = [p.weights.data for p in layer.patches]
        assert not np.allclose(w[0], w[1])
        assert layer.num_parameters() == 3 * layer.patches[0].circuit.n_weights

    def test_patch_outputs_are_local(self):
        # Changing features of patch 1 must not affect patch 0 outputs.
        rng = np.random.default_rng(2)
        layer = PatchedQuantumLayer(
            amplitude_encoder_circuit(2, 4, 1), n_patches=2, rng=rng
        )
        x = np.abs(rng.normal(size=(1, 8))) + 0.1
        base = layer(Tensor(x)).data
        x2 = x.copy()
        x2[0, 5] += 1.0  # amplitude embedding is scale-invariant per patch,
        x2[0, 6] -= 0.05  # so perturb the direction, not the overall scale
        out2 = layer(Tensor(x2)).data
        np.testing.assert_allclose(base[0, :2], out2[0, :2], atol=1e-12)
        assert not np.allclose(base[0, 2:], out2[0, 2:])

    def test_gradients_flow_through_patches(self):
        rng = np.random.default_rng(3)
        layer = PatchedQuantumLayer(
            angle_expval_circuit(2, 2, 1), n_patches=2, rng=rng
        )
        x = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad.shape == (2, 4)
        for patch in layer.patches:
            assert patch.weights.grad is not None

    @settings(max_examples=10, deadline=None)
    @given(
        n_patches=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_patched_expval_outputs_bounded(self, n_patches, seed):
        rng = np.random.default_rng(seed)
        layer = PatchedQuantumLayer(
            amplitude_encoder_circuit(
                patch_qubits(16, n_patches), 16 // n_patches, 1
            ),
            n_patches=n_patches,
            rng=rng,
        )
        x = Tensor(np.abs(rng.normal(size=(3, 16))) + 0.05)
        out = layer(x)
        assert np.all(np.abs(out.data) <= 1.0 + 1e-10)

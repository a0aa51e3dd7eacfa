"""End-to-end tests for the patched layer's stacked execution path.

The stacked fast path (one engine invocation for all p patches) must be a
drop-in replacement for the sequential per-patch loop: same outputs, same
weight gradients, same input gradients — and both must agree with the
parameter-shift rule.  Layers whose patches are not structurally identical
must fall back to the loop silently and keep working; no switch selects
the loop for identical patches, so the tests call it directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, functional as F
from repro.qnn import (
    PatchedQuantumLayer,
    amplitude_encoder_circuit,
    angle_expval_circuit,
    patch_qubits,
)


def _both_modes(factory, n_patches, x_data, seed=0):
    """Run one forward+backward through the stacked pass and through the
    per-patch loop of one layer; returns (out, x_grad, weight_grads) per
    mode."""
    layer = PatchedQuantumLayer(
        factory, n_patches=n_patches, rng=np.random.default_rng(seed)
    )
    assert layer.stacked
    results = []
    for forward in (layer, layer._forward_sequential):
        layer.zero_grad()
        x = Tensor(x_data.copy(), requires_grad=True)
        out = forward(x)
        out.sum().backward()
        results.append(
            (out.data, x.grad.copy(), [p.weights.grad.copy() for p in layer.patches])
        )
    return results


class TestStackedEqualsSequential:
    @settings(max_examples=8, deadline=None)
    @given(
        n_patches=st.sampled_from([1, 2, 4]),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_amplitude_patches(self, n_patches, batch, seed):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.normal(size=(batch, n_patches * 8))) + 0.05
        (o1, gx1, gw1), (o2, gx2, gw2) = _both_modes(
            lambda i: amplitude_encoder_circuit(3, 8, 2, zero_fallback=True),
            n_patches, x, seed=seed,
        )
        np.testing.assert_allclose(o1, o2, atol=1e-10)
        np.testing.assert_allclose(gx1, gx2, atol=1e-10)
        for a, b in zip(gw1, gw2):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_angle_patches(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 6))
        (o1, gx1, gw1), (o2, gx2, gw2) = _both_modes(
            lambda i: angle_expval_circuit(2, 2, 2), 3, x, seed=3
        )
        np.testing.assert_allclose(o1, o2, atol=1e-10)
        np.testing.assert_allclose(gx1, gx2, atol=1e-10)
        for a, b in zip(gw1, gw2):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_sparse_patches_hit_zero_fallback(self):
        # An all-zero patch sub-vector (sparse ligand rows) must flow
        # through the stacked path identically to the sequential one.
        rng = np.random.default_rng(4)
        x = np.abs(rng.normal(size=(2, 16))) + 0.05
        x[0, 4:8] = 0.0  # patch 1 of sample 0 is empty
        (o1, gx1, __), (o2, gx2, ___) = _both_modes(
            lambda i: amplitude_encoder_circuit(2, 4, 1, zero_fallback=True),
            4, x, seed=4,
        )
        np.testing.assert_allclose(o1, o2, atol=1e-10)
        np.testing.assert_allclose(gx1, gx2, atol=1e-10)

    def test_weight_gradients_match_parameter_shift(self, gradcheck_shift):
        rng = np.random.default_rng(5)
        layer = PatchedQuantumLayer(
            lambda i: amplitude_encoder_circuit(2, 4, 1), n_patches=2, rng=rng
        )
        assert layer.stacked
        x = Tensor(np.abs(rng.normal(size=(3, 8))) + 0.1)
        out = layer(x)
        out.sum().backward()
        for index, patch in enumerate(layer.patches):
            chunk = x.data[:, index * 4 : (index + 1) * 4]
            gradcheck_shift(
                patch.circuit,
                chunk,
                patch.weights.data,
                np.ones((3, patch.output_dim)),
                patch.weights.grad,
                atol=1e-8,
            )

    def test_loss_training_path_matches(self):
        rng = np.random.default_rng(6)
        x_data = np.abs(rng.normal(size=(4, 16))) + 0.05
        target = rng.normal(size=(4, 6))
        layer = PatchedQuantumLayer(
            lambda i: amplitude_encoder_circuit(3, 8, 2, zero_fallback=True),
            n_patches=2,
            rng=np.random.default_rng(6),
        )
        losses = []
        for forward in (layer, layer._forward_sequential):
            layer.zero_grad()
            loss = F.mse_loss(forward(Tensor(x_data)), Tensor(target))
            loss.backward()
            losses.append(
                (loss.item(), [p.weights.grad.copy() for p in layer.patches])
            )
        assert losses[0][0] == pytest.approx(losses[1][0], abs=1e-12)
        for a, b in zip(losses[0][1], losses[1][1]):
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestStackedFallbacks:
    def test_uneven_outputs_fall_back_to_sequential(self):
        # Patches with different measurement widths are not structurally
        # identical: the layer must silently run the per-patch loop.
        def factory(i):
            circuit = amplitude_encoder_circuit(2, 4, 1)
            circuit.measurement = ("expval", (0,) if i == 0 else (0, 1))
            return circuit

        layer = PatchedQuantumLayer(
            factory, n_patches=2, rng=np.random.default_rng(7)
        )
        assert not layer.stacked
        assert layer.output_dim == 3
        x = Tensor(
            np.abs(np.random.default_rng(8).normal(size=(2, 8))) + 0.1,
            requires_grad=True,
        )
        out = layer(x)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert x.grad.shape == (2, 8)
        for patch in layer.patches:
            assert patch.weights.grad is not None

    def test_stacked_keyword_is_gone(self):
        # Identical patches always stack; nothing selects the loop for them.
        with pytest.raises(TypeError, match="stacked"):
            PatchedQuantumLayer(
                lambda i: amplitude_encoder_circuit(2, 4, 1),
                n_patches=2,
                stacked=False,
            )

    def test_stacked_is_read_only(self):
        layer = PatchedQuantumLayer(
            lambda i: amplitude_encoder_circuit(2, 4, 1), n_patches=2
        )
        with pytest.raises(AttributeError):
            layer.stacked = False

    def test_no_grad_forward_is_untracked(self):
        from repro.nn import no_grad

        layer = PatchedQuantumLayer(
            lambda i: amplitude_encoder_circuit(2, 4, 1), n_patches=2
        )
        with no_grad():
            out = layer(Tensor(np.ones((1, 8))))
        assert not out.requires_grad


class TestPatchQubitsGuards:
    def test_degenerate_single_feature_patches_rejected(self):
        # n_features == n_patches used to slip through as 0-qubit circuits
        # (per_patch = 1 passes the power-of-two check).
        with pytest.raises(ValueError, match="0-qubit"):
            patch_qubits(16, 16)

    def test_two_features_per_patch_is_the_minimum(self):
        assert patch_qubits(32, 16) == 1

    def test_existing_validations_still_hold(self):
        with pytest.raises(ValueError):
            patch_qubits(1024, 3)
        with pytest.raises(ValueError):
            patch_qubits(96, 2)

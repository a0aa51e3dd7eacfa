"""End-to-end tests for the patched layer's stacked execution.

A patched layer runs its ``p`` patches as one tape primitive over one
shared circuit.  That pass must equal a loop that calls each patch's
``QuantumLayer`` on its own input slice (written here, in the tests): same
outputs, same weight gradients, same input gradients — and both must agree
with the parameter-shift rule.  The primitive must record exactly one tape
node, whose parents are the patch weights and the input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, functional as F
from repro.nn.autodiff import topo_order
from repro.qnn import (
    PatchedQuantumLayer,
    QuantumLayer,
    amplitude_encoder_circuit,
    angle_expval_circuit,
    patch_qubits,
)
from repro.quantum import backward, backward_stacked, execute, execute_stacked
from repro.quantum.engine import stacked_plan


def per_patch_loop(layer, x):
    """Each patch's ``QuantumLayer`` on its own slice of ``x``."""
    width = layer.inputs_per_patch
    return [
        patch(x[:, k * width : (k + 1) * width])
        for k, patch in enumerate(layer.patches)
    ]


def _both_ways(circuit, n_patches, x_data, seed=0):
    """One forward + ``sum`` backward through the layer and through the
    per-patch loop; returns ``(out, x_grad, weight_grads)`` for each."""
    layer = PatchedQuantumLayer(
        circuit, n_patches=n_patches, rng=np.random.default_rng(seed)
    )
    results = []
    for stacked in (True, False):
        layer.zero_grad()
        x = Tensor(x_data.copy(), requires_grad=True)
        if stacked:
            out = layer(x)
            out.sum().backward()
            data = out.data
        else:
            outs = per_patch_loop(layer, x)
            total = outs[0].sum()
            for part in outs[1:]:
                total = total + part.sum()
            total.backward()
            data = np.concatenate([part.data for part in outs], axis=1)
        results.append(
            (data, x.grad.copy(), [p.weights.grad.copy() for p in layer.patches])
        )
    return results


class TestStackedEqualsPerPatchLoop:
    @settings(max_examples=8, deadline=None)
    @given(
        n_patches=st.sampled_from([1, 2, 4]),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_amplitude_patches(self, n_patches, batch, seed):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.normal(size=(batch, n_patches * 8))) + 0.05
        (o1, gx1, gw1), (o2, gx2, gw2) = _both_ways(
            amplitude_encoder_circuit(3, 8, 2, zero_fallback=True),
            n_patches, x, seed=seed,
        )
        np.testing.assert_allclose(o1, o2, atol=1e-10)
        np.testing.assert_allclose(gx1, gx2, atol=1e-10)
        for a, b in zip(gw1, gw2):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_angle_patches(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 6))
        (o1, gx1, gw1), (o2, gx2, gw2) = _both_ways(
            angle_expval_circuit(2, 2, 2), 3, x, seed=3
        )
        np.testing.assert_allclose(o1, o2, atol=1e-10)
        np.testing.assert_allclose(gx1, gx2, atol=1e-10)
        for a, b in zip(gw1, gw2):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_sparse_patches_hit_zero_fallback(self):
        # An all-zero patch sub-vector (sparse ligand rows) must flow
        # through the stacked pass as it does through its own patch.
        rng = np.random.default_rng(4)
        x = np.abs(rng.normal(size=(2, 16))) + 0.05
        x[0, 4:8] = 0.0  # patch 1 of sample 0 is empty
        (o1, gx1, __), (o2, gx2, ___) = _both_ways(
            amplitude_encoder_circuit(2, 4, 1, zero_fallback=True),
            4, x, seed=4,
        )
        np.testing.assert_allclose(o1, o2, atol=1e-10)
        np.testing.assert_allclose(gx1, gx2, atol=1e-10)

    def test_weight_gradients_match_parameter_shift(self, gradcheck_shift):
        rng = np.random.default_rng(5)
        layer = PatchedQuantumLayer(
            amplitude_encoder_circuit(2, 4, 1), n_patches=2, rng=rng
        )
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
            amplitude_encoder_circuit(3, 8, 2, zero_fallback=True),
            n_patches=2,
            rng=np.random.default_rng(6),
        )
        losses = []
        for stacked in (True, False):
            layer.zero_grad()
            x = Tensor(x_data)
            if stacked:
                loss = F.mse_loss(layer(x), Tensor(target))
            else:
                loss = Tensor(0.0)
                for k, out in enumerate(per_patch_loop(layer, x)):
                    diff = out - Tensor(target[:, 3 * k : 3 * k + 3])
                    loss = loss + (diff * diff).sum()
                loss = loss * (1.0 / target.size)
            loss.backward()
            losses.append(
                (loss.item(), [p.weights.grad.copy() for p in layer.patches])
            )
        assert losses[0][0] == pytest.approx(losses[1][0], abs=1e-12)
        for a, b in zip(losses[0][1], losses[1][1]):
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestOnePrimitive:
    def _layer(self, n_patches=3):
        return PatchedQuantumLayer(
            amplitude_encoder_circuit(2, 4, 1, zero_fallback=True),
            n_patches=n_patches,
            rng=np.random.default_rng(9),
        )

    def test_forward_records_one_node_over_the_weights_and_input(self):
        layer = self._layer()
        x = Tensor(np.abs(np.random.default_rng(1).normal(size=(2, 12))),
                   requires_grad=True)
        out = layer(x)
        nodes = [t for t in topo_order(out) if t._node is not None]
        assert len(nodes) == 1 and nodes[0] is out
        parents = [t for __, t in out._node.parents]
        expected = [patch.weights for patch in layer.patches] + [x]
        assert len(parents) == len(expected)
        assert all(a is b for a, b in zip(parents, expected))

    def test_input_without_grad_is_not_a_parent(self):
        layer = self._layer()
        out = layer(Tensor(np.ones((2, 12))))
        parents = [t for __, t in out._node.parents]
        assert all(a is p.weights for a, p in zip(parents, layer.patches))
        assert len(parents) == layer.n_patches

    def test_patches_share_one_circuit_and_one_plan(self):
        layer = self._layer()
        assert all(patch.circuit is layer.circuit for patch in layer.patches)
        plan = stacked_plan(layer.circuit)
        out = layer(Tensor(np.ones((2, 12))))
        assert out._node.params["cache"].plan is plan
        assert out._node.params["cache"].n_patches == layer.n_patches

    def test_no_grad_forward_is_untracked(self):
        from repro.nn import no_grad

        layer = self._layer(2)
        with no_grad():
            out = layer(Tensor(np.ones((1, 8))))
        assert not out.requires_grad
        assert out._node is None

    def test_stacked_keyword_is_gone(self):
        # Patches always stack; nothing selects a per-patch loop.
        with pytest.raises(TypeError, match="stacked"):
            PatchedQuantumLayer(
                amplitude_encoder_circuit(2, 4, 1), n_patches=2, stacked=False
            )


class TestLayersAreTheEngineCalls:
    """A ``QuantumLayer`` forward and backward equal ``execute`` /
    ``backward`` on the same arrays, and a patched layer's equal
    ``execute_stacked`` / ``backward_stacked``, with plain ``==``."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("kind", ["amplitude", "angle"])
    def test_forward_and_backward(self, kind, dtype):
        rng = np.random.default_rng(11)
        if kind == "amplitude":
            circuit = amplitude_encoder_circuit(3, 8, 2, zero_fallback=True)
            xv = np.abs(rng.normal(size=(4, 8))) + 0.05
        else:
            circuit = angle_expval_circuit(3, 3, 2)
            xv = rng.uniform(-1, 1, (4, 3))
        layer = QuantumLayer(circuit, rng=rng, dtype=dtype)
        real = layer.precision.real
        x = Tensor(xv.astype(real), requires_grad=True)
        out = layer(x)
        cot = rng.normal(size=out.shape).astype(real)
        out.backward(cot)
        expected, cache = execute(
            circuit, x.data, layer.weights.data, dtype=layer.precision
        )
        grad_inputs, grad_weights = backward(cache, cot)
        assert out.dtype == expected.dtype
        assert (out.data == expected).all()
        assert (layer.weights.grad == grad_weights).all()
        assert (x.grad == grad_inputs).all()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_patched_layer_is_the_stacked_call(self, input_grad, dtype):
        rng = np.random.default_rng(12)
        p, batch = 3, 4
        circuit = amplitude_encoder_circuit(2, 4, 2, zero_fallback=True)
        layer = PatchedQuantumLayer(circuit, p, rng=rng, dtype=dtype)
        real = layer.precision.real
        xv = (np.abs(rng.normal(size=(batch, 4 * p))) + 0.05).astype(real)
        x = Tensor(xv, requires_grad=input_grad)
        out = layer(x)
        cot = rng.normal(size=out.shape).astype(real)
        out.backward(cot)
        weights = np.stack([patch.weights.data for patch in layer.patches])
        expected, cache = execute_stacked(
            circuit, xv.reshape(batch, p, 4).transpose(1, 0, 2), weights,
            dtype=layer.precision,
        )
        grad_inputs, grad_weights = backward_stacked(
            cache, cot.reshape(batch, p, -1).transpose(1, 0, 2)
        )
        assert (out.data == expected.transpose(1, 0, 2).reshape(batch, -1)).all()
        for k, patch in enumerate(layer.patches):
            assert (patch.weights.grad == grad_weights[k]).all()
        if input_grad:
            assert (x.grad == grad_inputs.transpose(1, 0, 2).reshape(batch, -1)).all()
        else:
            assert x.grad is None


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

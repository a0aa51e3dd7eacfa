"""Layer-level precision-knob tests: QuantumLayer / PatchedQuantumLayer."""

import numpy as np

from repro.nn import Tensor, use_precision
from repro.qnn import PatchedQuantumLayer, QuantumLayer, amplitude_encoder_circuit


def _layers(dtype):
    rng = np.random.default_rng(0)
    return PatchedQuantumLayer(
        amplitude_encoder_circuit(3, 8, 2, zero_fallback=True),
        n_patches=2,
        rng=rng,
        dtype=dtype,
    )


class TestLayerPrecision:
    def test_float32_layer_outputs_and_grads(self):
        layer = _layers("float32")
        assert all(p.weights.data.dtype == np.float32 for p in layer.patches)
        x = Tensor(
            np.abs(np.random.default_rng(1).normal(size=(4, 16))) + 0.05,
            requires_grad=True,
            dtype=np.float32,
        )
        out = layer(x)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad is not None
        assert all(p.weights.grad is not None for p in layer.patches)

    def test_float32_matches_float64_layer(self):
        l32, l64 = _layers("float32"), _layers("float64")
        # Same seed stream -> identical weights up to the float32 cast.
        for p32, p64 in zip(l32.patches, l64.patches):
            np.testing.assert_allclose(
                p32.weights.data, p64.weights.data, atol=1e-6
            )
        x = np.abs(np.random.default_rng(2).normal(size=(4, 16))) + 0.05
        out32 = l32(Tensor(x, dtype=np.float32))
        out64 = l64(Tensor(x))
        np.testing.assert_allclose(out32.data, out64.data, atol=1e-5)

    def test_policy_scope_sets_layer_precision(self):
        with use_precision("float32"):
            layer = QuantumLayer(
                amplitude_encoder_circuit(3, 8, 1, zero_fallback=True),
                rng=np.random.default_rng(3),
            )
        assert layer.precision.real == np.float32
        assert layer.weights.data.dtype == np.float32
        # Inputs of any dtype are cast at the layer boundary.
        out = layer(Tensor(np.abs(np.random.default_rng(4).normal(size=(2, 8))) + 0.1))
        assert out.dtype == np.float32

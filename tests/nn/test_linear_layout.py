"""``Linear`` stores its weight in Fortran order, and layout changes no number.

The weight has shape ``(out, in)`` but ``(in, out)`` memory, so
``weight.T`` is a C-contiguous view: the forward GEMM reads the operand, in
the layout, that a contiguous copy of ``W.T`` used to give it, and the
weight gradient leaves the transpose VJP in the weight's own layout.  Each
case runs a layer against a twin holding C copies of the same weights (the
layout ``Linear`` had before) and compares outputs, gradients, parameters
and Adam moments with ``==``, signed zeros included.  Checkpoints store C
order whatever the layout, and loading keeps each parameter's layout.
"""

import io
import time
import types
import warnings
import zipfile

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    Sequential,
    Tensor,
    load_module,
    save_module,
    use_precision,
)

PRECISIONS = ["float64", "float32", "mixed32"]
# (in_features, out_features): the classical AE/VAE stacks at 1,024
# features, a 10-wide latent both ways, the SQ models' 18-wide patch
# outputs, and a square layer.
SHAPES = [(1024, 256), (256, 64), (64, 10), (10, 64), (64, 256), (256, 1024),
          (18, 1024), (32, 32)]
BATCHES = list(range(1, 41)) + [48, 81]


def assert_same(actual, expected):
    """``==`` on every element, and the same dtype, shape and signed zeros."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def layer_and_c_twin(in_features, out_features, seed=0):
    """A layer as built, and one holding C-ordered copies of its weights."""
    layer = Linear(in_features, out_features, rng=np.random.default_rng(seed))
    twin = Linear(in_features, out_features, rng=np.random.default_rng(seed))
    twin.weight.data = np.ascontiguousarray(twin.weight.data)
    return layer, twin


def forward_backward(layer, x, cotangent):
    """Output, input gradient, weight and bias gradients of one pass."""
    layer.zero_grad()
    inputs = Tensor(x, dtype=layer.weight.data.dtype, requires_grad=True)
    out = layer(inputs)
    out.backward(cotangent)
    return out.data, inputs.grad, layer.weight.grad, layer.bias.grad


@pytest.mark.parametrize("precision", PRECISIONS)
class TestLayout:
    def test_weight_is_f_ordered_and_its_transpose_a_c_view(self, precision):
        with use_precision(precision):
            layer = Linear(12, 5, rng=np.random.default_rng(0))
        weight = layer.weight.data
        assert weight.shape == (5, 12)
        assert weight.flags.f_contiguous and not weight.flags.c_contiguous
        transposed = layer.weight.T.data
        assert transposed.flags.c_contiguous
        assert np.shares_memory(transposed, weight)

    def test_gradient_has_the_weight_layout_and_adam_keeps_the_array(
            self, precision):
        with use_precision(precision):
            layer = Linear(12, 5, rng=np.random.default_rng(1))
            weight, bias = layer.weight.data, layer.bias.data
            adam = Adam(list(layer.parameters()), lr=0.01)
            rng = np.random.default_rng(2)
            for __ in range(3):
                forward_backward(layer, rng.normal(size=(7, 12)),
                                 rng.normal(size=(7, 5)))
                grad = layer.weight.grad
                assert grad.flags.f_contiguous and not grad.flags.c_contiguous
                adam.step()
                assert layer.weight.data is weight
                assert layer.bias.data is bias
        assert weight.flags.f_contiguous
        assert adam._m[id(layer.weight)].flags.f_contiguous


def test_a_general_transpose_is_still_a_copy():
    # Only an F-ordered operand transposes to a C view; anything else is
    # materialized, so a strided W.T never reaches the GEMM.
    tensor = Tensor(np.arange(12.0).reshape(3, 4))
    transposed = tensor.T.data
    assert transposed.flags.c_contiguous
    assert not np.shares_memory(transposed, tensor.data)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{i}to{o}" for i, o in SHAPES])
def test_layout_changes_no_number(shape, precision):
    """One training step at each batch size from 1 to 40, then 48 and 81:
    the output, the input, weight and bias gradients, and after each Adam
    step the parameters and both moments."""
    in_features, out_features = shape
    with use_precision(precision):
        layer, twin = layer_and_c_twin(in_features, out_features)
        adams = [Adam(list(m.parameters()), lr=0.01) for m in (layer, twin)]
        rng = np.random.default_rng(1)
        for batch in BATCHES:
            x = rng.normal(size=(batch, in_features))
            # A zero feature gives signed-zero weight gradients.
            x[:, 0] = 0.0
            cotangent = rng.normal(size=(batch, out_features))
            got = forward_backward(layer, x, cotangent)
            want = forward_backward(twin, x, cotangent)
            for actual, expected in zip(got, want):
                assert_same(actual, expected)
            for adam in adams:
                adam.step()
            for param, other in zip(layer.parameters(), twin.parameters()):
                assert_same(param.data, other.data)
                assert_same(adams[0]._m[id(param)], adams[1]._m[id(other)])
                assert_same(adams[0]._v[id(param)], adams[1]._v[id(other)])
    assert adams[0]._t[id(layer.weight)] == len(BATCHES)
    assert layer.weight.data.flags.f_contiguous
    assert twin.weight.data.flags.c_contiguous


def _model(dtype=None, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(6, 9, rng=rng, dtype=dtype),
                      Linear(9, 4, rng=rng, dtype=dtype))


def _npy_headers(path):
    """``(shape, fortran_order, dtype)`` of every ``.npy`` member."""
    headers = []
    with zipfile.ZipFile(path) as archive:
        for name in archive.namelist():
            stream = io.BytesIO(archive.read(name))
            if np.lib.format.read_magic(stream) == (1, 0):
                headers.append(np.lib.format.read_array_header_1_0(stream))
            else:
                headers.append(np.lib.format.read_array_header_2_0(stream))
    return headers


class TestCheckpointLayout:
    def test_members_are_c_ordered_and_bytes_match_a_c_copy(
            self, tmp_path, monkeypatch):
        # Pin the zip members' timestamps so whole files can be compared.
        clock = types.SimpleNamespace(time=lambda: 1_700_000_000.0,
                                      localtime=time.localtime)
        monkeypatch.setattr(zipfile, "time", clock)
        model, twin = _model(), _model()
        for param in twin.parameters():
            param.data = np.ascontiguousarray(param.data)
        assert model.layers[0].weight.data.flags.f_contiguous
        built = save_module(model, tmp_path / "built", metadata={"seed": 0})
        copied = save_module(twin, tmp_path / "copied", metadata={"seed": 0})
        headers = _npy_headers(built)
        assert len(headers) == 5
        assert all(fortran_order is False for __, fortran_order, __ in headers)
        assert built.read_bytes() == copied.read_bytes()

    @pytest.mark.parametrize("stored, built", [("float64", "float64"),
                                               ("float32", "float32"),
                                               ("float32", "float64")])
    def test_load_keeps_each_layout_and_the_stored_dtype(self, tmp_path,
                                                         stored, built):
        path = save_module(_model(dtype=stored, seed=1), tmp_path / "m")
        target = _model(dtype=built, seed=2)
        layouts = {name: (p.data.flags.c_contiguous, p.data.flags.f_contiguous)
                   for name, p in target.named_parameters()}
        with warnings.catch_warnings():
            # Loading across widths warns; that is tested elsewhere.
            warnings.simplefilter("ignore")
            load_module(target, path)
        for name, param in target.named_parameters():
            assert param.data.dtype == np.dtype(stored)
            assert (param.data.flags.c_contiguous,
                    param.data.flags.f_contiguous) == layouts[name]
        assert target.layers[1].weight.data.flags.f_contiguous
        x = np.random.default_rng(3).normal(size=(5, 6))
        assert_same(target(Tensor(x, dtype=stored)).data,
                    _model(dtype=stored, seed=1)(Tensor(x, dtype=stored)).data)

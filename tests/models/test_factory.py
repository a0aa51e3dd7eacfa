"""Tests for name-keyed model construction and checkpoint rebuilds."""

import numpy as np
import pytest

from repro.models import MODEL_CHOICES, build_from_metadata, build_model
from repro.nn import Tensor, load_module, module_fingerprint, no_grad, save_module
from repro.nn.serialization import read_checkpoint_metadata

INPUT_DIM = 16


def metadata(name, **overrides):
    """The architecture fields ``cli train --out`` records."""
    return {"model": name, "input_dim": INPUT_DIM, "n_patches": 2,
            "n_layers": 1, "latent_dim": 4, "seed": 3, **overrides}


def reconstruction(model, features):
    """Encode then decode through the posterior mean: no sampling noise."""
    with no_grad():
        return model.decode(model.encode(Tensor(features))).data


def parameter_dtypes(model):
    return {param.data.dtype for param in model.parameters()}


class TestBuildFromMetadata:
    @pytest.mark.parametrize("name", MODEL_CHOICES)
    def test_checkpoint_round_trip(self, name, tmp_path):
        source = build_model(name, INPUT_DIM, 2, 1, 4, seed=3)
        # Stand in for training: the saved weights are not the seed's init.
        gen = np.random.default_rng(0)
        for param in source.parameters():
            param.data = param.data + gen.normal(
                scale=0.1, size=param.data.shape).astype(param.data.dtype)
        path = save_module(source, tmp_path / name, metadata=metadata(name))

        rebuilt = build_from_metadata(read_checkpoint_metadata(path))
        assert type(rebuilt) is type(source)
        assert rebuilt.is_variational == name.endswith("vae")
        assert module_fingerprint(rebuilt) != module_fingerprint(source)
        load_module(rebuilt, path)
        assert module_fingerprint(rebuilt) == module_fingerprint(source)
        features = np.abs(gen.normal(size=(3, INPUT_DIM))) + 0.1
        np.testing.assert_array_equal(reconstruction(rebuilt, features),
                                      reconstruction(source, features))

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_recorded_precision_sets_the_parameter_dtype(self, precision):
        rebuilt = build_from_metadata(metadata("sq-vae", precision=precision))
        assert parameter_dtypes(rebuilt) == {np.dtype(precision)}

    def test_checkpoint_without_precision_builds_float64(self):
        rebuilt = build_from_metadata(metadata("vae"))
        assert parameter_dtypes(rebuilt) == {np.dtype(np.float64)}

    def test_optional_fields_take_their_defaults(self):
        scalable = build_from_metadata({"model": "sq-ae", "input_dim": INPUT_DIM})
        assert (scalable.n_patches, scalable.n_layers) == (4, 2)
        classical = build_from_metadata({"model": "ae", "input_dim": INPUT_DIM})
        assert classical.latent_dim == 16


class TestBuildModel:
    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(SystemExit,
                           match=r"unknown model 'gan'; choose from \["):
            build_model("gan", INPUT_DIM, 2, 1, 4, seed=0)

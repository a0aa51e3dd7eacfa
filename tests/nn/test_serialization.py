"""Tests for npz checkpointing of modules."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    ReLU,
    Sequential,
    Tensor,
    load_module,
    module_fingerprint,
    save_module,
)


def model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 4, rng=rng))


class TestSaveLoad:
    def test_roundtrip_restores_outputs(self, tmp_path):
        source = model(seed=1)
        path = save_module(source, tmp_path / "ckpt")
        target = model(seed=99)
        load_module(target, path)
        x = Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(source(x).data, target(x).data)

    def test_npz_suffix_appended(self, tmp_path):
        path = save_module(model(), tmp_path / "weights")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_metadata_roundtrip(self, tmp_path):
        path = save_module(model(), tmp_path / "m", metadata={"epoch": 7,
                                                              "loss": 0.5})
        meta = load_module(model(), path)
        assert meta == {"epoch": 7, "loss": 0.5}

    def test_load_accepts_path_without_suffix(self, tmp_path):
        save_module(model(), tmp_path / "m")
        meta = load_module(model(), tmp_path / "m")
        assert meta == {}

    def test_shape_mismatch_rejected(self, tmp_path):
        path = save_module(model(), tmp_path / "m")
        wrong = Sequential(Linear(4, 9, rng=np.random.default_rng(0)))
        with pytest.raises((KeyError, ValueError)):
            load_module(wrong, path)

    @pytest.mark.parametrize("family", ["classical", "sq"])
    def test_vae_checkpoint_into_its_ae_is_refused(self, tmp_path, family):
        # The AE has every VAE parameter but the two heads; a load that
        # only checked for missing names dropped them silently.
        from repro.models import (
            ClassicalAE,
            ClassicalVAE,
            ScalableQuantumAE,
            ScalableQuantumVAE,
        )

        if family == "classical":
            vae, ae = (cls(input_dim=16, latent_dim=3, hidden_dims=(8,),
                           rng=np.random.default_rng(0))
                       for cls in (ClassicalVAE, ClassicalAE))
        else:
            vae, ae = (cls(input_dim=16, n_patches=2, n_layers=1,
                           rng=np.random.default_rng(0))
                       for cls in (ScalableQuantumVAE, ScalableQuantumAE))
        path = save_module(vae, tmp_path / "vae")
        before = module_fingerprint(ae)
        with pytest.raises(KeyError, match="mu_head.*logvar_head|"
                                           "logvar_head.*mu_head"):
            load_module(ae, path)
        assert module_fingerprint(ae) == before

    def test_quantum_model_roundtrip(self, tmp_path):
        from repro.models import ScalableQuantumAE

        source = ScalableQuantumAE(input_dim=16, n_patches=2, n_layers=1,
                                   rng=np.random.default_rng(3))
        path = save_module(source, tmp_path / "sq")
        target = ScalableQuantumAE(input_dim=16, n_patches=2, n_layers=1,
                                   rng=np.random.default_rng(77))
        load_module(target, path)
        assert module_fingerprint(source) == module_fingerprint(target)

    def test_trained_model_roundtrip_preserves_samples(self, tmp_path):
        from repro.models import ClassicalVAE

        source = ClassicalVAE(input_dim=16, latent_dim=3, hidden_dims=(8,),
                              rng=np.random.default_rng(4))
        path = save_module(source, tmp_path / "vae")
        target = ClassicalVAE(input_dim=16, latent_dim=3, hidden_dims=(8,),
                              rng=np.random.default_rng(5))
        load_module(target, path)
        a = source.sample(3, np.random.default_rng(0))
        b = target.sample(3, np.random.default_rng(0))
        np.testing.assert_allclose(a, b)


class TestDtypeRoundTrip:
    def test_float32_checkpoint_rehydrates_as_float32(self, tmp_path):
        rng = np.random.default_rng(11)
        source = Sequential(
            Linear(4, 8, rng=rng, dtype="float32"),
            ReLU(),
            Linear(8, 4, rng=rng, dtype="float32"),
        )
        path = save_module(source, tmp_path / "f32")
        target = Sequential(
            Linear(4, 8, rng=np.random.default_rng(12), dtype="float32"),
            ReLU(),
            Linear(8, 4, rng=np.random.default_rng(12), dtype="float32"),
        )
        load_module(target, path)
        for __, param in target.named_parameters():
            assert param.data.dtype == np.float32
        assert module_fingerprint(source) == module_fingerprint(target)

    def test_float32_checkpoint_preserved_into_float64_module(self, tmp_path):
        # The checkpoint's dtype wins: no implicit float64 rehydration.
        src = Sequential(Linear(3, 3, rng=np.random.default_rng(13),
                                dtype="float32"))
        path = save_module(src, tmp_path / "x")
        dst = Sequential(Linear(3, 3, rng=np.random.default_rng(14)))
        assert dst.layers[0].weight.data.dtype == np.float64
        # Loading across widths now warns naming both dtypes — the module
        # executes at its construction precision, not the checkpoint's.
        with pytest.warns(UserWarning, match=r"float32 parameters but the "
                                             r"module was built float64"):
            load_module(dst, path)
        assert dst.layers[0].weight.data.dtype == np.float32

    def test_float64_checkpoint_unchanged(self, tmp_path):
        src = model(seed=15)
        path = save_module(src, tmp_path / "y")
        dst = model(seed=16)
        load_module(dst, path)
        for __, param in dst.named_parameters():
            assert param.data.dtype == np.float64

    def test_quantum_float32_model_roundtrip(self, tmp_path):
        from repro.models import ScalableQuantumAE

        source = ScalableQuantumAE(input_dim=16, n_patches=2, n_layers=1,
                                   rng=np.random.default_rng(17),
                                   dtype="float32")
        path = save_module(source, tmp_path / "sq32")
        target = ScalableQuantumAE(input_dim=16, n_patches=2, n_layers=1,
                                   rng=np.random.default_rng(18),
                                   dtype="float32")
        load_module(target, path)
        assert module_fingerprint(source) == module_fingerprint(target)
        x = np.abs(np.random.default_rng(0).normal(size=(2, 16))) + 0.1
        np.testing.assert_allclose(
            source.reconstruct(x), target.reconstruct(x)
        )
        assert source.reconstruct(x).dtype == np.float32


class TestFingerprint:
    def test_identical_models_match(self):
        assert module_fingerprint(model(seed=2)) == module_fingerprint(
            model(seed=2)
        )

    def test_different_weights_differ(self):
        assert module_fingerprint(model(seed=2)) != module_fingerprint(
            model(seed=3)
        )

    def test_changes_after_training_step(self):
        from repro.nn import Adam, functional as F

        m = model(seed=6)
        before = module_fingerprint(m)
        opt = Adam(list(m.parameters()), lr=0.1)
        F.mse_loss(m(Tensor(np.ones((1, 4)))), Tensor(np.zeros((1, 4)))).backward()
        opt.step()
        assert module_fingerprint(m) != before

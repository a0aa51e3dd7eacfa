"""Tests for the classical and baseline quantum autoencoders.

Includes the Table I parameter-count checks — the strongest architectural
fingerprints the paper gives us.
"""

import numpy as np
import pytest

from repro.models import (
    ClassicalAE,
    ClassicalVAE,
    FullyQuantumAE,
    FullyQuantumVAE,
    HybridQuantumAE,
    HybridQuantumVAE,
)
from repro.nn import Tensor


def rng():
    return np.random.default_rng(0)


class TestClassicalArchitecture:
    def test_ae_shapes(self):
        model = ClassicalAE(rng=rng())
        out = model(Tensor(np.zeros((4, 64))))
        assert out.reconstruction.shape == (4, 64)
        assert out.latent.shape == (4, 6)
        assert out.mu is None

    def test_vae_shapes(self):
        model = ClassicalVAE(rng=rng())
        out = model(Tensor(np.zeros((4, 64))))
        assert out.reconstruction.shape == (4, 64)
        assert out.mu.shape == (4, 6)
        assert out.logvar.shape == (4, 6)

    def test_ae_param_count_structure(self):
        # Encoder 64-32-16-6 + decoder 6-16-32-64 = 5478 trainable weights.
        # (The paper prints 5610, and 5694 for the VAE: both 132 above ours.
        # The paper's text names no layer that would account for them.)
        model = ClassicalAE(rng=rng())
        assert model.num_parameters() == 5478

    def test_vae_is_ae_plus_84(self):
        # Table I: VAE - AE = 84 (two Linear(6, 6) heads) — this the paper
        # pins down exactly and we match it.
        ae = ClassicalAE(rng=rng())
        vae = ClassicalVAE(rng=rng())
        assert vae.num_parameters() - ae.num_parameters() == 84

    def test_all_params_classical_group(self):
        counts = ClassicalVAE(rng=rng()).parameter_count_by_group()
        assert counts["quantum"] == 0
        assert counts["classical"] == counts["total"]

    def test_1024_dim_construction(self):
        model = ClassicalAE(input_dim=1024, latent_dim=16, rng=rng())
        out = model(Tensor(np.zeros((2, 1024))))
        assert out.reconstruction.shape == (2, 1024)
        assert model.hidden_dims == (256, 64)

    def test_ae_sample_raises(self):
        with pytest.raises(TypeError):
            ClassicalAE(rng=rng()).sample(5, np.random.default_rng(0))

    def test_vae_sample_shape(self):
        model = ClassicalVAE(rng=rng())
        samples = model.sample(7, np.random.default_rng(1))
        assert samples.shape == (7, 64)

    def test_vae_reparameterization_is_seeded(self):
        a = ClassicalVAE(rng=rng(), noise_seed=3)
        b = ClassicalVAE(rng=rng(), noise_seed=3)
        x = Tensor(np.ones((2, 64)))
        np.testing.assert_allclose(a(x).latent.data, b(x).latent.data)

    def test_vae_encode_is_posterior_mean(self):
        model = ClassicalVAE(rng=rng())
        x = Tensor(np.ones((2, 64)))
        mu, __ = model.encode_distribution(x)
        np.testing.assert_allclose(model.encode(x).data, mu.data)


class TestTable1Counts:
    """Exact reproductions of the derivable Table I entries."""

    def test_f_bq_ae(self):
        counts = FullyQuantumAE(rng=rng()).parameter_count_by_group()
        assert counts == {"quantum": 108, "classical": 0, "total": 108}

    def test_f_bq_vae(self):
        counts = FullyQuantumVAE(rng=rng()).parameter_count_by_group()
        assert counts == {"quantum": 108, "classical": 84, "total": 192}

    def test_h_bq_ae(self):
        counts = HybridQuantumAE(rng=rng()).parameter_count_by_group()
        assert counts == {"quantum": 108, "classical": 4202, "total": 4310}

    def test_h_bq_vae(self):
        counts = HybridQuantumVAE(rng=rng()).parameter_count_by_group()
        assert counts == {"quantum": 108, "classical": 4286, "total": 4394}


class TestBaselineQuantumBehaviour:
    def test_f_bq_ae_outputs_probabilities(self):
        model = FullyQuantumAE(rng=rng())
        x = np.abs(np.random.default_rng(2).normal(size=(3, 64))) + 0.01
        out = model(Tensor(x))
        np.testing.assert_allclose(
            out.reconstruction.data.sum(axis=1), np.ones(3), atol=1e-10
        )

    def test_f_bq_latent_bounded(self):
        model = FullyQuantumAE(rng=rng())
        x = np.abs(np.random.default_rng(3).normal(size=(3, 64))) + 0.01
        latent = model.encode(Tensor(x))
        assert np.all(np.abs(latent.data) <= 1.0 + 1e-10)

    def test_h_bq_ae_reaches_original_scale(self):
        # The hybrid's final FC must be able to exceed 1, unlike F-BQ.
        model = HybridQuantumAE(rng=rng())
        model.output_map.weight.data *= 0.0
        model.output_map.bias.data = np.full(64, 7.0)
        x = np.abs(np.random.default_rng(4).normal(size=(2, 64))) + 0.01
        out = model(Tensor(x))
        np.testing.assert_allclose(out.reconstruction.data, 7.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FullyQuantumAE(input_dim=60)

    def test_f_bq_vae_sample(self):
        model = FullyQuantumVAE(rng=rng())
        samples = model.sample(4, np.random.default_rng(5))
        assert samples.shape == (4, 64)
        np.testing.assert_allclose(samples.sum(axis=1), np.ones(4), atol=1e-10)

    def test_gradients_reach_all_parameters(self):
        from repro.nn import functional as F

        model = HybridQuantumVAE(rng=rng())
        x = Tensor(np.abs(np.random.default_rng(6).normal(size=(2, 64))) + 0.01)
        out = model(x)
        loss = F.mse_loss(out.reconstruction, x) + F.gaussian_kl(out.mu, out.logvar)
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"

    def test_1024_dim_baseline_builds(self):
        # Fig. 5(a) uses the baseline architecture at 1024 features (10 qubits).
        model = HybridQuantumAE(input_dim=1024, rng=rng())
        assert model.latent_dim == 10
        x = np.abs(np.random.default_rng(7).normal(size=(2, 1024))) + 0.01
        out = model(Tensor(x))
        assert out.reconstruction.shape == (2, 1024)

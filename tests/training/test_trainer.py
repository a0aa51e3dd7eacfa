"""Tests for losses, trainer, and history bookkeeping."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.models import ClassicalAE, ClassicalVAE
from repro.models.base import AutoencoderOutput
from repro.nn import Tensor
from repro.training import (
    EpochRecord,
    History,
    TrainConfig,
    Trainer,
    autoencoder_loss,
    evaluate_reconstruction,
)


def toy_data(n=40, dim=16, seed=0):
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(4, dim))
    coeff = gen.normal(size=(n, 4))
    return ArrayDataset(coeff @ base)  # low-rank, easy to autoencode


class TestLoss:
    def test_ae_loss_is_mse(self):
        recon = Tensor(np.ones((2, 4)))
        target = Tensor(np.zeros((2, 4)))
        out = AutoencoderOutput(reconstruction=recon, latent=Tensor(np.zeros((2, 2))))
        loss, terms = autoencoder_loss(out, target)
        assert loss.item() == pytest.approx(1.0)
        assert terms.kl == 0.0

    def test_vae_loss_adds_kl(self):
        recon = Tensor(np.zeros((2, 4)))
        target = Tensor(np.zeros((2, 4)))
        mu = Tensor(np.ones((2, 3)))
        logvar = Tensor(np.zeros((2, 3)))
        out = AutoencoderOutput(recon, Tensor(np.zeros((2, 3))), mu, logvar)
        loss, terms = autoencoder_loss(out, target)
        # KL = 0.5 * sum(mu^2) = 1.5 per sample, normalized by 4 features.
        assert terms.kl == pytest.approx(1.5 / 4)
        assert loss.item() == pytest.approx(terms.kl)


class TestTrainer:
    def test_ae_loss_decreases(self):
        data = toy_data()
        model = ClassicalAE(input_dim=16, latent_dim=4, hidden_dims=(12, 8),
                            rng=np.random.default_rng(1))
        history = Trainer(model, TrainConfig(epochs=15, batch_size=8,
                                             classical_lr=0.01)).fit(data)
        assert history.final_train_loss < history.train_losses[0] * 0.5

    def test_vae_trains(self):
        data = toy_data(seed=2)
        model = ClassicalVAE(input_dim=16, latent_dim=4, hidden_dims=(12, 8),
                             rng=np.random.default_rng(2))
        history = Trainer(model, TrainConfig(epochs=10, batch_size=8,
                                             classical_lr=0.01)).fit(data)
        assert history.train_losses[-1] < history.train_losses[0]
        assert history.epochs[-1].train_kl >= 0.0

    def test_test_loss_recorded(self):
        train, test = toy_data(seed=3), toy_data(seed=4)
        model = ClassicalAE(input_dim=16, latent_dim=4, hidden_dims=(12, 8),
                            rng=np.random.default_rng(3))
        history = Trainer(model, TrainConfig(epochs=3, batch_size=8)).fit(
            train, test_data=test
        )
        assert all(r.test_loss is not None for r in history.epochs)

    def test_training_is_deterministic(self):
        def run():
            data = toy_data(seed=5)
            model = ClassicalAE(input_dim=16, latent_dim=4, hidden_dims=(12, 8),
                                rng=np.random.default_rng(7))
            cfg = TrainConfig(epochs=3, batch_size=8, seed=11)
            return Trainer(model, cfg).fit(data).train_losses

        np.testing.assert_allclose(run(), run())

    def test_paper_sq_config(self):
        cfg = TrainConfig.paper_sq(epochs=5)
        assert cfg.quantum_lr == 0.03
        assert cfg.classical_lr == 0.01
        assert cfg.batch_size == 32

    def test_heterogeneous_lrs_applied(self):
        from repro.models import ScalableQuantumAE

        model = ScalableQuantumAE(input_dim=16, n_patches=2, n_layers=1,
                                  rng=np.random.default_rng(0))
        trainer = Trainer(model, TrainConfig(quantum_lr=0.5, classical_lr=0.25))
        lrs = sorted(g["lr"] for g in trainer.optimizer.param_groups)
        assert lrs == [0.25, 0.5]

    def test_evaluate_reconstruction_zero_for_identity(self):
        class IdentityModel(ClassicalAE):
            def encode(self, x):
                return x

            def decode(self, z):
                return z

        model = IdentityModel(input_dim=16, latent_dim=16, hidden_dims=(16,),
                              rng=np.random.default_rng(0))
        data = toy_data(seed=6)
        assert evaluate_reconstruction(model, data) == pytest.approx(0.0)


class TestHistory:
    def _history(self):
        h = History()
        for epoch in range(1, 4):
            h.append(EpochRecord(epoch, 1.0 / epoch, 1.0 / epoch, 0.0,
                                 test_loss=2.0 / epoch))
        return h

    def test_properties(self):
        h = self._history()
        assert h.train_losses == [1.0, 0.5, 1.0 / 3.0]
        assert h.final_train_loss == pytest.approx(1.0 / 3.0)
        assert h.final_test_loss == pytest.approx(2.0 / 3.0)

    def test_loss_at_epoch(self):
        h = self._history()
        assert h.loss_at_epoch(2) == pytest.approx(0.5)
        assert h.loss_at_epoch(2, split="test") == pytest.approx(1.0)

    def test_loss_at_epoch_missing(self):
        with pytest.raises(KeyError):
            self._history().loss_at_epoch(99)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            History().final_train_loss

"""Tests for the training loop: its configuration surface and records."""

import dataclasses

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.models import build_model
from repro.training import (
    TrainConfig,
    Trainer,
    autoencoder_loss,
    evaluate_reconstruction,
)


def toy_data(n=24, dim=16, seed=0):
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(4, dim))
    return ArrayDataset(gen.normal(size=(n, 4)) @ base)


def make_model(seed=3, dim=16, dtype=None):
    return build_model("ae", dim, 4, 2, 4, seed=seed) if dtype is None else \
        build_model("ae", dim, 4, 2, 4, seed=seed, dtype=dtype)


class TestTrainerSideControl:
    """Nothing acts between batches or epochs: the loop has no scheduler,
    early stop, clipping, KL weight or shuffle switch."""

    def test_config_holds_six_fields(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "batch_size", "quantum_lr", "classical_lr", "seed",
            "precision"]

    @pytest.mark.parametrize("field", ["scheduler", "early_stop_patience",
                                       "max_grad_norm", "beta", "shuffle"])
    def test_removed_option_is_gone(self, field):
        with pytest.raises(TypeError, match=field):
            TrainConfig(epochs=1, **{field: None})

    def test_loss_has_no_kl_weight(self):
        with pytest.raises(TypeError, match="beta"):
            autoencoder_loss(None, None, beta=2.0)

    def test_every_epoch_runs_when_the_test_loss_is_flat(self):
        # Zero learning rates leave every parameter in place, so the test
        # loss never improves; nothing stops the fit early.
        config = TrainConfig(epochs=4, batch_size=8, quantum_lr=0.0,
                             classical_lr=0.0)
        history = Trainer(make_model(), config).fit(
            toy_data(n=16, seed=1), test_data=toy_data(n=8, seed=2))
        assert len(history.epochs) == 4
        assert len({record.test_loss for record in history.epochs}) == 1

    def test_data_parallel_workers_option_is_gone(self):
        with pytest.raises(TypeError, match="workers"):
            TrainConfig(epochs=1, workers=2)

    def test_kernel_backend_option_is_gone(self):
        with pytest.raises(TypeError, match="backend"):
            TrainConfig(epochs=1, backend="numpy")

    def test_strategy_argument_is_gone(self):
        with pytest.raises(TypeError, match="strategy"):
            Trainer(make_model(), TrainConfig(epochs=1), strategy=None)


class TestEpochRecords:
    def test_epoch_records_carry_wall_clock_seconds(self):
        config = TrainConfig(epochs=2, batch_size=8)
        history = Trainer(make_model(), config).fit(toy_data(n=16))
        assert len(history.epochs) == 2
        assert all(r.seconds is not None and r.seconds > 0
                   for r in history.epochs)


class TestEvaluatePrecisionScope:
    def test_evaluate_runs_under_config_precision(self):
        """Regression: evaluate() outside fit() used to pick up the ambient
        precision policy instead of the trainer's configured one."""
        data = toy_data(n=16)
        model = make_model(dtype="float32")
        trainer = Trainer(model, TrainConfig(epochs=1, precision="float32"))
        got = trainer.evaluate(data)  # ambient policy here is float64
        expected = evaluate_reconstruction(model, data, batch_size=32,
                                           dtype="float32")
        drifted = evaluate_reconstruction(model, data, batch_size=32,
                                          dtype="float64")
        assert got == expected
        assert got != drifted  # float32 batches round differently

"""Tests for the training loop: per-epoch control, records, clipping."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.models import build_model
from repro.nn import Parameter
from repro.nn.schedulers import StepLR
from repro.training import (
    TrainConfig,
    Trainer,
    clip_grad_norm,
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
    """Scheduler stepping and early stopping happen between epochs."""

    def test_scheduler_steps_once_per_epoch_between_updates(self):
        config = TrainConfig(
            epochs=3, batch_size=8, classical_lr=0.01,
            scheduler=lambda opt: StepLR(opt, step_size=1, gamma=0.5),
        )
        trainer = Trainer(make_model(), config)
        seen = []
        step = trainer.optimizer.step

        def recording_step():
            seen.append(trainer.optimizer.param_groups[0]["lr"])
            step()

        trainer.optimizer.step = recording_step
        trainer.fit(toy_data(n=16))
        assert seen == pytest.approx([0.01, 0.01, 0.005, 0.005,
                                      0.0025, 0.0025])

    def test_early_stopping_ends_a_fit_that_never_improves(self):
        # Zero learning rates leave every parameter in place, so the test
        # loss is flat from the first epoch on.
        config = TrainConfig(epochs=10, batch_size=8, early_stop_patience=2,
                             quantum_lr=0.0, classical_lr=0.0)
        history = Trainer(make_model(), config).fit(
            toy_data(n=16, seed=1), test_data=toy_data(n=8, seed=2))
        # Epoch 1 sets the best test loss; epochs 2 and 3 fail to beat it.
        assert len(history.epochs) == 3
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


class TestClipGradNormEdgeCases:
    def test_all_grads_none_returns_zero(self):
        params = [Parameter(np.zeros(3)), Parameter(np.zeros(2))]
        assert clip_grad_norm(params, max_norm=1.0) == 0.0
        assert all(p.grad is None for p in params)

    def test_norm_exactly_at_max_is_untouched(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm exactly 5.0
        before = p.grad
        norm = clip_grad_norm([p], max_norm=5.0)
        assert norm == 5.0
        assert p.grad is before
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])

    def test_scales_in_place(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        buffer = p.grad
        clip_grad_norm([p], max_norm=1.0)
        assert p.grad is buffer  # no rebinding, no fresh allocation
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, rtol=1e-6)

    def test_norm_is_independent_of_gradient_memory_layout(self):
        gen = np.random.default_rng(0)
        values = gen.normal(size=(64, 48))
        c_param = Parameter(np.zeros_like(values))
        f_param = Parameter(np.zeros_like(values))
        c_param.grad = np.ascontiguousarray(values)
        f_param.grad = np.asfortranarray(values)
        norm_c = clip_grad_norm([c_param], max_norm=1e9)
        norm_f = clip_grad_norm([f_param], max_norm=1e9)
        assert norm_c == norm_f  # bitwise: sum order must not follow layout


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

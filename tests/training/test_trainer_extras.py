"""Tests for dataset statistics, evaluation mode restore and empty loaders."""

import numpy as np
import pytest

from repro.data import ArrayDataset, dataset_statistics, load_pdbbind_ligands, load_qm9
from repro.models import ClassicalAE
from repro.training import TrainConfig, Trainer


def toy_data(n=40, dim=16, seed=0):
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(4, dim))
    return ArrayDataset(gen.normal(size=(n, 4)) @ base)


class TestDatasetStatistics:
    def test_qm9_statistics(self):
        stats = dataset_statistics(load_qm9(n_samples=64, seed=0))
        assert stats.n_samples == 64
        assert stats.matrix_size == 8
        assert stats.heavy_atoms_max <= 8
        fractions = stats.atom_fractions()
        assert fractions["C"] > 0.5  # carbon-dominated, like QM9
        assert "S" not in fractions

    def test_pdbbind_statistics(self):
        stats = dataset_statistics(load_pdbbind_ligands(n_samples=24, seed=0))
        assert stats.matrix_size == 32
        assert stats.heavy_atoms_max <= 32
        assert stats.sparsity > 0.8  # 32x32 ligand matrices are sparse
        assert "single" in stats.bond_fractions()

    def test_fractions_sum_to_one(self):
        stats = dataset_statistics(load_qm9(n_samples=16, seed=1))
        assert sum(stats.atom_fractions().values()) == pytest.approx(1.0)
        assert sum(stats.bond_fractions().values()) == pytest.approx(1.0)

    def test_requires_raw(self):
        with pytest.raises(ValueError):
            dataset_statistics(ArrayDataset(np.zeros((4, 16))))

    def test_format_table(self):
        stats = dataset_statistics(load_qm9(n_samples=8, seed=2))
        text = stats.format_table()
        assert "sparsity" in text and "atom C" in text


class TestEvaluateModeRestore:
    """evaluate_reconstruction must restore the caller's train/eval mode."""

    def _model(self):
        return ClassicalAE(input_dim=16, latent_dim=4, hidden_dims=(8,),
                           rng=np.random.default_rng(0))

    def test_restores_training_mode(self):
        from repro.training.trainer import evaluate_reconstruction

        model = self._model()
        model.train()
        evaluate_reconstruction(model, toy_data(n=8), batch_size=4)
        assert all(m.training for m in model.modules())

    def test_restores_eval_mode(self):
        # The old behavior unconditionally called model.train() on exit,
        # clobbering a caller that had put the model in eval mode.
        from repro.training.trainer import evaluate_reconstruction

        model = self._model()
        model.eval()
        evaluate_reconstruction(model, toy_data(n=8), batch_size=4)
        assert not any(m.training for m in model.modules())

    def test_restores_mixed_modes(self):
        from repro.training.trainer import evaluate_reconstruction

        model = self._model()
        model.train()
        model.encoder.eval()
        before = [(m, m.training) for m in model.modules()]
        evaluate_reconstruction(model, toy_data(n=8), batch_size=4)
        assert all(m.training == flag for m, flag in before)

    def test_restores_mode_when_forward_raises(self):
        from repro.training.trainer import evaluate_reconstruction

        model = self._model()
        model.train()
        bad = ArrayDataset(np.zeros((4, 7)))  # wrong feature width
        with pytest.raises(Exception):
            evaluate_reconstruction(model, bad, batch_size=4)
        assert all(m.training for m in model.modules())

    def test_empty_dataset_rejected(self):
        from repro.training.trainer import evaluate_reconstruction

        with pytest.raises(ValueError, match="empty dataset"):
            evaluate_reconstruction(self._model(),
                                    ArrayDataset(np.zeros((0, 16))))


class TestEmptyLoaderValidation:
    def test_empty_dataset_raises_clear_error(self):
        # Used to surface as a bare ZeroDivisionError from the epoch-mean
        # division at the end of the first epoch.
        model = ClassicalAE(input_dim=16, latent_dim=4, hidden_dims=(8,),
                            rng=np.random.default_rng(0))
        config = TrainConfig(epochs=1, batch_size=8)
        trainer = Trainer(model, config)
        with pytest.raises(ValueError, match="no batches"):
            trainer.fit(ArrayDataset(np.zeros((0, 16))))

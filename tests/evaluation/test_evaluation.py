"""Tests for reconstruction panels, the sampling pipeline, and visualization."""

import numpy as np
import pytest

from repro.data import ArrayDataset, load_qm9
from repro.evaluation import (
    ascii_image,
    reconstruct_samples,
    render_molecule_matrix,
    sample_batch,
    sample_matrices,
    side_by_side,
)
from repro.models import ClassicalVAE
from repro.chem import encode_molecule, from_smiles, score_molecules


def tiny_vae(input_dim=64):
    return ClassicalVAE(input_dim=input_dim, latent_dim=4, hidden_dims=(16, 8),
                        rng=np.random.default_rng(0))


class TestReconstruction:
    def test_reconstruct_samples(self):
        model = tiny_vae()
        data = ArrayDataset(np.random.default_rng(1).normal(size=(20, 64)))
        originals, recons = reconstruct_samples(model, data, n_samples=3, seed=2)
        assert originals.shape == (3, 64)
        assert recons.shape == (3, 64)

    def test_reconstruct_samples_caps_at_dataset_size(self):
        model = tiny_vae()
        data = ArrayDataset(np.zeros((2, 64)))
        originals, __ = reconstruct_samples(model, data, n_samples=10)
        assert originals.shape[0] == 2


class TestSampling:
    def test_sample_matrices_shape(self):
        model = tiny_vae(input_dim=64)
        matrices = sample_matrices(model, 6, np.random.default_rng(0))
        assert matrices.shape == (6, 8, 8)

    def test_sample_matrices_requires_square(self):
        model = tiny_vae(input_dim=48)
        with pytest.raises(ValueError):
            sample_matrices(model, 2, np.random.default_rng(0))

    def test_sample_batch(self):
        model = tiny_vae()
        batch = sample_batch(model, 5, np.random.default_rng(1))
        assert len(batch) == 5
        assert len(batch.molecules) == 5

    def test_sampled_set_score_ranges(self):
        model = tiny_vae()
        scores = score_molecules(
            sample_batch(model, 20, np.random.default_rng(2)), correct=True)
        assert scores.n_total == 20
        assert 0.0 <= scores.qed <= 1.0
        assert 0.0 <= scores.logp <= 1.0
        assert 0.0 <= scores.sa <= 1.0

    def test_sampling_seeded(self):
        model = tiny_vae()
        a = sample_matrices(model, 3, np.random.default_rng(9))
        b = sample_matrices(model, 3, np.random.default_rng(9))
        np.testing.assert_allclose(a, b)

    def test_trained_vae_samples_score_above_noise(self):
        # After a little training on QM9, decoded prior samples should look
        # more molecule-like (higher scored fraction) than raw noise output.
        from repro.training import TrainConfig, Trainer

        data = load_qm9(n_samples=96, seed=4)
        model = ClassicalVAE(input_dim=64, latent_dim=6, rng=np.random.default_rng(4))
        Trainer(model, TrainConfig(epochs=8, batch_size=16,
                                   classical_lr=0.01)).fit(data)
        scores = score_molecules(
            sample_batch(model, 30, np.random.default_rng(5)), correct=True)
        assert scores.n_scored >= 15  # most samples decode to usable graphs


class TestVisualize:
    def test_ascii_image_shape(self):
        art = ascii_image(np.eye(4))
        lines = art.splitlines()
        assert len(lines) == 4
        assert all(len(line) == 8 for line in lines)  # doubled width

    def test_ascii_image_flat_input(self):
        art = ascii_image(np.zeros(16))
        assert len(art.splitlines()) == 4

    def test_ascii_image_bad_size(self):
        with pytest.raises(ValueError):
            ascii_image(np.zeros(15))

    def test_ascii_image_constant(self):
        art = ascii_image(np.full((2, 2), 5.0))
        assert set(art.replace("\n", "")) == {" "}

    def test_render_molecule_matrix(self):
        mol = from_smiles("C=NO")
        text = render_molecule_matrix(encode_molecule(mol, 4))
        lines = text.splitlines()
        assert lines[0].split()[0] == "C"
        assert lines[1].split()[1] == "N"
        assert lines[2].split()[2] == "O"
        assert "2" in lines[0]  # the double bond code

    def test_render_truncates(self):
        text = render_molecule_matrix(np.zeros((10, 10), dtype=int), max_size=4)
        assert len(text.splitlines()) == 4

    def test_side_by_side(self):
        merged = side_by_side(["ab\ncd", "xy\nzw"], titles=["L", "R"], gap=2)
        lines = merged.splitlines()
        assert lines[0].startswith("L")
        assert "xy" in lines[1]

    def test_side_by_side_uneven_heights(self):
        merged = side_by_side(["a\nb\nc", "x"])
        assert len(merged.splitlines()) == 3

    def test_side_by_side_title_mismatch(self):
        with pytest.raises(ValueError):
            side_by_side(["a"], titles=["x", "y"])

"""End-to-end integration tests across the whole stack.

Each test exercises a complete user workflow: data -> model -> training ->
checkpoint -> sampling -> chemistry scoring, at miniature scale.
"""

import numpy as np
import pytest

from repro.chem import (
    decode_molecule,
    discretize,
    is_valid,
    sanitize_batch,
    sanitize_lenient,
    score_molecules,
)
from repro.chem.sa import default_fragment_table
from repro.data import load_pdbbind_ligands, load_qm9, train_test_split
from repro.evaluation import sample_batch
from repro.models import (
    ClassicalVAE,
    FullyQuantumVAE,
    ScalableQuantumAE,
    ScalableQuantumVAE,
)
from repro.nn import load_module, module_fingerprint, save_module
from repro.training import TrainConfig, Trainer, evaluate_reconstruction


class TestQuantumPipelineQM9:
    """The paper's low-dimensional pipeline: F-BQ-VAE on normalized QM9."""

    @pytest.fixture(scope="class")
    def setup(self):
        data = load_qm9(n_samples=96, seed=11).normalized()
        train, test = train_test_split(data, test_fraction=0.15, seed=11)
        model = FullyQuantumVAE(input_dim=64, n_layers=2,
                                rng=np.random.default_rng(11), noise_seed=11)
        config = TrainConfig(epochs=4, batch_size=16, quantum_lr=0.01,
                             classical_lr=0.01, seed=11)
        history = Trainer(model, config).fit(train, test_data=test)
        return model, train, test, history

    def test_loss_decreases(self, setup):
        __, __, __, history = setup
        assert history.train_losses[-1] <= history.train_losses[0]

    def test_test_loss_finite_and_small(self, setup):
        __, __, test, history = setup
        assert history.final_test_loss is not None
        assert history.final_test_loss < 0.01  # normalized-scale losses

    def test_samples_decode_to_molecules(self, setup):
        model, __, __, __ = setup
        samples = model.sample(10, np.random.default_rng(0))
        decoded = [
            decode_molecule(discretize(s.reshape(8, 8) * 30.0))
            for s in samples
        ]
        repaired = [sanitize_lenient(m) for m in decoded]
        assert any(m.num_atoms > 0 for m in repaired)
        assert all(m.num_atoms == 0 or is_valid(m) for m in repaired)


class TestScalablePipelinePDBbind:
    """The paper's headline pipeline: SQ-VAE on PDBbind ligands."""

    @pytest.fixture(scope="class")
    def setup(self):
        data = load_pdbbind_ligands(n_samples=48, seed=13)
        train, test = train_test_split(data, test_fraction=0.15, seed=13)
        model = ScalableQuantumVAE(input_dim=1024, n_patches=4, n_layers=2,
                                   rng=np.random.default_rng(13),
                                   noise_seed=13)
        model.init_output_bias(train.features.mean(axis=0))
        config = TrainConfig.paper_sq(epochs=2, seed=13)
        history = Trainer(model, config).fit(train, test_data=test)
        return model, train, test, history

    def test_trains(self, setup):
        __, __, __, history = setup
        assert history.train_losses[-1] < history.train_losses[0]

    def test_sampled_set_scores(self, setup):
        model, __, __, __ = setup
        molecules = sample_batch(model, 20, np.random.default_rng(1))
        scores = score_molecules(molecules, table=default_fragment_table())
        assert scores.n_scored > 0
        assert 0 <= scores.qed <= 1

    def test_sampled_set_sanitizes_to_valid_molecules(self, setup):
        model, __, __, __ = setup
        batch = sample_batch(model, 20, np.random.default_rng(2))
        repaired = sanitize_batch(batch)
        assert len(repaired) == 20
        assert all(m.num_atoms == 0 or is_valid(m) for m in repaired)
        assert any(m.num_atoms > 1 for m in repaired)


class TestCheckpointWorkflow:
    def test_train_save_load_resume(self, tmp_path):
        data = load_qm9(n_samples=48, seed=17)
        model = ClassicalVAE(input_dim=64, latent_dim=6,
                             rng=np.random.default_rng(17), noise_seed=17)
        config = TrainConfig(epochs=2, batch_size=16, classical_lr=0.01,
                             seed=17)
        Trainer(model, config).fit(data)
        path = save_module(model, tmp_path / "ckpt",
                           metadata={"epochs_done": 2})

        resumed = ClassicalVAE(input_dim=64, latent_dim=6,
                               rng=np.random.default_rng(99), noise_seed=17)
        meta = load_module(resumed, path)
        assert meta["epochs_done"] == 2
        assert module_fingerprint(resumed) == module_fingerprint(model)

        # Resuming training must continue to improve, not restart.
        before = evaluate_reconstruction(resumed, data)
        Trainer(resumed, config).fit(data)
        after = evaluate_reconstruction(resumed, data)
        assert after <= before * 1.05

    def test_quantum_checkpoint_reproduces_latents(self, tmp_path):
        data = load_qm9(n_samples=16, seed=19)
        model = ScalableQuantumAE(input_dim=64, n_patches=2, n_layers=1,
                                  rng=np.random.default_rng(19))
        path = save_module(model, tmp_path / "sq")
        clone = ScalableQuantumAE(input_dim=64, n_patches=2, n_layers=1,
                                  rng=np.random.default_rng(7))
        load_module(clone, path)
        from repro.nn import Tensor, no_grad

        with no_grad():
            a = model.encode(Tensor(data.features)).data
            b = clone.encode(Tensor(data.features)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestDeterminism:
    """Seeded end-to-end runs must be bit-reproducible."""

    def _run(self):
        data = load_qm9(n_samples=32, seed=23)
        model = ClassicalVAE(input_dim=64, latent_dim=6,
                             rng=np.random.default_rng(23), noise_seed=23)
        config = TrainConfig(epochs=2, batch_size=16, classical_lr=0.01,
                             seed=23)
        history = Trainer(model, config).fit(data)
        samples = model.sample(5, np.random.default_rng(23))
        return history.train_losses, samples

    def test_repeatable(self):
        losses_a, samples_a = self._run()
        losses_b, samples_b = self._run()
        np.testing.assert_allclose(losses_a, losses_b, rtol=0, atol=0)
        np.testing.assert_allclose(samples_a, samples_b, rtol=0, atol=0)

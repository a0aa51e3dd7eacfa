"""Tests for the qnn circuit factories and remaining loader/model edges."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.models import FullyQuantumAE, ScalableQuantumVAE
from repro.nn import Tensor
from repro.qnn import (
    amplitude_encoder_circuit,
    angle_expval_circuit,
    probs_decoder_circuit,
)
from repro.quantum import execute


class TestFactories:
    def test_amplitude_encoder_structure(self):
        circuit = amplitude_encoder_circuit(6, 64, 3)
        assert circuit.n_wires == 6
        assert circuit.state_prep == ("amplitude", 64, False)
        assert circuit.measurement == ("expval", tuple(range(6)))
        assert circuit.n_weights == 3 * 6 * 3

    def test_amplitude_encoder_zero_fallback_flag(self):
        circuit = amplitude_encoder_circuit(3, 8, 1, zero_fallback=True)
        assert circuit.state_prep[2] is True
        outputs, __ = execute(circuit, np.zeros((1, 8)),
                              np.zeros(circuit.n_weights))
        np.testing.assert_allclose(outputs, [[1.0, 1.0, 1.0]])

    def test_probs_decoder_structure(self):
        circuit = probs_decoder_circuit(6, 3)
        assert circuit.measurement == ("probs", None)
        assert circuit.output_dim == 64
        assert circuit.n_inputs == 6

    def test_angle_expval_structure(self):
        circuit = angle_expval_circuit(4, 4, 2)
        assert circuit.output_dim == 4
        assert circuit.n_inputs == 4

    def test_encoder_decoder_compose(self):
        # Chaining encoder -> decoder must be dimension-consistent, the
        # core wiring of every baseline model.
        encoder = amplitude_encoder_circuit(3, 8, 1)
        decoder = probs_decoder_circuit(3, 1)
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(size=(2, 8))) + 0.1
        latent, __ = execute(encoder, x,
                             rng.uniform(-np.pi, np.pi, encoder.n_weights))
        recon, __ = execute(decoder, latent,
                            rng.uniform(-np.pi, np.pi, decoder.n_weights))
        assert recon.shape == (2, 8)
        np.testing.assert_allclose(recon.sum(axis=1), np.ones(2), atol=1e-10)


class TestLoaderEdges:
    def test_batch_larger_than_dataset(self):
        loader = DataLoader(ArrayDataset(np.zeros((3, 2))), batch_size=10,
                            shuffle=False)
        batches = list(loader)
        assert len(batches) == 1
        assert batches[0].shape == (3, 2)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(ArrayDataset(np.zeros((3, 2))), batch_size=0)

    def test_drop_last_with_exact_multiple(self):
        loader = DataLoader(ArrayDataset(np.zeros((6, 1))), batch_size=3,
                            drop_last=True)
        assert sum(len(b) for b in loader) == 6

    def test_reshuffles_between_epochs(self):
        data = ArrayDataset(np.arange(16.0).reshape(16, 1))
        loader = DataLoader(data, batch_size=16, seed=0)
        first = np.concatenate(list(loader)).ravel()
        second = np.concatenate(list(loader)).ravel()
        assert not np.allclose(first, second)  # epoch order differs


class TestModelReproducibility:
    def test_quantum_models_seeded(self):
        a = FullyQuantumAE(rng=np.random.default_rng(5))
        b = FullyQuantumAE(rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.encoder_q.weights.data,
                                      b.encoder_q.weights.data)

    def test_different_seeds_different_weights(self):
        a = FullyQuantumAE(rng=np.random.default_rng(5))
        b = FullyQuantumAE(rng=np.random.default_rng(6))
        assert not np.allclose(a.encoder_q.weights.data,
                               b.encoder_q.weights.data)

    def test_sq_vae_forward_deterministic_given_noise_seed(self):
        def run():
            model = ScalableQuantumVAE(input_dim=16, n_patches=2, n_layers=1,
                                       rng=np.random.default_rng(1),
                                       noise_seed=7)
            x = Tensor(np.abs(np.random.default_rng(2).normal(size=(2, 16))))
            return model(x).reconstruction.data

        np.testing.assert_array_equal(run(), run())

    def test_quantum_weight_init_within_range(self):
        model = FullyQuantumAE(rng=np.random.default_rng(8))
        for layer in (model.encoder_q, model.decoder_q):
            assert np.all(np.abs(layer.weights.data) <= np.pi)

"""Tests for the generation service, including the equivalence contract:

micro-batched execution must return results identical — plain ``==``,
not allclose — to sequential per-request execution.  This holds because
(a) each sample request's latents come from its own seeded stream exactly
as ``model.sample`` draws them, (b) stacked passes are row-independent
(every GEMM operand is contiguous, so the kernel choice cannot vary with
row count: ``Linear`` stores its weight F-ordered, which makes ``W.T`` a
C-contiguous view, and ``Tensor.transpose`` materializes any other
transpose), and (c) scoring is per-row math under the padding-exactness
contract of :mod:`repro.chem.batch`.
"""

import numpy as np
import pytest

from repro.evaluation.sampling import decode_latents, matrix_size, prior_latents
from repro.models import ClassicalAE, ClassicalVAE, ScalableQuantumVAE
from repro.nn import save_module
from repro.serving import (
    GenerationService,
    ModelRegistry,
    ServingError,
    per_molecule_scores,
)
from repro.serving.service import MAX_SAMPLE_COUNT


@pytest.fixture(scope="module")
def vae_checkpoint(tmp_path_factory):
    model = ClassicalVAE(input_dim=64, latent_dim=6,
                         rng=np.random.default_rng(0))
    return save_module(
        model, tmp_path_factory.mktemp("ckpt") / "vae",
        metadata={"model": "vae", "input_dim": 64, "n_patches": 4,
                  "n_layers": 3, "latent_dim": 6, "seed": 0},
    )


@pytest.fixture(scope="module")
def sq_vae_checkpoint(tmp_path_factory):
    model = ScalableQuantumVAE(input_dim=64, n_patches=4, n_layers=1,
                               rng=np.random.default_rng(7))
    return save_module(
        model, tmp_path_factory.mktemp("ckpt") / "sq",
        metadata={"model": "sq-vae", "input_dim": 64, "n_patches": 4,
                  "n_layers": 1, "latent_dim": None, "seed": 7},
    )


def sequential_sample(model, count, seed):
    """Per-request execution: exactly what one lone request computes."""
    latents = prior_latents(model, count, np.random.default_rng(seed))
    size = matrix_size(model)
    return decode_latents(model, latents).reshape(count, size, size)


def resolved(futures):
    return [future.result(10.0) for future in futures]


class TestBatchedEqualsSequential:
    """The acceptance contract: plain ``==``, no tolerance.

    Every request is submitted while the worker is held, so all of them
    run as ONE batch: the strongest version of the claim.
    """

    def test_sample_classical(self, vae_checkpoint, worker_held):
        counts = [3, 8, 5, 7, 4, 6]
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            model = service.registry.load(vae_checkpoint).model
            with worker_held(service.batcher):
                futures = [service.sample_async(c, seed=100 + i)
                           for i, c in enumerate(counts)]
            batched = resolved(futures)
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1  # genuinely micro-batched
        for i, c in enumerate(counts):
            expected = sequential_sample(model, c, 100 + i)
            assert batched[i].shape == (c, 8, 8)
            assert (batched[i] == expected).all()

    def test_sample_quantum(self, sq_vae_checkpoint, worker_held):
        counts = [3, 5, 2, 6]
        with GenerationService(default_checkpoint=sq_vae_checkpoint) as service:
            model = service.registry.load(sq_vae_checkpoint).model
            with worker_held(service.batcher):
                futures = [service.sample_async(c, seed=40 + i)
                           for i, c in enumerate(counts)]
            batched = resolved(futures)
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1
        for i, c in enumerate(counts):
            assert (batched[i] == sequential_sample(model, c, 40 + i)).all()

    def test_negative_seed_fails_alone(self, sq_vae_checkpoint, worker_held):
        # A negative seed used to reach the worker's default_rng, whose
        # ValueError failed every sample request fused into its batch.
        with GenerationService(default_checkpoint=sq_vae_checkpoint) as service:
            model = service.registry.load(sq_vae_checkpoint).model
            with worker_held(service.batcher):
                with pytest.raises(ValueError, match="seed must be non-negative"):
                    service.sample_async(2, seed=-1)
                valid = service.sample_async(2, seed=5)
            result = valid.result(10.0)
        assert (result == sequential_sample(model, 2, 5)).all()

    def test_sample_matches_model_sample_api(self, vae_checkpoint):
        # The service's per-request semantics ARE model.sample's.
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            model = service.registry.load(vae_checkpoint).model
            served = service.sample(5, seed=9)
        direct = model.sample(5, np.random.default_rng(9))
        assert (served == np.asarray(direct).reshape(5, 8, 8)).all()

    def test_encode(self, vae_checkpoint, worker_held):
        rng = np.random.default_rng(1)
        chunks = [rng.normal(size=(n, 64)) for n in (2, 5, 3, 4)]
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with worker_held(service.batcher):
                futures = [service.encode_async(x) for x in chunks]
            batched = resolved(futures)
            sequential = [service.encode(x) for x in chunks]
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1
        for got, expected in zip(batched, sequential):
            assert got.shape == expected.shape
            assert (got == expected).all()

    def test_score(self, vae_checkpoint, worker_held):
        rng = np.random.default_rng(2)
        chunks = [rng.uniform(size=(n, 8, 8)) for n in (3, 6, 2)]
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with worker_held(service.batcher):
                futures = [service.score_async(m) for m in chunks]
            batched = resolved(futures)
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1
        for got, matrices in zip(batched, chunks):
            expected = per_molecule_scores(matrices)
            for name in ("usable", "qed", "logp", "sa"):
                assert (got[name] == expected[name]).all()

    def test_mixed_kinds_in_one_batch_stay_separated(self, vae_checkpoint,
                                                     worker_held):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(4, 64))
        matrices = rng.uniform(size=(3, 8, 8))
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            model = service.registry.load(vae_checkpoint).model
            with worker_held(service.batcher):
                futures = [service.sample_async(4, seed=11),
                           service.encode_async(features),
                           service.score_async(matrices)]
            sample, latents, scores = resolved(futures)
            stats = service.stats()["batcher"]
        # The gate's batch, then one batch of three kinds run as three
        # executor calls: kinds never share one.
        assert stats["batches"] == 2
        assert stats["batch_size_max"] == 3
        assert stats["groups"] == 4
        assert (sample == sequential_sample(model, 4, 11)).all()
        with GenerationService(default_checkpoint=vae_checkpoint) as solo:
            assert (latents == solo.encode(features)).all()
        expected = per_molecule_scores(matrices)
        for name in expected:
            assert (scores[name] == expected[name]).all()


class TestValidation:
    def test_sample_rejects_plain_autoencoder(self, tmp_path):
        path = save_module(
            ClassicalAE(input_dim=64, latent_dim=6,
                        rng=np.random.default_rng(0)),
            tmp_path / "ae",
            metadata={"model": "ae", "input_dim": 64, "n_patches": 4,
                      "n_layers": 3, "latent_dim": 6, "seed": 0},
        )
        with GenerationService(default_checkpoint=path) as service:
            with pytest.raises(TypeError, match="vanilla autoencoder"):
                service.sample(3)

    def test_sample_rejects_nonpositive_count(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match="count must be a positive"):
                service.sample(0)

    def test_sample_count_is_capped(self, vae_checkpoint):
        # Nothing used to bound count, so one short request could ask for
        # gigabytes of decoded matrices.
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            matrices = service.sample(MAX_SAMPLE_COUNT, seed=2)
            assert matrices.shape == (MAX_SAMPLE_COUNT, 8, 8)
            with pytest.raises(ValueError,
                               match=f"count must be at most {MAX_SAMPLE_COUNT}"):
                service.sample(MAX_SAMPLE_COUNT + 1)
            # The refused request never reached the batcher.
            assert service.stats()["batcher"]["requests"] == 1

    def test_encode_rejects_wrong_width(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match=r"expected \(n, 64\)"):
                service.encode(np.zeros((2, 10)))

    def test_score_rejects_non_square(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match="matrix stack"):
                service.score(np.zeros((2, 8, 9)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_rejects_non_finite_features(self, sq_vae_checkpoint,
                                                bad):
        # A NaN feature used to come back as NaN latents.
        features = np.ones((2, 64))
        features[1, 3] = bad
        with GenerationService(default_checkpoint=sq_vae_checkpoint) as service:
            with pytest.raises(ValueError, match="features must be finite"):
                service.encode(features)
            assert service.stats()["batcher"]["requests"] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_score_rejects_non_finite_cells(self, vae_checkpoint, bad):
        # A non-finite cell used to score as if the cell were absent.
        matrices = np.zeros((2, 8, 8))
        matrices[0, 1, 1] = bad
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match="matrices must be finite"):
                service.score(matrices)
            assert service.stats()["batcher"]["requests"] == 0

    def test_flush_window_is_gone(self, vae_checkpoint):
        with pytest.raises(TypeError, match="flush_window"):
            GenerationService(default_checkpoint=vae_checkpoint,
                              flush_window=0.005)

    def test_no_default_and_no_checkpoint_is_an_error(self):
        with GenerationService() as service:
            with pytest.raises(ServingError, match="no checkpoint named"):
                service.sample(1)

    def test_per_call_checkpoint_overrides_default(self, vae_checkpoint,
                                                   sq_vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            out = service.sample(2, seed=1, checkpoint=sq_vae_checkpoint)
            model = service.registry.load(sq_vae_checkpoint).model
            assert (out == sequential_sample(model, 2, 1)).all()
            assert len(service.registry) == 2


class TestServiceLifecycle:
    def test_stats_shape(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            service.sample(2, seed=0)
            stats = service.stats()
        assert set(stats) == {"batcher", "registry", "models"}
        assert stats["models"] == 1
        assert stats["batcher"]["requests"] == 1
        assert stats["registry"]["misses"] == 1

    def test_async_variants_return_futures(self, vae_checkpoint):
        rng = np.random.default_rng(4)
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            sample = service.sample_async(2, seed=5)
            encode = service.encode_async(rng.normal(size=(2, 64)))
            score = service.score_async(rng.uniform(size=(2, 8, 8)))
            assert sample.result(10.0).shape == (2, 8, 8)
            assert encode.result(10.0).shape == (2, 6)
            assert score.result(10.0)["qed"].shape == (2,)

    def test_shared_registry_across_services(self, vae_checkpoint):
        registry = ModelRegistry()
        with GenerationService(registry,
                               default_checkpoint=vae_checkpoint):
            pass
        with GenerationService(registry,
                               default_checkpoint=vae_checkpoint):
            pass
        assert registry.stats.misses == 1
        assert registry.stats.hits == 1


class TestDirectCalls:
    def test_round_trip(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            model = service.registry.load(vae_checkpoint).model
            assert (service.sample(3, seed=2)
                    == sequential_sample(model, 3, 2)).all()
            assert service.encode(np.ones((2, 64))).shape == (2, 6)
            scores = service.score(np.zeros((2, 8, 8)))
            assert scores["usable"].dtype == bool
            assert service.stats()["models"] == 1

    def test_named_checkpoint(self, vae_checkpoint, sq_vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            model = service.registry.load(sq_vae_checkpoint).model
            assert (service.sample(2, seed=3, checkpoint=sq_vae_checkpoint)
                    == sequential_sample(model, 2, 3)).all()

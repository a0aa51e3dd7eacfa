"""Tests for the warm checkpoint registry."""

import shutil

import numpy as np
import pytest

from repro.models import ClassicalVAE, ScalableQuantumVAE
from repro.nn import save_module
from repro.serving import ModelRegistry


def vae(seed=0, dtype=None):
    return ClassicalVAE(input_dim=64, latent_dim=6,
                        rng=np.random.default_rng(seed), dtype=dtype)


def checkpoint(tmp_path, name="vae", seed=0, dtype=None, **extra):
    metadata = {"model": "vae", "input_dim": 64, "n_patches": 4,
                "n_layers": 3, "latent_dim": 6, "seed": seed, **extra}
    return save_module(vae(seed=seed, dtype=dtype), tmp_path / name,
                       metadata=metadata)


class TestLoad:
    def test_load_returns_live_entry(self, tmp_path):
        registry = ModelRegistry()
        entry = registry.load(checkpoint(tmp_path))
        assert entry.is_variational
        assert entry.input_dim == 64
        assert entry.latent_dim == 6
        assert entry.matrix_size() == 8
        assert registry.stats.misses == 1

    def test_repeat_load_is_a_cache_hit(self, tmp_path):
        registry = ModelRegistry()
        path = checkpoint(tmp_path)
        first = registry.load(path)
        second = registry.load(path)
        assert second is first  # same live module, not a re-deserialization
        assert registry.stats.hits == 1
        assert registry.stats.misses == 1

    def test_bare_path_resolves_npz(self, tmp_path):
        registry = ModelRegistry()
        path = checkpoint(tmp_path)
        entry = registry.load(str(path)[: -len(".npz")])
        assert entry is registry.load(path)

    def test_identical_copies_share_one_entry(self, tmp_path):
        registry = ModelRegistry()
        path = checkpoint(tmp_path)
        copy = tmp_path / "copy.npz"
        shutil.copy2(path, copy)
        first = registry.load(path)
        second = registry.load(copy)
        # Byte-identical checkpoints fingerprint-collide on purpose.
        assert second is first
        assert len(registry) == 1

    def test_missing_file_names_probed_path(self, tmp_path):
        registry = ModelRegistry()
        missing = tmp_path / "nope"
        with pytest.raises(FileNotFoundError,
                           match=f"checkpoint not found: {missing}.npz"):
            registry.load(missing)

    def test_checkpoint_without_metadata_rejected(self, tmp_path):
        path = save_module(vae(), tmp_path / "bare")  # no metadata at all
        with pytest.raises(ValueError, match="no architecture metadata"):
            ModelRegistry().load(path)


class TestEviction:
    def test_lru_evicts_oldest(self, tmp_path):
        registry = ModelRegistry(max_entries=2)
        paths = [checkpoint(tmp_path, name=f"m{i}", seed=i) for i in range(3)]
        for path in paths:
            registry.load(path)
        assert len(registry) == 2
        assert registry.stats.evictions == 1
        # The evicted checkpoint reloads as a fresh miss.
        registry.load(paths[0])
        assert registry.stats.misses == 4

    def test_recent_use_protects_from_eviction(self, tmp_path):
        registry = ModelRegistry(max_entries=2)
        paths = [checkpoint(tmp_path, name=f"m{i}", seed=i) for i in range(2)]
        first = registry.load(paths[0])
        registry.load(paths[1])
        registry.load(paths[0])  # touch: now most-recent
        registry.load(checkpoint(tmp_path, name="m2", seed=2))
        assert registry.load(paths[0]) is first  # still warm
        assert registry.stats.evictions == 1

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            ModelRegistry(max_entries=0)


class TestPrecisionRebuild:
    def test_float32_checkpoint_rebuilds_float32_module(self, tmp_path):
        path = checkpoint(tmp_path, dtype="float32", precision="float32")
        entry = ModelRegistry().load(path)
        assert entry.precision.name == "float32"
        for __, param in entry.model.named_parameters():
            assert param.data.dtype == np.float32

    def test_float32_load_does_not_warn(self, tmp_path):
        # The registry rebuilds at the recorded dtype, so the width-mismatch
        # warning (float32 weights into a float64 shell) must never fire.
        import warnings

        path = checkpoint(tmp_path, dtype="float32", precision="float32")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelRegistry().load(path)

    def test_recorded_backend_key_is_ignored(self, tmp_path):
        # Older checkpoints may record the kernel backend they trained on;
        # it neither fails the load nor changes the outputs.
        from repro.evaluation.sampling import decode_latents
        from repro.models import build_model

        model = build_model("sq-vae", 64, 4, 1, 6, seed=0)
        metadata = {"model": "sq-vae", "input_dim": 64, "n_patches": 4,
                    "n_layers": 1, "latent_dim": 6, "seed": 0}
        plain = save_module(model, tmp_path / "plain", metadata=metadata)
        old = save_module(model, tmp_path / "old",
                          metadata={**metadata, "backend": "threaded"})
        fresh = [ModelRegistry().load(path) for path in (plain, old)]
        latents = np.random.default_rng(5).normal(
            size=(4, fresh[0].latent_dim))
        np.testing.assert_array_equal(
            decode_latents(fresh[1].model, latents),
            decode_latents(fresh[0].model, latents),
        )
        registry = ModelRegistry()
        assert registry.load(old) is registry.load(plain)  # one cache entry

    def test_precision_changes_cache_key(self, tmp_path):
        registry = ModelRegistry()
        a = registry.load(checkpoint(tmp_path, name="a", precision="float64"))
        b = registry.load(checkpoint(tmp_path, name="b",
                                     dtype="float32", precision="float32"))
        assert a.key != b.key
        assert len(registry) == 2


class TestRegister:
    def test_registered_model_served_like_loaded(self):
        registry = ModelRegistry()
        entry = registry.register(vae(seed=3), {"model": "vae"})
        assert entry.is_variational
        assert len(registry) == 1

    def test_registered_quantum_model_warms(self):
        model = ScalableQuantumVAE(input_dim=64, n_patches=4, n_layers=1,
                                   rng=np.random.default_rng(1))
        entry = ModelRegistry().register(model, {"model": "sq-vae"})
        # Warmup already lowered the plans; a real pass just reuses them.
        assert entry.matrix_size() == 8

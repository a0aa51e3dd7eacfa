"""The generation service: registry + micro-batcher behind a simple API.

:class:`GenerationService` accepts three request kinds and executes each
micro-batch as one stacked pass over the engine's batched substrate:

* ``sample``  — decode ``count`` prior draws (from a per-request seeded
  stream) into ``(count, size, size)`` molecule matrices.  All sample
  requests for the same model in a flush share ONE decoder pass: each
  request's latents are drawn from its own ``default_rng(seed)`` exactly
  as ``model.sample`` would, stacked, decoded once, and split back — so
  the draw (and for classical decoders the decoded values, bit-for-bit)
  matches sequential per-request execution.
* ``encode``  — map ``(n, input_dim)`` feature rows to latent codes; all
  encode requests for the same model in a flush run as one stacked
  encoder pass.
* ``score``   — decode ``(n, size, size)`` matrix stacks to molecules,
  sanitize, and return per-row QED / normalized logP / normalized SA
  plus a usable mask.  Scoring is pure packed-array math whose per-row
  values are independent of batch composition (the padding-exactness
  contract of :mod:`repro.chem.batch`), so micro-batched scores equal
  sequential ones with plain ``==``.

Batch groups never mix kinds or models: the batch key is ``(kind,
entry.key)`` (scoring groups by matrix size instead).  Checkpoint
resolution happens on the calling thread via the shared
:class:`~repro.serving.registry.ModelRegistry`, so the worker thread only
ever executes warm models.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..chem.batch import (
    MoleculeBatch,
    qed_batch,
    sanitize_batch,
)
from ..chem.metrics import normalized_logp_batch, normalized_sa_batch
from ..evaluation.sampling import decode_latents, prior_latents
from ..nn.tensor import Tensor, no_grad
from .batcher import MicroBatcher, ServingError
from .registry import ModelEntry, ModelRegistry
from .server import _brief

__all__ = ["GenerationService", "MAX_SAMPLE_COUNT", "per_molecule_scores"]

# Largest ``count`` one sample request may ask for.  A request decodes
# ``count`` x ``input_dim`` float64 cells, so without a cap a short line
# can ask for gigabytes; the serving benchmarks ask for 4 or 8.
MAX_SAMPLE_COUNT = 1024


def per_molecule_scores(matrices: np.ndarray) -> dict[str, np.ndarray]:
    """Decode, sanitize, and score a matrix stack row by row.

    Returns aligned ``(n,)`` arrays: ``usable`` (decoded + repaired to a
    non-empty molecule), and ``qed`` / ``logp`` / ``sa`` (0.0 where not
    usable).  Every value is a per-row function of that row alone, so the
    same row scores identically whatever else shares the stack — this is
    the single scoring path used for one request or a fused micro-batch.
    """
    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError(
            f"expected a (n, size, size) matrix stack, got {matrices.shape}"
        )
    batch = MoleculeBatch.from_matrices(matrices)
    repaired = sanitize_batch(batch)
    usable = np.array([mol.num_atoms > 0 for mol in repaired], dtype=bool)
    n = len(repaired)
    qed = np.zeros(n)
    logp = np.zeros(n)
    sa = np.zeros(n)
    kept = [mol for mol in repaired if mol.num_atoms]
    if kept:
        kept_batch = MoleculeBatch.from_molecules(kept)
        rows = np.flatnonzero(usable)
        qed[rows] = qed_batch(kept_batch)
        logp[rows] = normalized_logp_batch(kept_batch)
        sa[rows] = normalized_sa_batch(kept_batch)
    return {"usable": usable, "qed": qed, "logp": logp, "sa": sa}


class GenerationService:
    """Micro-batching sample/encode/score service over warm checkpoints.

    ``default_checkpoint`` (optional) is loaded eagerly, kept as
    ``default_entry`` (None without one) and used whenever a call does not
    name its own.  ``max_batch`` / ``max_queue`` /
    ``default_timeout`` parameterize the
    :class:`~repro.serving.batcher.MicroBatcher`, whose worker runs each
    batch as soon as it is free: requests that queue up while a batch
    executes share the next stacked pass, and a lone request never waits.
    """

    def __init__(self, registry: ModelRegistry | None = None, *,
                 default_checkpoint: str | Path | None = None,
                 max_batch: int = 64, max_queue: int = 256,
                 default_timeout: float | None = 30.0):
        self.registry = registry if registry is not None else ModelRegistry()
        self.default_entry = (
            self.registry.load(default_checkpoint)
            if default_checkpoint is not None else None
        )
        self.batcher = MicroBatcher(
            self._execute, max_batch=max_batch, max_queue=max_queue,
            default_timeout=default_timeout,
        )

    # ------------------------------------------------------------------
    # Public API (blocking; *_async variants return futures)
    # ------------------------------------------------------------------
    def sample(self, count: int, *, seed: int = 0,
               checkpoint: str | Path | None = None,
               timeout: float | None = None) -> np.ndarray:
        """``(count, size, size)`` matrices decoded from seeded prior noise."""
        key, payload = self._sample_request(count, seed, checkpoint)
        return self.batcher.call(key, payload, timeout)

    def sample_async(self, count: int, *, seed: int = 0,
                     checkpoint: str | Path | None = None,
                     timeout: float | None = None):
        key, payload = self._sample_request(count, seed, checkpoint)
        return self.batcher.submit(key, payload, timeout)

    def encode(self, features: np.ndarray, *,
               checkpoint: str | Path | None = None,
               timeout: float | None = None) -> np.ndarray:
        """Latent codes for ``(n, input_dim)`` feature rows."""
        key, payload = self._encode_request(features, checkpoint)
        return self.batcher.call(key, payload, timeout)

    def encode_async(self, features: np.ndarray, *,
                     checkpoint: str | Path | None = None,
                     timeout: float | None = None):
        key, payload = self._encode_request(features, checkpoint)
        return self.batcher.submit(key, payload, timeout)

    def score(self, matrices: np.ndarray, *,
              timeout: float | None = None) -> dict[str, np.ndarray]:
        """Per-row usable/QED/logP/SA for a ``(n, size, size)`` stack."""
        key, payload = self._score_request(matrices)
        return self.batcher.call(key, payload, timeout)

    def score_async(self, matrices: np.ndarray, *,
                    timeout: float | None = None):
        key, payload = self._score_request(matrices)
        return self.batcher.submit(key, payload, timeout)

    def stats(self) -> dict:
        """Batcher + registry counters (the serve command's /stats)."""
        return {
            "batcher": self.batcher.stats.as_dict(),
            "registry": self.registry.stats.as_dict(),
            "models": len(self.registry),
        }

    def close(self) -> None:
        self.batcher.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # Request construction (calling thread: validation + registry access)
    # ------------------------------------------------------------------
    def _entry(self, checkpoint: str | Path | None) -> ModelEntry:
        if checkpoint is not None:
            return self.registry.load(checkpoint)
        if self.default_entry is None:
            raise ServingError(
                "no checkpoint named and the service has no default; pass "
                "checkpoint= or construct with default_checkpoint="
            )
        return self.default_entry

    def _sample_request(self, count: int, seed: int,
                        checkpoint: str | Path | None):
        # Out-of-range values are echoed capped, like every wire error.
        if count < 1:
            raise ValueError(
                f"count must be a positive integer, got {_brief(count)}"
            )
        if count > MAX_SAMPLE_COUNT:
            raise ValueError(
                f"count must be at most {MAX_SAMPLE_COUNT}, got {_brief(count)}"
            )
        # The worker's default_rng rejects a negative seed, which would
        # fail every request fused into the same batch; refuse it here.
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {_brief(seed)}")
        entry = self._entry(checkpoint)
        if not entry.is_variational:
            raise TypeError(
                f"{entry.metadata.get('model', type(entry.model).__name__)} "
                "is a vanilla autoencoder; only the variational models "
                "support prior sampling (Section I)"
            )
        entry.matrix_size()  # non-square input dims fail on the caller
        return ("sample", entry.key), (entry, int(count), int(seed))

    def _encode_request(self, features, checkpoint: str | Path | None):
        entry = self._entry(checkpoint)
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.ndim != 2 or features.shape[1] != entry.input_dim:
            raise ValueError(
                f"expected (n, {entry.input_dim}) features, got "
                f"{features.shape}"
            )
        _require_finite(features, "features")
        return ("encode", entry.key), (entry, features)

    def _score_request(self, matrices):
        matrices = np.asarray(matrices, dtype=np.float64)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError(
                f"expected a (n, size, size) matrix stack, got "
                f"{matrices.shape}"
            )
        _require_finite(matrices, "matrices")
        return ("score", matrices.shape[1]), matrices

    # ------------------------------------------------------------------
    # Batched execution (worker thread: one stacked pass per group)
    # ------------------------------------------------------------------
    def _execute(self, key: tuple, payloads: list):
        kind = key[0]
        if kind == "sample":
            return self._run_sample(payloads)
        if kind == "encode":
            return self._run_encode(payloads)
        if kind == "score":
            return self._run_score(payloads)
        raise ServingError(f"unknown request kind {kind!r}")

    @staticmethod
    def _run_sample(payloads):
        entry = payloads[0][0]
        model = entry.model
        latents = [
            prior_latents(model, count, np.random.default_rng(seed))
            for __, count, seed in payloads
        ]
        flat = decode_latents(model, np.concatenate(latents, axis=0))
        size = entry.matrix_size()
        matrices = flat.reshape(-1, size, size)
        return _split_rows(matrices, [z.shape[0] for z in latents])

    @staticmethod
    def _run_encode(payloads):
        entry = payloads[0][0]
        stacked = np.concatenate([features for __, features in payloads])
        with no_grad():
            latents = entry.model.encode(Tensor(stacked)).data
        return _split_rows(latents, [f.shape[0] for __, f in payloads])

    @staticmethod
    def _run_score(payloads):
        scores = per_molecule_scores(np.concatenate(payloads, axis=0))
        counts = [stack.shape[0] for stack in payloads]
        split = {name: _split_rows(values, counts)
                 for name, values in scores.items()}
        return [
            {name: split[name][index] for name in scores}
            for index in range(len(payloads))
        ]


def _require_finite(array: np.ndarray, name: str) -> None:
    """Reject NaN/inf before they reach a batch: a non-finite feature would
    come back as NaN latents, and a non-finite matrix cell silently decodes
    as if the cell were absent."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got NaN or infinity")


def _split_rows(joined: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """Undo a concatenation: one array per request, rows in order."""
    return np.split(joined, np.cumsum(counts)[:-1])

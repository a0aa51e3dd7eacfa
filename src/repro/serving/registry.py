"""Warm caches of deserialized checkpoints and their compiled plans.

A generation service sits on the checkpoint -> rebuild -> execute path;
paying deserialization, module construction, and circuit/graph-plan
lowering per request would dwarf the actual math.  :class:`ModelRegistry`
pays those costs once per *distinct* checkpoint:

* checkpoints are deserialized once and kept as live modules in an LRU
  cache keyed by :func:`~repro.nn.serialization.module_fingerprint` plus
  the checkpoint metadata that changes execution semantics (model name,
  architecture hyperparameters, recorded precision) — two paths to
  byte-identical checkpoints share one entry;
* the module is rebuilt with the checkpoint's *recorded* precision
  (:func:`repro.models.build_from_metadata`), so a float32 checkpoint
  executes at complex64 instead of silently running float32 weights
  inside a float64-built shell;
* on insertion each entry is warmed with one tiny encode and one tiny
  decode pass, which lowers its circuit plans into the engine's global
  structural cache — by the time the first real request arrives, no
  request ever re-lowers a plan (the same amortize-one-compiled-program
  trick the engine plays across structurally identical circuits).

A fast path avoids even re-reading the file: ``(resolved path, mtime,
size)`` maps straight to the entry, so repeated requests for the same
checkpoint are a dict hit.  Loads of *new* checkpoints happen on the
calling thread — the batch worker never blocks on deserialization.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..evaluation.sampling import decode_latents, matrix_size
from ..nn.precision import Precision, resolve_precision
from ..nn.serialization import (
    load_module,
    module_fingerprint,
    resolve_checkpoint_path,
)
from ..nn.tensor import Tensor, no_grad
from ..models.factory import build_from_metadata

__all__ = ["ModelEntry", "ModelRegistry"]

# Metadata fields that change what an entry *executes*, not just how it
# was produced — they join the fingerprint in the cache key.  Older
# checkpoints may record a "backend"; no field selects the kernels, so it
# is ignored.
_KEY_FIELDS = ("model", "input_dim", "n_patches", "n_layers", "latent_dim",
               "precision")


@dataclass
class ModelEntry:
    """One warm checkpoint: live module + everything requests need."""

    model: object
    metadata: dict
    fingerprint: str
    precision: Precision
    key: tuple
    path: Path | None = None

    @property
    def is_variational(self) -> bool:
        return bool(self.model.is_variational)

    @property
    def latent_dim(self) -> int:
        return self.model.latent_dim

    @property
    def input_dim(self) -> int:
        return self.model.input_dim

    def matrix_size(self) -> int:
        return matrix_size(self.model)


@dataclass
class RegistryStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


@dataclass
class ModelRegistry:
    """LRU cache of :class:`ModelEntry` objects, safe for concurrent use."""

    max_entries: int = 8
    stats: RegistryStats = field(default_factory=RegistryStats)

    def __post_init__(self):
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._entries: OrderedDict[tuple, ModelEntry] = OrderedDict()
        self._by_path: dict[tuple, tuple] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def load(self, checkpoint: str | Path) -> ModelEntry:
        """The warm entry for ``checkpoint``, deserializing at most once.

        Raises ``FileNotFoundError`` (naming the probed path) for missing
        files — callers surface that as their own error type.
        """
        path = resolve_checkpoint_path(checkpoint)
        stat = path.stat()
        path_key = (str(path), stat.st_mtime_ns, stat.st_size)
        with self._lock:
            entry_key = self._by_path.get(path_key)
            if entry_key is not None and entry_key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(entry_key)
                return self._entries[entry_key]
        # Miss: deserialize and warm OUTSIDE the lock so a slow load of
        # one checkpoint never stalls hits on the others.
        entry = self._build_entry(path)
        with self._lock:
            existing = self._entries.get(entry.key)
            if existing is not None:
                # Raced with another loader, or a byte-identical copy at a
                # different path: keep the first live module.
                self.stats.hits += 1
                self._entries.move_to_end(entry.key)
                self._by_path[path_key] = entry.key
                return existing
            self.stats.misses += 1
            self._entries[entry.key] = entry
            self._by_path[path_key] = entry.key
            self._evict_locked()
        return entry

    def register(self, model, metadata: dict | None = None) -> ModelEntry:
        """Insert an already-built module (tests and benchmarks).

        The entry is keyed, warmed, and evictable exactly like a
        checkpoint-loaded one; ``metadata`` follows ``save_module``'s
        vocabulary (``precision`` is honored).
        """
        metadata = dict(metadata or {})
        entry = self._make_entry(model, metadata, path=None)
        with self._lock:
            self.stats.misses += 1
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            self._evict_locked()
        return entry

    # ------------------------------------------------------------------
    def _build_entry(self, path: Path) -> ModelEntry:
        model = build_from_metadata(_require_metadata(path))
        metadata = load_module(model, path)
        return self._make_entry(model, metadata, path)

    def _make_entry(self, model, metadata: dict, path: Path | None
                    ) -> ModelEntry:
        fingerprint = module_fingerprint(model)
        precision = resolve_precision(metadata.get("precision"))
        key = (fingerprint,) + tuple(
            metadata.get(name) for name in _KEY_FIELDS
        )
        entry = ModelEntry(
            model=model, metadata=metadata, fingerprint=fingerprint,
            precision=precision, key=key, path=path,
        )
        self._warm(entry)
        return entry

    @staticmethod
    def _warm(entry: ModelEntry) -> None:
        """Lower every plan a request could need with two 1-row passes."""
        model = entry.model
        with no_grad():
            # Ones, not zeros: amplitude-embedding encoders reject
            # zero-norm rows, and the plan lowered is the same either way.
            model.encode(Tensor(np.ones((1, model.input_dim))))
            decode_latents(model, np.zeros((1, model.latent_dim)))

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_entries:
            key, __ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._by_path = {
                pk: ek for pk, ek in self._by_path.items() if ek != key
            }


def _require_metadata(path: Path) -> dict:
    from ..nn.serialization import read_checkpoint_metadata

    metadata = read_checkpoint_metadata(path)
    if "model" not in metadata:
        raise ValueError(
            f"checkpoint {path} has no architecture metadata; re-save it "
            "with repro.cli train --out (save_module metadata= fields "
            "model/input_dim/n_patches/n_layers/latent_dim/seed)"
        )
    return metadata

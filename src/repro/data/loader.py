"""Dataset containers, splits, batching, and the paper's normalization.

The paper trains on flattened molecule matrices / images, optionally
L1-normalized ("directly dividing each non-negative feature value by their
sum", Section III-B) for the fully-quantum baselines whose outputs are
probability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["ArrayDataset", "train_test_split", "DataLoader", "l1_normalize"]


@dataclass
class ArrayDataset:
    """Feature matrix ``(n_samples, n_features)`` with an optional raw view.

    ``raw`` keeps the un-flattened originals (e.g. ``(n, 32, 32)`` integer
    molecule matrices) so evaluation code can decode molecules without
    re-reshaping heuristics.
    """

    features: np.ndarray
    raw: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(
                f"features must be 2-D (samples, features), got "
                f"{self.features.shape}"
            )
        if self.raw is not None and len(self.raw) != len(self.features):
            raise ValueError("raw and features disagree on sample count")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        raw = self.raw[indices] if self.raw is not None else None
        return ArrayDataset(self.features[indices], raw=raw, name=self.name)

    def normalized(self) -> "ArrayDataset":
        """L1-normalized copy (the paper's normalization for F-BQ models)."""
        return ArrayDataset(
            l1_normalize(self.features), raw=self.raw, name=f"{self.name}-norm"
        )


def l1_normalize(features: np.ndarray) -> np.ndarray:
    """Divide each sample by the sum of its (non-negative) features."""
    features = np.asarray(features, dtype=np.float64)
    sums = features.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("L1 normalization needs positive per-sample sums")
    return features / sums


def train_test_split(
    dataset: ArrayDataset, test_fraction: float = 0.15, seed: int = 0
) -> tuple[ArrayDataset, ArrayDataset]:
    """Shuffled split; the paper uses 85% / 15% (Section IV-A)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    return dataset.subset(order[n_test:]), dataset.subset(order[:n_test])


class DataLoader:
    """Mini-batch iterator with seeded reshuffling each epoch."""

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[np.ndarray]:
        """Yield feature batches; one permutation is drawn per epoch."""
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch = order[start : start + self.batch_size]
            if self.drop_last and batch.size < self.batch_size:
                return
            yield self.dataset.features[batch]

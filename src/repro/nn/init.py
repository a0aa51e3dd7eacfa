"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so that
every experiment in the reproduction is seeded end to end.  Layers that are
constructed *without* a generator fall back to :func:`fresh_rng`, which
derives a distinct deterministic stream per call — previously every such
layer silently reused ``np.random.default_rng(0)`` and therefore drew
identical weights.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "uniform", "fresh_rng"]

# Root of the default-initialization entropy tree.  ``spawn`` advances an
# internal child counter, so successive fresh_rng() calls hand out distinct,
# deterministic streams (run-to-run reproducible in construction order).
_DEFAULT_SEED_ROOT = np.random.SeedSequence(0)


def fresh_rng(rng: np.random.Generator | None = None) -> np.random.Generator:
    """Return ``rng`` unchanged, or a distinct deterministic default stream.

    The fallback used by ``Linear``/``QuantumLayer``/``PatchedQuantumLayer``
    when no generator is passed: each call spawns a new child of one root
    seed sequence, so two default-constructed layers no longer initialize
    from the same stream.  Pass an explicit generator (as every experiment
    entry point does) for exact end-to-end seeding.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(_DEFAULT_SEED_ROOT.spawn(1)[0])


def kaiming_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init suited to ReLU networks: U(-a, a), a = sqrt(6/fan_in)."""
    fan_in, _ = _fans(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple, rng: np.random.Generator, low: float, high: float) -> np.ndarray:
    """Plain uniform init over [low, high)."""
    return rng.uniform(low, high, size=shape)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out

"""Generation service: micro-batched sampling and scoring over warm models.

The SQ-VAE exists to sample new ligands and score them (QED, logP, SA).
The engine's stacked ``(p * batch, 2**n)`` substrate runs one pass over
many rows for less than the same rows split across several passes, so
the serving layer fuses concurrent small requests into shared passes
whenever it can do so without making any of them wait:

* :class:`ModelRegistry` — warm LRU cache of deserialized checkpoints
  (rebuilt at their recorded precision) with circuit/graph plans
  pre-lowered, keyed by parameter fingerprint + execution metadata;
* :class:`MicroBatcher` — bounded-queue worker that runs each batch as
  soon as it is free, fusing the requests queued behind it, with
  per-request timeouts and backpressure instead of hangs;
* :class:`GenerationService` — sample / encode / score over both,
  batches split back per request; called directly in process;
* :class:`NetworkClient` — the JSON-lines TCP client that pairs with
  ``python -m repro.cli serve``.
"""

from .batcher import (
    BatcherStats,
    MicroBatcher,
    QueueFull,
    RequestTimeout,
    ServiceClosed,
    ServingError,
)
from .client import NetworkClient
from .registry import ModelEntry, ModelRegistry
from .server import GenerationServer
from .service import GenerationService, per_molecule_scores

__all__ = [
    "ServingError",
    "QueueFull",
    "RequestTimeout",
    "ServiceClosed",
    "BatcherStats",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "GenerationService",
    "GenerationServer",
    "per_molecule_scores",
    "NetworkClient",
]

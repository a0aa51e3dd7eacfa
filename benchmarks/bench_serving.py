"""Serving benchmarks: micro-batched throughput and latency.

Stands up a real :class:`repro.serving.GenerationService` over a saved
ScalableQuantumVAE checkpoint (the paper's architecture — its stacked
``(p * batch, 2**n)`` passes are what micro-batching exists to feed) and
drives it with concurrent client threads issuing sample requests, exactly
as the TCP front end would.  Each scenario records:

* molecules/sec end-to-end throughput (wall clock over the whole swarm),
* p50 / p99 per-request latency,
* the batcher's mean batch size (how many requests queued up behind a
  running batch and shared the next pass).

``run_sequential`` is the baseline: one client, so every request pays a
full engine pass of its own.  The ratio of swarm throughput to sequential
throughput is the number the serving layer exists to move.

``run_serving.py`` runs both, stamps the payload via ``bench_machine.py``,
and enforces the floors in ``--check`` mode.
"""

from __future__ import annotations

import tempfile
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.models import ScalableQuantumVAE
from repro.nn.serialization import save_module
from repro.serving import GenerationService

CLIENTS = 8
REQUESTS_PER_CLIENT = 6
SAMPLES_PER_REQUEST = 4
MOLECULES_PER_RUN = CLIENTS * REQUESTS_PER_CLIENT * SAMPLES_PER_REQUEST

MODEL_SPEC = {"model": "sq-vae", "input_dim": 64, "n_patches": 4,
              "n_layers": 1, "latent_dim": None, "seed": 0}


@lru_cache(maxsize=1)
def _checkpoint_path() -> str:
    """A saved sq-vae checkpoint in a tmpdir (built once per process)."""
    model = ScalableQuantumVAE(
        input_dim=MODEL_SPEC["input_dim"],
        n_patches=MODEL_SPEC["n_patches"],
        n_layers=MODEL_SPEC["n_layers"],
        rng=np.random.default_rng(MODEL_SPEC["seed"]),
    )
    directory = Path(tempfile.mkdtemp(prefix="repro-bench-serving-"))
    return str(save_module(model, directory / "sq-vae", metadata=MODEL_SPEC))


def run_scenario(*, clients: int = CLIENTS,
                 requests_per_client: int = REQUESTS_PER_CLIENT,
                 samples_per_request: int = SAMPLES_PER_REQUEST) -> dict:
    """One serving run: ``clients`` threads, back-to-back sample requests.

    Returns molecules/sec, per-request latency percentiles (ms), and the
    batcher's fusion counters.
    """
    service = GenerationService(
        default_checkpoint=_checkpoint_path(),
        max_batch=64,
        default_timeout=120.0,
    )
    latencies: list[float] = []
    lock = threading.Lock()

    def client(client_id: int) -> None:
        mine = []
        for index in range(requests_per_client):
            started = time.perf_counter()
            service.sample(samples_per_request,
                           seed=client_id * 1000 + index)
            mine.append(time.perf_counter() - started)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    stats = service.stats()["batcher"]
    service.close()

    molecules = clients * requests_per_client * samples_per_request
    ordered = np.sort(latencies)
    return {
        "clients": clients,
        "molecules": molecules,
        "wall_s": round(wall, 6),
        "molecules_per_sec": round(molecules / wall, 1),
        "p50_latency_ms": round(float(np.percentile(ordered, 50)) * 1e3, 3),
        "p99_latency_ms": round(float(np.percentile(ordered, 99)) * 1e3, 3),
        "mean_batch_size": stats["mean_batch_size"],
        "batch_size_max": stats["batch_size_max"],
        "batches": stats["batches"],
    }


def run_sequential() -> dict:
    """Baseline: the same request stream from one client, no concurrency."""
    return run_scenario(
        clients=1,
        requests_per_client=CLIENTS * REQUESTS_PER_CLIENT,
        samples_per_request=SAMPLES_PER_REQUEST,
    )

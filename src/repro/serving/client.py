"""The network client for the generation service.

:class:`NetworkClient` speaks the JSON-lines TCP protocol of
``python -m repro.cli serve`` (see :mod:`repro.serving.server`): one JSON
object per line in, one per line out, arrays as nested lists.  Server-side
failures are re-raised as the matching :class:`ServingError` subclass, so
calling code handles a remote service and an in-process
:class:`~repro.serving.service.GenerationService` identically.
"""

from __future__ import annotations

import json
import socket

import numpy as np

from .batcher import QueueFull, RequestTimeout, ServiceClosed, ServingError

__all__ = ["NetworkClient"]


# Wire error name -> exception type (mirrors server._error_name).
_ERRORS = {
    "queue_full": QueueFull,
    "request_timeout": RequestTimeout,
    "service_closed": ServiceClosed,
}


class NetworkClient:
    """JSON-lines TCP client for the ``repro.cli serve`` front end."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    def _request(self, message: dict) -> dict:
        self._file.write(json.dumps(message) + "\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServingError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            kind = _ERRORS.get(response.get("error"), ServingError)
            raise kind(response.get("message", "server error"))
        return response

    def ping(self) -> bool:
        return bool(self._request({"kind": "ping"}).get("ok"))

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        response = self._request(
            {"kind": "sample", "count": int(count), "seed": int(seed)}
        )
        return np.asarray(response["matrices"], dtype=np.float64)

    def encode(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        response = self._request(
            {"kind": "encode", "features": features.tolist()}
        )
        return np.asarray(response["latents"], dtype=np.float64)

    def score(self, matrices) -> dict[str, np.ndarray]:
        matrices = np.asarray(matrices, dtype=np.float64)
        response = self._request(
            {"kind": "score", "matrices": matrices.tolist()}
        )
        return {
            "usable": np.asarray(response["usable"], dtype=bool),
            "qed": np.asarray(response["qed"], dtype=np.float64),
            "logp": np.asarray(response["logp"], dtype=np.float64),
            "sa": np.asarray(response["sa"], dtype=np.float64),
        }

    def stats(self) -> dict:
        return self._request({"kind": "stats"})["stats"]

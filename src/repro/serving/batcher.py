"""Micro-batching request queue: many callers, one stacked pass.

The engine's stacked ``(p * batch, 2**n)`` substrate does not care whether
rows come from one caller or a hundred — what it cares about is being
called once.  :class:`MicroBatcher` turns concurrent single-caller
requests into exactly that shape:

1. **submit** — a request (a batch-group key plus an opaque payload) is
   stamped with its timeout deadline and pushed onto a *bounded* queue.
   A full queue raises :class:`QueueFull` immediately instead of letting
   producers outrun the worker into unbounded memory (backpressure).
2. **drain** — a single worker thread opens a batch with the first
   pending request and adds whatever backlog is already queued, up to
   ``max_batch`` requests, then runs it at once; it never waits for more.
   Requests that arrive while a batch executes queue up and form the
   next batch, so concurrent callers fuse whenever the worker is busy.
3. **execute** — the batch is grouped by key (requests for different
   models or different request kinds never mix); each group runs through
   the ``execute`` callable as one stacked pass, and each request's slice
   of the result resolves its future.  Requests whose deadline passed
   while they sat in the queue are failed with :class:`RequestTimeout`
   without paying for execution.
4. **resolve** — callers block on ``Future.result`` (via :meth:`call`)
   and get their own rows back, a :class:`RequestTimeout` after their
   deadline, or the executor's exception verbatim.  They never hang:
   every submitted future is resolved by the worker, by expiry, or by
   :meth:`close`.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass

__all__ = [
    "ServingError",
    "QueueFull",
    "RequestTimeout",
    "ServiceClosed",
    "BatcherStats",
    "MicroBatcher",
]


class ServingError(RuntimeError):
    """Base class for every serving-layer failure."""


class QueueFull(ServingError):
    """The bounded request queue is at capacity (backpressure signal)."""


class RequestTimeout(ServingError):
    """A request's deadline passed before its result was ready."""


class ServiceClosed(ServingError):
    """The batcher was closed; no further requests are accepted."""


_SHUTDOWN = object()


@dataclass
class _Request:
    key: tuple
    payload: object
    future: Future
    deadline: float | None  # monotonic seconds; None = never expires


@dataclass
class BatcherStats:
    """Worker-side counters (written only by the worker thread)."""

    batches: int = 0
    requests: int = 0
    groups: int = 0
    expired: int = 0
    batch_size_max: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Requests per flush — the number micro-batching lives or dies by."""
        return self.requests / self.batches if self.batches else 0.0

    def record(self, size: int) -> None:
        self.batches += 1
        self.requests += size
        self.batch_size_max = max(self.batch_size_max, size)

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "groups": self.groups,
            "expired": self.expired,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_size_max": self.batch_size_max,
        }


class MicroBatcher:
    """Fuses queued concurrent requests into batches for one executor.

    ``execute(key, payloads)`` receives every payload of one key group and
    must return one result per payload, in order.  The worker runs each
    batch as soon as it is free: a batch is the first pending request
    plus the backlog queued behind it, so no request waits for co-riders.
    ``max_batch`` caps requests per flush; ``max_queue`` bounds pending
    requests; ``default_timeout`` (seconds, None = wait forever) applies
    to requests submitted without their own, and must be finite: a
    ``nan`` or infinite timeout breaks every deadline computed from it.
    """

    def __init__(self, execute, *, max_batch: int = 64, max_queue: int = 256,
                 default_timeout: float | None = 30.0):
        if default_timeout is not None and not (
            math.isfinite(default_timeout) and default_timeout > 0
        ):
            raise ValueError(
                "default_timeout must be None or finite and > 0, got "
                f"{default_timeout!r}"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._execute = execute
        self.max_batch = max_batch
        self.default_timeout = default_timeout
        self.stats = BatcherStats()
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, key: tuple, payload, timeout: float | None = None
               ) -> Future:
        """Enqueue one request; returns a future resolving to its result."""
        if self._closed:
            raise ServiceClosed("batcher is closed")
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        request = _Request(key, payload, Future(), deadline)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise QueueFull(
                f"serving queue is full ({self._queue.maxsize} pending "
                "requests); retry after the backlog drains"
            ) from None
        return request.future

    def call(self, key: tuple, payload, timeout: float | None = None):
        """Submit and block for the result; timeouts raise RequestTimeout."""
        if timeout is None:
            timeout = self.default_timeout
        future = self.submit(key, payload, timeout)
        try:
            return future.result(timeout)
        except FutureTimeout:
            raise RequestTimeout(
                f"request did not complete within {timeout:.3f}s"
            ) from None

    def close(self) -> None:
        """Stop accepting requests, flush the worker, fail anything left."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SHUTDOWN)  # wakes the blocking get
        self._worker.join(timeout=30.0)
        while True:  # anything enqueued after the sentinel
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is not _SHUTDOWN:
                self._set_exception(request, ServiceClosed("batcher closed"))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch, saw_shutdown = self._collect(first)
            self._flush(batch)
            if saw_shutdown:
                return

    def _collect(self, first: _Request) -> tuple[list[_Request], bool]:
        """One batch: ``first`` plus the backlog already queued behind it."""
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _flush(self, batch: list[_Request]) -> None:
        now = time.monotonic()
        groups: dict[tuple, list[_Request]] = {}
        live = 0
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self.stats.expired += 1
                self._set_exception(request, RequestTimeout(
                    "request expired in the queue before execution"
                ))
                continue
            groups.setdefault(request.key, []).append(request)
            live += 1
        if live:
            self.stats.record(live)
        for key, requests in groups.items():
            self.stats.groups += 1
            try:
                results = self._execute(key, [r.payload for r in requests])
                if len(results) != len(requests):
                    raise ServingError(
                        f"executor returned {len(results)} results for "
                        f"{len(requests)} requests"
                    )
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                for request in requests:
                    self._set_exception(request, exc)
                continue
            for request, result in zip(requests, results):
                if not request.future.cancelled():
                    request.future.set_result(result)

    @staticmethod
    def _set_exception(request: _Request, exc: BaseException) -> None:
        if not request.future.cancelled():
            request.future.set_exception(exc)

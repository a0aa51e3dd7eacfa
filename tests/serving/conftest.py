"""Shared serving fixture: hold the micro-batcher's worker to force fusion.

The batcher runs each batch as soon as its worker is free, so requests
fuse only when they queue up behind a running batch.  Tests that need a
fused batch hold the worker inside a gated execute call, submit while it
is held, and release it: the backlog then runs as the worker's next
batch, deterministically, with no timing involved.
"""

import threading
import time
from contextlib import contextmanager

import pytest

# Key of the gate request; no test or service request uses it.
GATE_KEY = ("held-worker-gate",)


@contextmanager
def _worker_held(batcher, timeout=10.0):
    """Hold ``batcher``'s worker inside a gated execute call for the block.

    Yields ``wait_queued(n)``, which returns once ``n`` requests are
    queued behind the gate (for submitters on other threads).  On exit the
    gate opens and everything queued (up to ``max_batch``) runs as one
    batch.  The gate's own one-request batch counts in ``batcher.stats``.
    """
    entered = threading.Event()
    release = threading.Event()
    execute = batcher._execute

    def gated(key, payloads):
        if key != GATE_KEY:
            return execute(key, payloads)
        entered.set()
        release.wait(timeout)
        return payloads

    def wait_queued(n):
        deadline = time.monotonic() + timeout
        while batcher._queue.qsize() < n:
            assert time.monotonic() < deadline, (
                f"{batcher._queue.qsize()} of {n} requests queued"
            )
            time.sleep(0.001)

    batcher._execute = gated
    gate = batcher.submit(GATE_KEY, None, timeout=None)
    try:
        assert entered.wait(timeout), "the worker never took the gate"
        yield wait_queued
    finally:
        release.set()
        gate.result(timeout)
        batcher._execute = execute


@pytest.fixture(scope="session")
def worker_held():
    """The :func:`_worker_held` context manager (a plain function handle,
    so it composes with hypothesis ``@given`` tests)."""
    return _worker_held

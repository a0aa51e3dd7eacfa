"""Tests for the micro-batching request queue."""

import threading
import time

import pytest

from repro.serving import (
    MicroBatcher,
    QueueFull,
    RequestTimeout,
    ServiceClosed,
    ServingError,
)


def echo_executor(key, payloads):
    return [(key, p) for p in payloads]


class TestBatching:
    def test_single_request_round_trips(self):
        with MicroBatcher(echo_executor) as batcher:
            assert batcher.call(("k",), 7) == (("k",), 7)

    def test_concurrent_submits_fuse_into_one_batch(self, worker_held):
        calls = []

        def execute(key, payloads):
            calls.append(list(payloads))
            return payloads

        # Submitted while the worker is busy, the six requests queue up
        # and run as its next batch.
        batcher = MicroBatcher(execute)
        try:
            with worker_held(batcher):
                futures = [batcher.submit(("k",), i) for i in range(6)]
            assert [f.result(5.0) for f in futures] == list(range(6))
        finally:
            batcher.close()
        assert calls == [[0, 1, 2, 3, 4, 5]]
        # The gate's own batch, then the fused one.
        assert batcher.stats.batches == 2
        assert batcher.stats.batch_size_max == 6
        assert batcher.stats.mean_batch_size == pytest.approx(3.5)

    def test_results_keep_submission_order_per_key(self, worker_held):
        with MicroBatcher(echo_executor) as batcher:
            with worker_held(batcher):
                futures = [batcher.submit(("k",), i) for i in range(10)]
            assert [f.result(5.0)[1] for f in futures] == list(range(10))
            assert batcher.stats.batch_size_max == 10

    def test_different_keys_never_share_an_execute_call(self, worker_held):
        seen = []

        def execute(key, payloads):
            seen.append((key, list(payloads)))
            return payloads

        batcher = MicroBatcher(execute)
        try:
            with worker_held(batcher):
                futures = [batcher.submit(("a",), 1),
                           batcher.submit(("b",), 2),
                           batcher.submit(("a",), 3)]
            for future in futures:
                future.result(5.0)
        finally:
            batcher.close()
        assert seen == [(("a",), [1, 3]), (("b",), [2])]
        # After the gate's batch, one flush split into two per-key
        # execute calls.
        assert batcher.stats.batches == 2
        assert batcher.stats.groups == 3

    def test_max_batch_caps_a_flush(self, worker_held):
        sizes = []

        def execute(key, payloads):
            sizes.append(len(payloads))
            return payloads

        batcher = MicroBatcher(execute, max_batch=3)
        try:
            with worker_held(batcher):
                futures = [batcher.submit(("k",), i) for i in range(8)]
            assert [f.result(5.0) for f in futures] == list(range(8))
        finally:
            batcher.close()
        assert sizes == [3, 3, 2]
        assert batcher.stats.batch_size_max == 3


class TestBackpressure:
    def test_queue_full_raises_instead_of_hanging(self):
        release = threading.Event()

        def gated(key, payloads):
            release.wait(5.0)
            return payloads

        batcher = MicroBatcher(gated, max_queue=2, max_batch=1)
        try:
            # The worker grabs the first request and blocks inside the
            # executor; further submits fill the bounded queue.
            batcher.submit(("k",), 0)
            time.sleep(0.05)
            with pytest.raises(QueueFull, match="2 pending"):
                for i in range(10):
                    batcher.submit(("k",), i)
        finally:
            release.set()
            batcher.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(echo_executor, max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(echo_executor, max_queue=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"default_timeout": float("inf")}, "default_timeout"),
        ({"default_timeout": float("nan")}, "default_timeout"),
        ({"default_timeout": 0.0}, "default_timeout"),
    ])
    def test_constructor_rejects_unusable_durations(self, kwargs, match):
        # nan/inf timeouts fail or overflow every request.
        with pytest.raises(ValueError, match=match):
            MicroBatcher(echo_executor, **kwargs)

    def test_flush_window_is_gone(self):
        # The worker never waits for co-riders, so there is no window to
        # set.
        with pytest.raises(TypeError, match="flush_window"):
            MicroBatcher(echo_executor, flush_window=0.005)


class TestTimeouts:
    def test_call_times_out_instead_of_hanging(self):
        release = threading.Event()

        def gated(key, payloads):
            release.wait(5.0)
            return payloads

        batcher = MicroBatcher(gated)
        try:
            started = time.monotonic()
            with pytest.raises(RequestTimeout, match="did not complete"):
                batcher.call(("k",), 1, timeout=0.1)
            assert time.monotonic() - started < 2.0
        finally:
            release.set()
            batcher.close()

    def test_expired_in_queue_fails_without_executing(self):
        executed = []
        release = threading.Event()

        def gated(key, payloads):
            release.wait(5.0)
            executed.extend(payloads)
            return payloads

        batcher = MicroBatcher(gated)
        try:
            blocker = batcher.submit(("k",), "blocker", timeout=None)
            time.sleep(0.05)
            doomed = batcher.submit(("k",), "doomed", timeout=0.01)
            time.sleep(0.1)  # deadline passes while it sits in the queue
            release.set()
            blocker.result(5.0)
            with pytest.raises(RequestTimeout, match="expired in the queue"):
                doomed.result(5.0)
        finally:
            batcher.close()
        assert "doomed" not in executed
        assert batcher.stats.expired == 1


class TestFailurePropagation:
    def test_executor_exception_reaches_every_caller(self, worker_held):
        def boom(key, payloads):
            raise RuntimeError("kernel on fire")

        with MicroBatcher(boom) as batcher:
            with worker_held(batcher):
                futures = [batcher.submit(("k",), i) for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel on fire"):
                    future.result(5.0)
            assert batcher.stats.batch_size_max == 3

    def test_wrong_result_count_is_a_serving_error(self, worker_held):
        def short(key, payloads):
            return payloads[:1]

        with MicroBatcher(short) as batcher:
            with worker_held(batcher):
                futures = [batcher.submit(("k",), i) for i in range(2)]
            for future in futures:
                with pytest.raises(ServingError, match="1 results for 2"):
                    future.result(5.0)

    def test_failure_in_one_group_spares_the_other(self, worker_held):
        def picky(key, payloads):
            if key == ("bad",):
                raise ValueError("no")
            return payloads

        with MicroBatcher(picky) as batcher:
            with worker_held(batcher):
                bad = batcher.submit(("bad",), 1)
                good = batcher.submit(("good",), 2)
            assert good.result(5.0) == 2
            with pytest.raises(ValueError):
                bad.result(5.0)


class TestClose:
    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(echo_executor)
        batcher.close()
        with pytest.raises(ServiceClosed):
            batcher.submit(("k",), 1)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(echo_executor)
        batcher.close()
        batcher.close()

    def test_context_manager_closes(self):
        with MicroBatcher(echo_executor) as batcher:
            pass
        with pytest.raises(ServiceClosed):
            batcher.submit(("k",), 1)

    def test_stats_as_dict_shape(self):
        with MicroBatcher(echo_executor) as batcher:
            batcher.call(("k",), 1)
            stats = batcher.stats.as_dict()
        assert stats["batches"] == 1
        assert stats["requests"] == 1
        assert stats["mean_batch_size"] == 1.0
        assert set(stats) == {"batches", "requests", "groups", "expired",
                              "mean_batch_size", "batch_size_max"}

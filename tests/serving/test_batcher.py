"""Dynamic batcher: coalescing, parity, batching policy, lifecycle."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import BatchedDSEPredictor, DSEPredictor
from repro.serving import DynamicBatcher, ServingStats


def _batcher(model, stats=None, start=False, **kwargs) -> DynamicBatcher:
    stats = stats or ServingStats()
    engine = BatchedDSEPredictor(model, on_batch=stats.record_forward)
    return DynamicBatcher(engine, stats=stats, start=start, **kwargs)


class TestCoalescing:
    def test_queued_requests_coalesce_into_minimal_batches(self, serve_model,
                                                           problem, rng):
        """N queued requests are served in exactly ceil(N/max_batch) passes."""
        batcher = _batcher(serve_model, max_batch_size=8)
        inputs = problem.sample_inputs(20, rng)
        futures = [batcher.submit(*map(int, row)) for row in inputs]
        batcher.start()
        results = [f.result(30) for f in futures]
        batcher.stop()

        assert batcher.stats.forward_passes == 3       # ceil(20 / 8)
        assert batcher.stats.batches_total == 3
        assert batcher.stats.requests_total == 20
        assert batcher.stats.samples_total == 20
        assert [r.batch_size for r in results[:8]] == [8] * 8

    def test_concurrent_threads_share_forward_passes(self, serve_model,
                                                     problem, rng):
        """Threaded clients: correct per-thread results, and requests
        that queue behind a busy engine share its next passes."""
        n_clients = 24
        batcher = _batcher(serve_model, max_batch_size=8, start=True)
        # The first pass holds the engine until every client has
        # submitted, so the rest are queued when it frees up.
        all_submitted = threading.Event()
        real = batcher.engine.predict_indices

        def held_until_all_submitted(inputs):
            assert all_submitted.wait(30)
            return real(inputs)

        batcher.engine.predict_indices = held_until_all_submitted
        inputs = problem.sample_inputs(n_clients, rng)
        results: dict[int, object] = {}
        barrier = threading.Barrier(n_clients + 1)

        def client(i: int) -> None:
            future = batcher.submit(*map(int, inputs[i]))
            barrier.wait()
            results[i] = future.result(30)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        barrier.wait()
        all_submitted.set()
        for t in threads:
            t.join()
        batcher.stop()

        # One held pass of >= 1 row, then at most ceil(23 / 8) more.
        assert batcher.stats.forward_passes <= 1 + 3
        assert batcher.stats.samples_total == n_clients
        pe_ref, l2_ref = DSEPredictor(serve_model).predict_indices(inputs)
        for i in range(n_clients):
            assert results[i].pe_idx == pe_ref[i]
            assert results[i].l2_idx == l2_ref[i]


class TestParityAndResults:
    def test_predictions_identical_to_per_sample_predictor(self, serve_model,
                                                           problem, rng):
        inputs = problem.sample_inputs(40, rng)
        with _batcher(serve_model, max_batch_size=16,
                      start=True) as batcher:
            served = [batcher.predict(*map(int, row)) for row in inputs]
        pe_ref, l2_ref = DSEPredictor(serve_model).predict_indices(inputs)
        np.testing.assert_array_equal([s.pe_idx for s in served], pe_ref)
        np.testing.assert_array_equal([s.l2_idx for s in served], l2_ref)

    def test_served_prediction_fields(self, serve_model, problem):
        with _batcher(serve_model, start=True) as batcher:
            result = batcher.predict(64, 512, 256, 1)
        assert result.num_pes in problem.space.pe_choices
        assert result.l2_kb in problem.space.l2_choices
        assert result.num_pes == problem.space.pe_choices[result.pe_idx]
        assert result.queue_wait_s >= 0
        assert result.batch_size == 1
        doc = result.as_dict()
        assert doc["m"] == 64 and doc["dataflow"] == 1

    def test_predict_batch_matches_per_sample_and_skips_queue(
            self, serve_model, problem, rng):
        inputs = problem.sample_inputs(150, rng)
        batcher = _batcher(serve_model, max_batch_size=8, start=False)
        served = batcher.predict_batch([tuple(map(int, row))
                                        for row in inputs])
        # Served synchronously without the worker thread ever running.
        pe_ref, l2_ref = DSEPredictor(serve_model).predict_indices(inputs)
        np.testing.assert_array_equal([s.pe_idx for s in served], pe_ref)
        np.testing.assert_array_equal([s.l2_idx for s in served], l2_ref)
        assert batcher.stats.requests_total == 150
        assert batcher.stats.batches_total == 1
        assert all(s.batch_size == 150 for s in served)

    def test_predict_batch_validates_dataflow(self, serve_model):
        batcher = _batcher(serve_model, start=False)
        with pytest.raises(ValueError, match="dataflow"):
            batcher.predict_batch([(8, 8, 8, 9)])

    def test_oversized_dims_are_clamped_like_the_cli(self, serve_model,
                                                     problem):
        with _batcher(serve_model, start=True) as batcher:
            result = batcher.predict(10**6, 10**6, 10**6, 0)
        b = problem.bounds
        assert (result.m, result.n, result.k) == (b.m_max, b.n_max, b.k_max)


class _GatedEngine:
    """Duck-typed engine whose forward pass blocks until released; it
    records the rows of every pass."""

    def __init__(self, problem):
        self.problem = problem
        self.entered = threading.Event()
        self.release = threading.Event()
        self.pass_rows: list[int] = []

    def predict_indices(self, inputs):
        self.pass_rows.append(len(inputs))
        self.entered.set()
        assert self.release.wait(30), "test never released the gate"
        zeros = np.zeros(len(inputs), dtype=np.int64)
        return zeros, zeros


class TestCancelledFutures:
    def test_cancelled_future_does_not_kill_the_worker(self, serve_model,
                                                       problem, rng):
        """Regression: set_result on a cancelled future raised
        InvalidStateError, killing the batcher thread and hanging every
        subsequent request on the route."""
        batcher = _batcher(serve_model, max_batch_size=4)
        inputs = problem.sample_inputs(6, rng)
        futures = [batcher.submit(*map(int, row)) for row in inputs]
        assert futures[2].cancel()          # a client times out mid-queue
        batcher.start()
        for i, future in enumerate(futures):
            if i == 2:
                assert future.cancelled()
            else:
                assert future.result(10) is not None
        # The worker survived the cancelled future and keeps serving.
        assert batcher.running
        assert batcher.predict(8, 8, 8, timeout=10).num_pes > 0
        batcher.stop()

    def test_fully_cancelled_batch_is_skipped(self, serve_model, problem,
                                              rng):
        batcher = _batcher(serve_model, max_batch_size=4)
        futures = [batcher.submit(*map(int, row))
                   for row in problem.sample_inputs(3, rng)]
        for future in futures:
            assert future.cancel()
        batcher.start()
        assert batcher.predict(8, 8, 8, timeout=10) is not None
        batcher.stop()
        # Cancelled rows never reached the engine or the batch counters.
        assert batcher.stats.samples_total == 1


class TestStopTimeout:
    def test_stop_raises_and_stays_running_when_join_times_out(
            self, problem):
        """Regression: stop() cleared the thread handle even when join()
        expired, so `running` lied and a second start() could race a new
        worker onto the same queue."""
        engine = _GatedEngine(problem)
        batcher = DynamicBatcher(engine, max_batch_size=4)
        future = batcher.submit(8, 8, 8)
        assert engine.entered.wait(10)      # worker is mid-forward-pass
        with pytest.raises(TimeoutError, match="still draining"):
            batcher.stop(timeout=0.05)
        assert batcher.running              # the worker is still alive
        # start() must not spawn a second worker racing the first.
        batcher.start()
        assert threading.active_count() >= 1
        engine.release.set()
        batcher.stop(timeout=10)            # now the drain completes
        assert not batcher.running
        assert future.result(1) is not None


class TestWorkConservingBatching:
    def test_requests_queued_behind_a_busy_engine_form_the_next_batches(
            self, problem):
        """N requests submitted while the engine holds a batch are served
        in exactly ceil(N / max_batch_size) further passes."""
        engine = _GatedEngine(problem)
        batcher = DynamicBatcher(engine, max_batch_size=8)
        first = batcher.submit(8, 8, 8)
        assert engine.entered.wait(10)      # the engine holds batch one
        backlog = [batcher.submit(8 + i, 8, 8) for i in range(19)]
        engine.release.set()
        assert first.result(10).batch_size == 1
        assert [f.result(10).batch_size for f in backlog] \
            == [8] * 8 + [8] * 8 + [3] * 3
        batcher.stop()
        assert engine.pass_rows == [1, 8, 8, 3]   # 1 + ceil(19 / 8)
        assert batcher.stats.batches_total == 4


class TestStatsAccounting:
    def test_submit_on_closed_queue_records_nothing(self, serve_model):
        """Regression: submit() counted the request before the enqueue,
        so a put on a closed queue skewed requests vs served."""
        batcher = _batcher(serve_model, start=True)
        batcher.stop()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(8, 8, 8)
        assert batcher.stats.requests_total == 0

    def test_empty_waits_do_not_poison_wait_percentiles(self):
        stats = ServingStats()
        stats.record_batch(3, ())           # the bulk fast path: no queue
        assert stats.queued_samples == 0
        assert stats.mean_queue_wait_s == 0.0
        stats.record_batch(2, (0.5, 0.5))
        assert stats.queued_samples == 2
        assert stats.mean_queue_wait_s == pytest.approx(0.5)

    def test_predict_batch_engine_failure_counts_an_error(self, serve_model,
                                                          problem):
        batcher = _batcher(serve_model, start=False)

        def boom(inputs):
            raise RuntimeError("engine down")

        batcher.engine.predict_indices = boom
        with pytest.raises(RuntimeError, match="engine down"):
            batcher.predict_batch([(8, 8, 8, 0)])
        assert batcher.stats.errors_total == 1


class TestEmptyBatch:
    def test_predict_batch_rejects_empty_workloads(self, serve_model):
        """Regression: an empty list hit np.stack([]) and escaped as a
        numpy traceback (a 500 at the server layer)."""
        batcher = _batcher(serve_model, start=False)
        with pytest.raises(ValueError, match="non-empty"):
            batcher.predict_batch([])
        assert batcher.stats.requests_total == 0


class TestValidationAndLifecycle:
    def test_bad_dataflow_rejected_at_submit(self, serve_model):
        batcher = _batcher(serve_model)
        with pytest.raises(ValueError, match="dataflow"):
            batcher.submit(8, 8, 8, dataflow=7)

    def test_invalid_policy_rejected(self, serve_model):
        engine = BatchedDSEPredictor(serve_model)
        with pytest.raises(ValueError):
            DynamicBatcher(engine, max_batch_size=0, start=False)

    def test_stop_drains_pending_requests(self, serve_model, problem, rng):
        batcher = _batcher(serve_model, max_batch_size=4)
        futures = [batcher.submit(*map(int, row))
                   for row in problem.sample_inputs(10, rng)]
        batcher.start()
        batcher.stop()
        assert all(f.done() for f in futures)

    def test_submit_after_stop_raises(self, serve_model):
        batcher = _batcher(serve_model, start=True)
        batcher.stop()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(8, 8, 8)


@pytest.mark.slow
class TestSustainedLoad:
    """Soak test (deselected by default; run with `pytest -m slow`)."""

    def test_thousands_of_requests_from_a_client_fleet(self, serve_model,
                                                       problem):
        n_clients, per_client = 16, 250
        inputs = problem.sample_inputs(n_clients * per_client,
                                       np.random.default_rng(99))
        batcher = _batcher(serve_model, max_batch_size=64, start=True)

        def client(cid: int) -> None:
            for r in range(per_client):
                row = inputs[cid * per_client + r]
                batcher.predict(*map(int, row), timeout=60)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.stop()

        stats = batcher.stats
        assert stats.requests_total == n_clients * per_client
        assert stats.samples_total == stats.requests_total
        assert stats.errors_total == 0
        assert stats.mean_batch_size > 2.0     # real coalescing under load
        assert stats.forward_passes == stats.batches_total

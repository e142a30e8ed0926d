"""Dynamic request batching: many concurrent clients, one batched engine.

Single-workload prediction requests arrive from arbitrary threads (the
HTTP front-end's handler pool) and are coalesced into batches for
:class:`repro.core.BatchedDSEPredictor`:

* :class:`RequestQueue` — a condition-variable queue whose ``get_batch``
  blocks for the first request, then takes every request already queued
  (up to the batch cap) without waiting for more.
* :class:`DynamicBatcher` — a background thread draining the queue: one
  engine forward pass per coalesced batch, results fanned back out
  through per-request :class:`~concurrent.futures.Future`\\ s.

Batching is work-conserving: the engine never idles while a request is
queued, and requests that arrive while a batch is in the engine form the
next batch.  Batches therefore grow with the backlog, not with a timer.

Predictions are bit-identical to calling :class:`repro.core.DSEPredictor`
per request — batching only changes *when* rows reach the model, never
what the model computes for a row.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..core import BatchedDSEPredictor
from ..obs import SpanContext, engine_trace_scope

__all__ = ["ServedPrediction", "RequestQueue", "DynamicBatcher"]


@dataclass(frozen=True)
class ServedPrediction:
    """What a client's future resolves to: one workload's design point."""

    m: int
    n: int
    k: int
    dataflow: int
    pe_idx: int
    l2_idx: int
    num_pes: int
    l2_kb: int
    queue_wait_s: float
    batch_size: int             # how many requests shared the forward pass

    def as_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "k": self.k,
                "dataflow": self.dataflow, "num_pes": self.num_pes,
                "l2_kb": self.l2_kb, "pe_idx": self.pe_idx,
                "l2_idx": self.l2_idx,
                "queue_wait_ms": self.queue_wait_s * 1e3,
                "batch_size": self.batch_size}


class _Pending:
    """One enqueued request: its input row, future, and arrival time.

    ``trace`` carries the request's :class:`~repro.obs.SpanContext`
    across the thread boundary into the batcher worker, which emits the
    ``queue.wait`` span on the request's behalf once its batch is served.
    """

    __slots__ = ("row", "future", "enqueued_at", "trace")

    def __init__(self, row: np.ndarray, trace: SpanContext | None = None):
        self.row = row
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()
        self.trace = trace


class RequestQueue:
    """Unbounded thread-safe queue with batch-draining semantics."""

    def __init__(self):
        self._items: deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: _Pending) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("request queue is closed")
            self._items.append(item)
            self._cond.notify()

    def get_batch(self, max_size: int) -> list[_Pending] | None:
        """Next batch, or ``None`` once closed and drained.

        Blocks indefinitely for the first request, then returns it with
        every request already queued behind it, up to ``max_size``.
        """
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait()
            items = self._items
            return [items.popleft() for _ in range(min(max_size, len(items)))]

    def close(self) -> None:
        """Reject new requests; pending ones may still be drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class DynamicBatcher:
    """Coalesce concurrent prediction requests into engine batches.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.core.BatchedDSEPredictor`.  It runs a
        coalesced batch as one forward pass per model tile, whose size
        is fixed by a cache budget, not by this class.  The default
        ``max_batch_size`` fits inside one tile of the shipped model
        scales, so each coalesced batch is a single forward pass.
    max_batch_size:
        Most queued requests served by one forward pass.  The worker
        takes whatever is queued up to this cap as soon as the engine is
        free; it never waits for more to arrive.
    stats:
        Optional shared :class:`ServingStats`; one is created otherwise.
    start:
        Pass ``False`` to enqueue without serving (tests use this to make
        coalescing deterministic), then call :meth:`start`.
    """

    def __init__(self, engine: BatchedDSEPredictor, max_batch_size: int = 64,
                 stats=None, start: bool = True):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        from .stats import ServingStats
        self.engine = engine
        self.problem = engine.problem
        self.max_batch_size = max_batch_size
        self.stats = stats if stats is not None else ServingStats()
        self.queue = RequestQueue()
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "DynamicBatcher":
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve_loop,
                                            name="dse-dynamic-batcher",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Close the queue, drain pending requests, join the worker.

        Raises :class:`TimeoutError` if the worker is still draining when
        ``timeout`` expires.  The thread handle is kept in that case, so
        :attr:`running` stays truthful and a later :meth:`start` can
        never race a second worker onto the same queue — call ``stop()``
        again once the engine catches up.
        """
        self.queue.close()
        thread = self._thread
        if thread is None or thread.ident is None:     # never started
            self._thread = None
            return
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError(
                f"batcher worker still draining after {timeout:g}s; "
                f"call stop() again once the engine catches up")
        self._thread = None

    def __enter__(self) -> "DynamicBatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API (any thread)
    # ------------------------------------------------------------------
    def _validated_row(self, m: int, n: int, k: int,
                       dataflow: int) -> np.ndarray:
        m_c, n_c, k_c = self.problem.clamp_inputs(m, n, k)
        if not 0 <= int(dataflow) < self.problem.bounds.n_dataflows:
            raise ValueError(
                f"dataflow must be in 0.."
                f"{self.problem.bounds.n_dataflows - 1}, got {dataflow}")
        return np.array([int(m_c), int(n_c), int(k_c), int(dataflow)],
                        dtype=np.int64)

    def submit(self, m: int, n: int, k: int, dataflow: int = 0,
               trace: SpanContext | None = None) -> Future:
        """Enqueue one workload; the future resolves to a
        :class:`ServedPrediction` once its batch has been served.

        ``trace`` (optional) is the caller's span context: the worker
        will emit a ``queue.wait`` child span and attribute the engine's
        forward pass to the trace."""
        pending = _Pending(self._validated_row(m, n, k, dataflow), trace)
        # Enqueue first: a put on a closed queue raises, and a request
        # that never entered the queue must not skew /stats accounting.
        self.queue.put(pending)
        self.stats.record_request()
        return pending.future

    def predict(self, m: int, n: int, k: int, dataflow: int = 0,
                timeout: float | None = 30.0,
                trace: SpanContext | None = None) -> ServedPrediction:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(m, n, k, dataflow, trace=trace).result(timeout)

    def predict_batch(self, workloads,
                      trace: SpanContext | None = None) -> list[ServedPrediction]:
        """Serve a pre-assembled bulk batch in one vectorised engine call.

        Bulk requests bypass the queue: re-chunking a thousand-row body
        into ``max_batch_size`` coalesced batches (and a future per row)
        would stall the single-row path behind it for no benefit — the
        engine already tiles internally.  Validation, clamping,
        and stats accounting match :meth:`submit`; the caller's thread
        does the forward pass.
        """
        rows = [self._validated_row(m, n, k, df)
                for m, n, k, df in workloads]
        if not rows:
            raise ValueError("'workloads' must be a non-empty list")
        self.stats.record_request(len(rows))
        inputs = np.stack(rows)
        try:
            with engine_trace_scope((trace,) if trace is not None else ()):
                pe_idx, l2_idx = self.engine.predict_indices(inputs)
            num_pes, l2_kb = self.problem.space.values(pe_idx, l2_idx)
        except Exception:
            self.stats.record_error()
            raise
        # An empty waits tuple is deliberate: bulk rows never queue, so
        # they add to the batch counters without touching queued_samples
        # (the wait-percentile denominator).
        self.stats.record_batch(len(rows), ())
        return [ServedPrediction(
                    m=int(row[0]), n=int(row[1]), k=int(row[2]),
                    dataflow=int(row[3]), pe_idx=int(pe_idx[i]),
                    l2_idx=int(l2_idx[i]), num_pes=int(num_pes[i]),
                    l2_kb=int(l2_kb[i]), queue_wait_s=0.0,
                    batch_size=len(rows))
                for i, row in enumerate(rows)]

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            batch = self.queue.get_batch(self.max_batch_size)
            if batch is None:
                return
            self._serve_batch(batch)

    def _serve_batch(self, batch: list[_Pending]) -> None:
        # Claim every future before touching the engine: a client that
        # timed out and cancelled must neither burn an engine row nor —
        # via set_result on a cancelled future — raise InvalidStateError
        # and kill this worker (hanging every later request).  Once
        # claimed, a future can no longer be cancelled, so the
        # set_result/set_exception below are race-free.
        batch = [p for p in batch
                 if p.future.set_running_or_notify_cancel()]
        if not batch:
            return
        served_at = time.perf_counter()
        inputs = np.stack([p.row for p in batch])
        # Deduplicate: a multi-workload request enqueues one pending per
        # row, all sharing one trace — one engine.forward span each.
        contexts = tuple(dict.fromkeys(
            p.trace for p in batch if p.trace is not None))
        try:
            with engine_trace_scope(contexts):
                pe_idx, l2_idx = self.engine.predict_indices(inputs)
            num_pes, l2_kb = self.problem.space.values(pe_idx, l2_idx)
        except Exception as exc:  # pragma: no cover - engine failure path
            self.stats.record_error()
            for pending in batch:
                pending.future.set_exception(exc)
            return
        waits = [served_at - p.enqueued_at for p in batch]
        self.stats.record_batch(len(batch), waits)
        for i, pending in enumerate(batch):
            row = pending.row
            pending.future.set_result(ServedPrediction(
                m=int(row[0]), n=int(row[1]), k=int(row[2]),
                dataflow=int(row[3]), pe_idx=int(pe_idx[i]),
                l2_idx=int(l2_idx[i]), num_pes=int(num_pes[i]),
                l2_kb=int(l2_kb[i]), queue_wait_s=waits[i],
                batch_size=len(batch)))
        # Spans go out *after* the futures resolve: emission is off the
        # response critical path, so clients never wait on the tracer.
        for pending, wait in zip(batch, waits):
            if pending.trace is not None and pending.trace.tracer is not None:
                span = pending.trace.tracer.span("queue.wait",
                                                 parent=pending.trace)
                span.start_time -= wait     # span began at enqueue time
                span.set_attribute("batch_size", len(batch))
                span.end(duration_s=wait)

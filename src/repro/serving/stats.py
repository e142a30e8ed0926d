"""Thread-safe serving counters shared by the batcher and the HTTP server.

Each served model owns one :class:`ServingStats`: its
:class:`~repro.serving.DynamicBatcher` records per-request queue waits and
per-batch sizes, the engine's ``on_batch`` hook
(:class:`repro.core.BatchedDSEPredictor`) records raw forward passes, the
streaming sweep endpoint records per-sweep row/chunk counts, and the HTTP
front-end records whole-request service latency into a histogram
(p50/p95/p99 per route).

Every number lives in a :class:`~repro.obs.MetricsRegistry` (the
server's, labelled by model; a private one for standalone use), so
``GET /metrics`` and ``GET /stats`` are two renderings of the same
series.  ``_DOCUMENT`` declares the route's ``/stats`` keys once: each
counter key names its registry series, and :meth:`ServingStats.snapshot`
(one route) and :meth:`ServingStats.merge_snapshots` (the aggregate) are
both generated from it.  Counters are read under the route's lock, the
lock every ``record_*`` call holds, so one route's document never tears.
"""

from __future__ import annotations

import threading
import time

from ..obs import LatencyHistogram, MetricsRegistry

__all__ = ["LatencyHistogram", "ServingStats"]

#: A route's ``/stats`` keys in document order.  Each counter key names
#: its registry series, help text and JSON type; ``None`` marks a key
#: derived from the counters.  The aggregate lists the counters first,
#: then the derived keys, each group in this order.
_DOCUMENT = (
    ("requests_total", ("repro_requests_total",
                        "Prediction requests received.", int)),
    ("batches_total", ("repro_batches_total",
                       "Coalesced batches served.", int)),
    ("samples_total", ("repro_samples_total",
                       "Rows served across all batches.", int)),
    ("queued_samples", ("repro_queued_samples_total",
                        "Rows that waited in the batcher queue.", int)),
    ("mean_batch_size", None),
    ("forward_passes", ("repro_forward_passes_total",
                        "Engine forward passes completed.", int)),
    ("forward_rows", ("repro_forward_rows_total",
                      "Rows pushed through engine forward passes.", int)),
    ("forward_time_s", ("repro_forward_seconds_total",
                        "Seconds spent inside engine forward passes.",
                        float)),
    ("mean_queue_wait_ms", None),
    ("max_queue_wait_ms", None),
    ("queue_wait_total_s", ("repro_queue_wait_seconds_total",
                            "Seconds queued rows spent waiting for their "
                            "batch.", float)),
    ("sweeps_total", ("repro_sweeps_total",
                      "Streaming sweeps completed.", int)),
    ("sweep_rows_total", ("repro_sweep_rows_total",
                          "Rows served across streaming sweeps.", int)),
    ("sweep_chunks_total", ("repro_sweep_chunks_total",
                            "Chunks streamed across sweeps.", int)),
    ("errors_total", ("repro_errors_total",
                      "Requests that failed with an error.", int)),
)
_COUNTERS = tuple((key, series) for key, series in _DOCUMENT if series)
_ROUTE_ORDER = tuple(key for key, _ in _DOCUMENT)
_AGGREGATE_ORDER = tuple(key for key, _ in _COUNTERS) + tuple(
    key for key, series in _DOCUMENT if series is None)


def _document(uptime_s: float, values: dict, latency: dict,
              order: tuple) -> dict:
    return {"uptime_s": uptime_s, **{key: values[key] for key in order},
            "latency": latency}


class ServingStats:
    """One route's serving counters (all methods thread-safe).

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.MetricsRegistry` to publish into; a
        private registry is created when omitted (standalone batchers,
        tests).
    labels:
        Label names/values attached to every series (the server passes
        ``{"model": <route name>}`` so per-route series stay distinct in
        one shared registry).
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 labels: dict | None = None):
        self._lock = threading.Lock()
        self.started_at = time.time()
        registry = MetricsRegistry() if registry is None else registry
        labels = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(labels)
        self._counters = {
            key: registry.counter(metric, help, names).labels(**labels)
            for key, (metric, help, _) in _COUNTERS}
        self._queue_wait_max = registry.gauge(
            "repro_queue_wait_max_seconds",
            "Longest observed batcher queue wait.", names).labels(**labels)
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Whole-request service latency at the HTTP front-end.",
            names).labels(**labels)

    # ------------------------------------------------------------------
    def record_request(self, count: int = 1) -> None:
        with self._lock:
            self._counters["requests_total"].inc(count)

    def record_batch(self, size: int, queue_waits_s) -> None:
        """One served batch: its size and the waits of its *queued* rows
        (empty for the bulk fast path, which never queues)."""
        counters = self._counters
        with self._lock:
            counters["batches_total"].inc()
            counters["samples_total"].inc(size)
            for wait in queue_waits_s:
                counters["queued_samples"].inc()
                counters["queue_wait_total_s"].inc(wait)
                self._queue_wait_max.set_max(wait)

    def record_forward(self, rows: int, elapsed_s: float) -> None:
        """``on_batch`` hook: one engine forward pass completed."""
        counters = self._counters
        with self._lock:
            counters["forward_passes"].inc()
            counters["forward_rows"].inc(rows)
            counters["forward_time_s"].inc(elapsed_s)

    def record_sweep(self, rows: int, chunks: int) -> None:
        """One completed streaming sweep: its row and chunk counts."""
        counters = self._counters
        with self._lock:
            counters["sweeps_total"].inc()
            counters["sweep_rows_total"].inc(rows)
            counters["sweep_chunks_total"].inc(chunks)

    def record_error(self) -> None:
        with self._lock:
            self._counters["errors_total"].inc()

    def record_latency(self, seconds: float) -> None:
        """One served request's whole-service latency (HTTP front-end)."""
        with self._lock:
            self._latency.observe(seconds)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The route's ``/stats`` document: every counter, the derived
        means and maximum, and the latency percentiles."""
        with self._lock:
            uptime_s = time.time() - self.started_at
            values = {key: kind(self._counters[key].value)
                      for key, (_, _, kind) in _COUNTERS}
            max_wait_s = float(self._queue_wait_max.value)
            latency = self._latency.snapshot()
        batches, queued = values["batches_total"], values["queued_samples"]
        values["mean_batch_size"] = (values["samples_total"] / batches
                                     if batches else 0.0)
        values["mean_queue_wait_ms"] = (
            values["queue_wait_total_s"] / queued if queued else 0.0) * 1e3
        values["max_queue_wait_ms"] = max_wait_s * 1e3
        return _document(uptime_s, values, latency, _ROUTE_ORDER)

    @staticmethod
    def merge_snapshots(snapshots, uptime_s: float) -> dict:
        """Aggregate route documents into one fleet-level view.

        Counters sum; means are recomputed from the summed numerators and
        denominators (never averaged-of-averages); the maximum wait takes
        the max; latency histograms merge bucket by bucket.
        """
        snapshots = list(snapshots)
        values = {key: sum(s[key] for s in snapshots)
                  for key, _ in _COUNTERS}
        batches, queued = values["batches_total"], values["queued_samples"]
        values["mean_batch_size"] = (values["samples_total"] / batches
                                     if batches else 0.0)
        # Scaled before the division, unlike a route's mean: the two
        # roundings are what /stats has always served.
        values["mean_queue_wait_ms"] = (
            1e3 * values["queue_wait_total_s"] / queued if queued else 0.0)
        values["max_queue_wait_ms"] = max(
            (s["max_queue_wait_ms"] for s in snapshots), default=0.0)
        return _document(uptime_s, values, LatencyHistogram.merge_snapshots(
            s["latency"] for s in snapshots), _AGGREGATE_ORDER)

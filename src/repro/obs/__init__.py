"""``repro.obs`` — the unified telemetry layer.

One coherent instrumentation surface for the whole system, replacing
the per-subsystem counters that accreted around it:

* **Metrics** (:mod:`repro.obs.metrics`) — thread-safe, label-aware
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` primitives in a
  :class:`MetricsRegistry` that renders the Prometheus text exposition
  format.  :class:`~repro.serving.ServingStats` publishes every serving
  counter into the server's registry; the HTTP front-end renders it at
  ``GET /metrics`` and reads the same series back for ``GET /stats``.
* **Tracing** (:mod:`repro.obs.tracing`) — trace/span ids propagated
  from the HTTP front-ends through :class:`~repro.serving.DynamicBatcher`
  futures into the engine's forward passes; finished spans land in a
  bounded in-memory ring and, optionally, an NDJSON file sink.
  Responses echo ``X-Trace-Id``.
* **Structured logging** (:mod:`repro.obs.logging`) —
  :func:`get_logger` returns per-subsystem ``repro.*`` loggers emitting
  JSON lines.
* **Profiling** (:mod:`repro.obs.profiling`) — per-phase
  (data/forward/backward/optimizer) wall-time histograms that every
  :class:`~repro.train.TrainLoop` fit records, read back through
  :class:`~repro.train.ProfilerCallback` and ``repro train --json``.

:func:`get_registry` returns the process-default registry for code
without a natural owner (the CLI, benchmarks); servers create their own
so embedded/multi-server tests stay isolated.
"""

from .logging import JsonLineFormatter, configure, get_logger
from .metrics import (Counter, Gauge, Histogram, LatencyHistogram,
                      MetricsRegistry)
from .profiling import PHASES, PhaseProfiler
from .tracing import (Span, SpanContext, Tracer, current_engine_contexts,
                      engine_trace_scope)

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "LatencyHistogram",
    "Tracer", "Span", "SpanContext", "engine_trace_scope",
    "current_engine_contexts",
    "get_logger", "configure", "JsonLineFormatter",
    "PhaseProfiler", "PHASES",
    "get_registry",
]

_default_registry: MetricsRegistry | None = None


def get_registry() -> MetricsRegistry:
    """The process-default :class:`MetricsRegistry` (created on first use)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = MetricsRegistry()
    return _default_registry
